"""Layer micro-cases: cost per call of the hot kernels at the checks' shapes.

Each case warms up, then times batches of calls and reports the median
batch's microseconds per call.  The shapes follow the ROADMAP re-anchor
table: (200, 2) for c06, one and eight 8-d points for c10, the c11
generator, and c03's n = 8 Hessian.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    fn()
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def cases(seed: int):
    """(name, thunk, calls per batch) for every micro-case."""
    from langscape import diagnostics as diag
    from langscape import generator as gen
    from langscape import landscape as ls
    from langscape import priors
    from langscape import samplers as smp

    rng = np.random.default_rng((seed, 2206))
    zs2 = np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2, beta=40.0)
    X = rng.standard_normal((200, 2))
    theta = rng.uniform(0.1, math.pi - 0.1, 200)

    prior8 = priors.GaussianMixturePrior.standard(8)
    z1 = rng.standard_normal(8)
    z8 = rng.standard_normal((8, 8))

    dims = [8, 64, 2048]
    G = gen.build_generator(dims, seed=seed)
    mask = np.zeros(dims[-1], dtype=bool)
    mask[rng.choice(dims[-1], size=15, replace=False)] = True
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=dims[-1]),
        y=gen.forward(G, rng.standard_normal(8))[0], mask=mask)
    z_lat = rng.standard_normal(8)

    A, B = rng.standard_normal((200, 2)), rng.standard_normal((200, 2))
    zs8 = rng.standard_normal(8)
    zs8 /= np.linalg.norm(zs8)
    x8 = zs8 + 0.3 * rng.standard_normal(8)

    def pg(Z):
        return ls.modified_loss(Z, zs2, 2, params)

    ens_steps = 200
    ens_cfg = smp.LangevinConfig(eta=1e-3, beta=40.0, steps=ens_steps,
                                 seed=seed, record_every=ens_steps)
    z0 = np.tile(np.array([-2.0, 0.0]), (200, 1))

    return [
        ("micro.modified_loss.200x2.us",
         lambda: ls.modified_loss(X, zs2, 2, params), 300, 1),
        ("micro.theta_chain.d2x200.us",
         lambda: ls.theta_chain(theta, 2), 500, 1),
        ("micro.gmm_score.1pt.us",
         lambda: priors.gmm_log_density_and_score(prior8, z1), 500, 1),
        ("micro.gmm_score.8pt.us",
         lambda: priors.gmm_log_density_and_score(prior8, z8), 500, 1),
        ("micro.empirical_loss_grad.8-64-2048.us",
         lambda: gen.empirical_loss_grad(problem, z_lat), 300, 1),
        ("micro.sliced_w1.200x2x128.us",
         lambda: diag.sliced_w1(A, B, projections=128, seed=seed), 100, 1),
        ("micro.min_hessian_eig.n8.us",
         lambda: diag.min_hessian_eig(x8, zs8, 2, 8), 1000, 1),
        ("micro.ensemble_step.200x2.us",
         lambda: smp.run_langevin_ensemble(pg, z0, ens_cfg), 2, ens_steps),
    ]


def run(seed: int) -> dict:
    """Microseconds per call (per step for the ensemble case)."""
    return {name: _per_call_us(fn, calls) / per
            for name, fn, calls, per in cases(seed)}
