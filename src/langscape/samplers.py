"""Reconstruction and sampling algorithms on latent landscapes.

One update rule underlies everything here: z <- z - eta grad U(z)
+ sqrt(2 eta / beta) u with u ~ N(0, I), the unadjusted Langevin chain
targeting exp(-beta U).  One loop (_chain) runs every variant on a
batch of chains (a single chain is a batch of one): Langevin ensembles
(gradient descent is the beta = inf ensemble), l1-projected descent on
an intermediate layer (the classical sparse-deviations baseline),
posterior SGLD on an intermediate latent with an exact mixture score,
and synchronously coupled chain pairs sharing their noise.  A chain
whose state, potential or gradient turns non-finite stops at its last
finite state.

Potential oracles are callables z -> (U(z), grad U(z)), read-only and
reentrant; every sampler is a deterministic function of (arguments, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import InverseProblem, empirical_loss_grad, forward, \
    split_forward
from .priors import GaussianMixturePrior, gmm_log_density_and_score, \
    sample_prior

__all__ = [
    "LangevinConfig",
    "Trajectory",
    "EnsembleRun",
    "run_langevin_ensemble",
    "project_l1",
    "run_ilo_baseline",
    "posterior_sgld",
    "coupled_pair",
]


@dataclass(frozen=True)
class LangevinConfig:
    """Step size, inverse temperature, horizon, seed, recording stride."""

    eta: float
    beta: float
    steps: int
    seed: int
    record_every: int = 1

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.steps < 1 or self.record_every < 1:
            raise ValueError("steps and record_every must be >= 1")

    @property
    def sigma_step(self) -> float:
        """sqrt(2 eta / beta); 0 at beta = inf even where 2 eta overflows."""
        return 0.0 if self.beta == math.inf else \
            math.sqrt(2.0 * self.eta / self.beta)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and potentials of run_ilo_baseline's descent.

    step_indices maps records to chain steps; aborted_at is the step at
    which the state, potential or gradient first turned non-finite (the
    chain stopped at its state of the step before) or None.
    """

    states: np.ndarray
    losses: np.ndarray
    step_indices: np.ndarray
    aborted_at: int | None = None


@dataclass(frozen=True)
class EnsembleRun:
    """Recorded history of many independent chains advanced in lockstep.

    states has shape (records, chains, dim); losses (records, chains).
    aborted_at[c] is the step at which chain c stopped on a non-finite
    state, potential or gradient, -1 if it ran to the end.
    """

    states: np.ndarray
    losses: np.ndarray
    step_indices: np.ndarray
    aborted_at: np.ndarray


def _finite_rows(z, u, g) -> np.ndarray:
    return np.isfinite(u) & np.isfinite(g).all(axis=-1) \
        & np.isfinite(z).all(axis=-1)


def _chain(potential_grad, z0, eta, sigma, steps, record_every, noise=None,
           project=None):
    """The one sampler loop: z <- project(z - eta grad U(z) + sigma u).

    Every leading index of z0 is a chain and the oracle sees the whole
    array.  noise() returns the step's standard-normal draw u, which
    broadcasts against z0 (so chains may share one draw); it is unused
    when sigma == 0.  Records step 0, every record_every-th step and the
    last step.

    A chain whose state, potential or gradient turns non-finite at step k
    (the state is tested too: a ReLU maps NaN to finite values) stops at
    its state of step k - 1 and aborted records k (-1 for a chain that
    runs to the end); the loop ends once every chain has stopped.  The
    per-step test is on the whole array; the per-chain mask is only built
    once it fails.  That rule handles every non-finite value, so numpy's
    floating-point warnings are silenced inside the loop.  Returns
    (states, losses, step_indices, aborted).
    """
    z = np.array(z0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, g = potential_grad(z)
        states, losses, idx = [z], [np.array(u, dtype=float)], [0]
        live = _finite_rows(z, u, g)
        aborted = np.where(live, -1, 0)
        g = np.where(live[..., None], g, 0.0)
        halted = not live.all()
        for step in range(1, steps + 1 if live.any() else 1):
            z_next = z - eta * g
            if sigma:
                z_next = z_next + sigma * noise()
            if project is not None:
                z_next = project(z_next)
            if halted:
                z_next = np.where(live[..., None], z_next, z)
            u_next, g_next = potential_grad(z_next)
            if not (np.isfinite(u_next).all() and np.isfinite(g_next).all()
                    and np.isfinite(z_next).all()):
                bad = ~_finite_rows(z_next, u_next, g_next)
                aborted = np.where(bad & live, step, aborted)
                live = live & ~bad
                if not live.any():
                    break
                halted = True
                z_next = np.where(bad[..., None], z, z_next)
                u_next = np.where(bad, u, u_next)
                g_next = np.where(bad[..., None], 0.0, g_next)
            z, u, g = z_next, u_next, g_next
            if step % record_every == 0 or step == steps:
                states.append(z)
                losses.append(np.array(u, dtype=float))
                idx.append(step)
    return (np.array(states), np.array(losses), np.array(idx, dtype=int),
            aborted)


def run_langevin_ensemble(potential_grad, z0: np.ndarray,
                          cfg: LangevinConfig) -> EnsembleRun:
    """Advance (chains, dim) independent Langevin chains in lockstep.

    z <- z - eta grad U + sqrt(2 eta / beta) u, recorded every
    record_every steps (always step 0 and the final step); beta = inf is
    gradient descent, which draws no noise (the seed is unused).  The
    potential oracle must accept batched states.  One RNG stream
    drives all chains (a (chains, dim) draw per step), so the run is
    deterministic for a fixed seed but chains are not individually
    seed-stable under ensemble resizing.  A chain that turns non-finite
    stays at its last finite state while the others run on.
    """
    if np.ndim(z0) != 2:
        raise ValueError("ensemble start must have shape (chains, dim)")
    rng = np.random.default_rng(cfg.seed)
    return EnsembleRun(*_chain(
        potential_grad, z0, cfg.eta, cfg.sigma_step, cfg.steps,
        cfg.record_every, noise=lambda: rng.standard_normal(np.shape(z0))))


def project_l1(v, center, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball ||x - center||_1 <= radius.

    Sort-and-threshold soft shrinkage: exact, O(p log p).  Points already
    inside are returned unchanged.  A point with no threshold in floating
    point (a non-finite coordinate, or an offset so large that radius is
    lost in its rounding) gives NaN, which a descent's divergence rule
    stops on.  radius must be >= 0 and may be inf.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    w = v - center
    a = np.abs(w)
    if a.sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return center.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - radius
    j = np.arange(1, len(u) + 1)
    hits = np.nonzero(u > css / j)[0]
    if not hits.size:
        return np.full_like(v, math.nan)
    rho = int(hits[-1])
    tau = css[rho] / (rho + 1.0)
    return center + np.sign(w) * np.maximum(a - tau, 0.0)


def run_ilo_baseline(problem: InverseProblem, split_layer: int, radius: float,
                     eta: float, steps: int, z0) -> Trajectory:
    """Projected GD on an intermediate layer (the l1 sparse-deviations
    baseline).

    The generator splits as G = G2 o G1 at split_layer; the optimization
    variable is w in R^{n_split}, initialized at the range point G1(z0)
    and projected after every step onto the l1 ball of the given radius
    (>= 0) around that point.  States in the returned trajectory are
    intermediate iterates w.
    """
    if eta <= 0 or not radius >= 0:
        raise ValueError(f"need eta > 0 and radius >= 0, got {eta}, {radius}")
    G = problem.generator
    if G is None:
        raise ValueError("problem has no generator attached")
    G1, G2 = split_forward(G, split_layer)
    w0 = forward(G1, np.asarray(z0, dtype=float))[0]
    sub = InverseProblem(generator=G2, map=problem.map, y=problem.y,
                         noise_sigma=problem.noise_sigma, mask=problem.mask)
    states, losses, step_indices, aborted = _chain(
        lambda w: empirical_loss_grad(sub, w), w0, eta, 0.0, steps, 1,
        project=lambda w: project_l1(w, w0, radius))
    return Trajectory(states=states, losses=losses, step_indices=step_indices,
                      aborted_at=None if aborted < 0 else int(aborted))


def posterior_sgld(problem: InverseProblem, prior: GaussianMixturePrior,
                   cfg: LangevinConfig, chains: int = 1,
                   likelihood_weight: float = 1.0) -> EnsembleRun:
    """Langevin on the posterior potential of an intermediate latent.

    U(w) = lw ||A G2(w) - y||^2 / (2 sigma^2) - log p(w), targeting the
    posterior exp(-U) at beta = 1, with the data-fit term and its gradient
    from empirical_loss_grad: G2 is problem.generator (None is the
    identity, so a linear tail is problem.map).  lw = 0, or a sigma^2
    that overflows, reduces to sampling the prior.  The chains run as one
    batch.  Chain c is seeded s = cfg.seed + c: it starts at a prior draw
    seeded from s and takes its noise from its own stream, so it does not
    depend on how many chains run.
    """
    if problem.noise_sigma <= 0:
        raise ValueError("posterior sampling requires noise_sigma > 0")
    G, A = problem.generator, problem.map
    p = G.latent_dim if G is not None else \
        A.m if A.matrix is None else A.matrix.shape[1]
    if p != prior.dim:
        raise ValueError(f"problem latent dim {p} differs from prior dim")
    sigma = float(problem.noise_sigma)
    s2 = sigma * sigma          # 0 below ~1.5e-162, inf above ~1.3e154
    inv_s2 = likelihood_weight / s2 if s2 else \
        (math.inf if likelihood_weight else 0.0)

    def potential(w):
        u, g = empirical_loss_grad(problem, w)
        logp, score = gmm_log_density_and_score(prior, w)
        return inv_s2 * u - logp, inv_s2 * g - score

    seeds = range(cfg.seed, cfg.seed + chains)
    z0 = np.concatenate([sample_prior(prior, 1, seed=np.random.default_rng(
        (s, 1)).integers(2**63)) for s in seeds])
    rngs = [np.random.default_rng(s) for s in seeds]

    def noise():
        # k steps per draw: one (k, p) draw is k draws of (p,), number for
        # number; a block holds at most about 64k numbers
        k = max(1, min(512, cfg.steps, 65536 // (chains * p)))
        while True:
            yield from np.stack([r.standard_normal((k, p)) for r in rngs], 1)

    return EnsembleRun(*_chain(
        potential, z0, cfg.eta, cfg.sigma_step, cfg.steps, cfg.record_every,
        noise=noise().__next__))


def coupled_pair(potential_grad, z0_a, z0_b,
                 cfg: LangevinConfig) -> EnsembleRun:
    """Two Langevin chains driven by identical Gaussian increments.

    The noise cancels in the difference, so the pair measures the pure
    gradient-map contraction between the chains.  Equal starts give
    bitwise-identical chains.  Returns a 2-chain run (chain 0 starts at
    z0_a); a chain that turns non-finite stops at its last finite state
    while the other runs on.
    """
    za = np.asarray(z0_a, dtype=float)
    zb = np.asarray(z0_b, dtype=float)
    if za.shape != zb.shape:
        raise ValueError("coupled starts must share a shape")
    rng = np.random.default_rng(cfg.seed)
    return EnsembleRun(*_chain(
        potential_grad, np.stack([za, zb]), cfg.eta, cfg.sigma_step,
        cfg.steps, cfg.record_every,
        noise=lambda: rng.standard_normal(za.shape)))
