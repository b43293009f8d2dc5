"""Reconstruction and sampling algorithms on latent landscapes.

One update rule underlies everything here: z <- z - eta grad U(z)
+ sqrt(2 eta / beta) u with u ~ N(0, I), the unadjusted Langevin chain
targeting exp(-beta U).  One loop (_chain) runs every variant on a
batch of chains (a single chain is a batch of one): Langevin ensembles,
gradient descent (beta = inf), l1-projected intermediate-layer descent
(the classical sparse-deviations baseline), posterior SGLD on an
intermediate latent with an exact mixture score, and synchronously
coupled chain pairs sharing their noise.  A chain whose potential or
gradient turns non-finite stops at its last finite state.

Potential oracles are callables z -> (U(z), grad U(z)), read-only and
reentrant; every sampler is a deterministic function of (arguments, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import InverseProblem, ReluGenerator, _backprop, \
    empirical_loss_grad, forward, split_forward
from .priors import GaussianMixturePrior, gmm_log_density_and_score, \
    sample_prior

__all__ = [
    "LangevinConfig",
    "Trajectory",
    "EnsembleRun",
    "L1ProjectionSpec",
    "run_langevin_ensemble",
    "run_gd",
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
        return math.sqrt(2.0 * self.eta / self.beta)


@dataclass(frozen=True)
class Trajectory:
    """Recorded chain states with their potentials.

    step_indices maps records to chain steps; aborted_at is the step at
    which the potential or gradient first turned non-finite (the chain
    stopped at its state of the step before) or None.
    """

    states: np.ndarray
    losses: np.ndarray
    step_indices: np.ndarray
    aborted_at: int | None = None

    def __post_init__(self):
        k = len(self.states)
        if not len(self.losses) == len(self.step_indices) == k:
            raise ValueError("trajectory record arrays must share length")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")


@dataclass(frozen=True)
class EnsembleRun:
    """Recorded history of many independent chains advanced in lockstep.

    states has shape (records, chains, dim); losses (records, chains).
    aborted_at[c] is the step at which chain c stopped on a non-finite
    potential or gradient, -1 if it ran to the end.
    """

    states: np.ndarray
    losses: np.ndarray
    step_indices: np.ndarray
    aborted_at: np.ndarray

    def snapshot(self, step: int) -> np.ndarray:
        """States (chains, dim) recorded at an exact chain step."""
        hits = np.nonzero(self.step_indices == step)[0]
        if len(hits) == 0:
            raise KeyError(f"step {step} was not recorded")
        return self.states[hits[0]]


@dataclass(frozen=True)
class L1ProjectionSpec:
    """l1 ball {x : ||x - center||_1 <= radius}; radius may be inf."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        if not self.radius >= 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")


def _trajectory(states, losses, step_indices, aborted) -> Trajectory:
    return Trajectory(states=states, losses=losses, step_indices=step_indices,
                      aborted_at=None if aborted < 0 else int(aborted))


def _finite_rows(u, g) -> np.ndarray:
    return np.isfinite(u) & np.isfinite(g).all(axis=-1)


def _chain(potential_grad, z0, eta, sigma, steps, record_every, noise=None,
           project=None):
    """The one sampler loop: z <- project(z - eta grad U(z) + sigma u).

    Every leading index of z0 is a chain and the oracle sees the whole
    array.  noise() returns the step's standard-normal draw u, which
    broadcasts against z0 (so chains may share one draw); it is unused
    when sigma == 0.  Records step 0, every record_every-th step and the
    last step.

    A chain whose potential or gradient turns non-finite at step k stops
    at its state of step k - 1 and aborted records k (-1 for a chain that
    runs to the end); the loop ends once every chain has stopped.  The
    per-step test is on the whole array; the per-chain mask is only built
    once it fails.  Returns (states, losses, step_indices, aborted).
    """
    z = np.array(z0, dtype=float)
    u, g = potential_grad(z)
    states, losses, idx = [z], [np.array(u, dtype=float)], [0]
    live = _finite_rows(u, g)
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
        if not (np.isfinite(u_next).all() and np.isfinite(g_next).all()):
            bad = ~_finite_rows(u_next, g_next)
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
    record_every steps (always step 0 and the final step).  The
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


def run_gd(potential_grad, z0, eta: float, steps: int,
           record_every: int = 1) -> Trajectory:
    """Gradient descent z <- z - eta grad U(z), the beta = inf chain.

    A non-finite potential or gradient stops the descent; the trajectory
    then ends at the last finite state and aborted_at gives the step.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return _trajectory(*_chain(potential_grad, z0, eta, 0.0, steps,
                               record_every))


def project_l1(v, spec: L1ProjectionSpec) -> np.ndarray:
    """Euclidean projection onto the l1 ball ||x - center||_1 <= radius.

    Sort-and-threshold soft shrinkage: exact, O(p log p).  Points already
    inside are returned unchanged.
    """
    v = np.asarray(v, dtype=float)
    w = v - spec.center
    a = np.abs(w)
    if a.sum() <= spec.radius:
        return v.copy()
    if spec.radius == 0.0:
        return spec.center.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - spec.radius
    j = np.arange(1, len(u) + 1)
    rho = int(np.nonzero(u > css / j)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return spec.center + np.sign(w) * np.maximum(a - tau, 0.0)


def run_ilo_baseline(problem: InverseProblem, split_layer: int, radius: float,
                     eta: float, steps: int, z0=None, seed: int = 0) -> Trajectory:
    """Projected GD on an intermediate layer (the l1 sparse-deviations
    baseline).

    The generator splits as G = G2 o G1 at split_layer; the optimization
    variable is w in R^{n_split}, initialized at the range point G1(z0)
    and projected after every step onto the l1 ball of the given radius
    around that point.  z0 defaults to a seeded standard normal latent.
    States in the returned trajectory are intermediate iterates w.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    G = problem.generator
    if G is None:
        raise ValueError("problem has no generator attached")
    G1, G2 = split_forward(G, split_layer)
    if z0 is None:
        z0 = np.random.default_rng((seed, 0)).standard_normal(G.latent_dim)
    w0 = forward(G1, np.asarray(z0, dtype=float))[0]
    ball = L1ProjectionSpec(center=w0, radius=radius)
    sub = InverseProblem(generator=G2, map=problem.map, y=problem.y,
                         noise_sigma=problem.noise_sigma, mask=problem.mask)
    return _trajectory(*_chain(lambda w: empirical_loss_grad(sub, w), w0,
                               eta, 0.0, steps, 1,
                               project=lambda w: project_l1(w, ball)))


def _tail_map(G2, p: int):
    """Normalize the tail map to (apply, pullback, input_dim, output_dim).

    G2 may be None (identity), a matrix, or a ReluGenerator.  A matrix
    acts on each row as a (1, n) product, bit for bit the 1-D product of
    that row alone (a batched W @ M.T is not).
    """
    if G2 is None:
        return (lambda w: (w, None)), (lambda w, aux, v: v), p, p
    if isinstance(G2, np.ndarray):
        M = np.asarray(G2, dtype=float)
        return (lambda w: ((w[..., None, :] @ M.T)[..., 0, :], None)), \
            (lambda w, aux, v: (v[..., None, :] @ M)[..., 0, :]), \
            M.shape[1], M.shape[0]
    if isinstance(G2, ReluGenerator):
        return (lambda w: forward(G2, w)), \
            (lambda w, masks, v: _backprop(G2, masks, v)), \
            G2.latent_dim, G2.output_dim
    raise TypeError(f"unsupported tail generator type {type(G2).__name__}")


def posterior_sgld(problem: InverseProblem, prior: GaussianMixturePrior,
                   G2, cfg: LangevinConfig, chains: int = 1,
                   likelihood_weight: float = 1.0) -> EnsembleRun:
    """Langevin on the posterior potential of an intermediate latent.

    U(w) = lw ||A G2(w) - y||^2 / (2 sigma^2) - log p(w), targeting the
    posterior exp(-U) at beta = 1.  G2 is None (identity), a linear map,
    or a ReluGenerator; lw = 0 reduces to sampling the prior.  The chains
    run as one batch.  Chain c is seeded s = cfg.seed + c: it starts at a
    prior draw seeded from s and takes its noise from its own stream, so
    it does not depend on how many chains run.
    """
    if problem.noise_sigma <= 0:
        raise ValueError("posterior sampling requires noise_sigma > 0")
    apply, pullback, p, out_dim = _tail_map(G2, prior.dim)
    if p != prior.dim:
        raise ValueError("tail generator input dim differs from prior dim")
    A = problem.map.matrix
    if out_dim != (problem.map.m if A is None else A.shape[1]):
        raise ValueError(f"tail output dim {out_dim} differs from the "
                         f"measurement map's input dim")
    inv_s2 = likelihood_weight / (problem.noise_sigma ** 2)

    def potential(w):
        out, aux = apply(w)
        residual = problem.map.apply(out) - problem.y
        if problem.mask is not None:
            residual = np.where(problem.mask, residual, 0.0)
        logp, score = gmm_log_density_and_score(prior, w)
        u = 0.5 * inv_s2 * np.sum(residual * residual, axis=-1) - logp
        g = inv_s2 * pullback(w, aux, problem.map.apply_transpose(residual)) \
            - score
        return u, g

    seeds = range(cfg.seed, cfg.seed + chains)
    z0 = np.concatenate([sample_prior(prior, 1, seed=np.random.default_rng(
        (s, 1)).integers(2**63)) for s in seeds])
    rngs = [np.random.default_rng(s) for s in seeds]
    return EnsembleRun(*_chain(
        potential, z0, cfg.eta, cfg.sigma_step, cfg.steps, cfg.record_every,
        noise=lambda: np.stack([r.standard_normal(p) for r in rngs])))


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
