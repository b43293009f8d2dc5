"""Verification machinery: transport distances, references, chain checks.

Estimators come in matched pairs: a quantity the theory talks about
(Wasserstein-1 distance, hitting time, escape probability, Hessian
spectrum, potential drift, discretization gap) and an independent way to
pin it down (sorted matching, quadrature reference, closed-form
bounds with Wilson confidence intervals).  Everything is a
pure, seed-deterministic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .landscape import ModifiedLossParams, ideal_hessian, modified_loss, \
    potential, theta_chain
from .samplers import EnsembleRun

__all__ = [
    "EmpiricalDistribution",
    "TailReport",
    "DriftReport",
    "sliced_w1",
    "grid_density_sampler",
    "reference_grid_sampler",
    "hitting_time",
    "tail_statistics",
    "min_hessian_eig",
    "potential_drift",
    "discretization_gap",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Uniformly weighted sample cloud (count x dim)."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=float, ndmin=2)
        if s.shape[0] < 1 or not np.all(np.isfinite(s)):
            raise ValueError("samples must be a nonempty finite matrix")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class TailReport:
    """Escape and norm-bound tail frequencies with 95% Wilson intervals."""

    escape_frequency: float
    escape_bound: float
    escape_ci_low: float
    escape_ci_high: float
    norm_exceed_frequency: float


@dataclass(frozen=True)
class DriftReport:
    """Monte-Carlo one-step potential drift with a 95% interval."""

    mean_delta: float
    ci_low: float
    ci_high: float


def _wilson_interval(successes: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    z = _Z95
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Wasserstein estimators


def _as_samples(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("samples must be a vector or a (count, dim) matrix")
    return a


def sliced_w1(a, b, projections: int, seed: int) -> float:
    """Mean of exact 1-D W1 over random unit-direction projections.

    Deterministic given seed; in dimension 1 this reduces to the exact
    W1, the mean gap between sorted samples (projections are then +-1).
    """
    a, b = _as_samples(a), _as_samples(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample clouds must share a dimension")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"sample counts differ ({a.shape[0]} vs {b.shape[0]}); resample "
            "to a common size before comparing")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((projections, a.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(a @ dirs.T, axis=0)
    pb = np.sort(b @ dirs.T, axis=0)
    return float(np.mean(np.abs(pa - pb)))


# ---------------------------------------------------------------------------
# reference distributions


def grid_density_sampler(log_density, bounds, resolution: int, count: int,
                         seed: int) -> EmpiricalDistribution:
    """Inverse-CDF sampler for an unnormalized 2-D log density on a box.

    Cell masses are midpoint quadrature weights; samples land uniformly
    inside their cell, so the discretization error is O(cell size).
    """
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, resolution + 1)
    ys = np.linspace(y0, y1, resolution + 1)
    xc = 0.5 * (xs[:-1] + xs[1:])
    yc = 0.5 * (ys[:-1] + ys[1:])
    X, Y = np.meshgrid(xc, yc, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    logw = np.asarray(log_density(pts), dtype=float)
    w = np.exp(logw - logw.max())
    masses = w / w.sum()

    rng = np.random.default_rng(seed)
    idx = np.searchsorted(np.cumsum(masses), rng.random(count), side="right")
    idx = np.minimum(idx, len(masses) - 1)
    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    out = pts[idx] + (rng.random((count, 2)) - 0.5) * np.array([dx, dy])
    return EmpiricalDistribution(samples=out)


def reference_grid_sampler(d: int, beta: float, grid: int, count: int,
                           seed: int) -> EmpiricalDistribution:
    """Quadrature sampler for the Gibbs target exp(-beta L) in the plane.

    L depends on x only through r = ||x|| and the angle theta to z*, so
    in any R^n the pair (r, theta) has density proportional to
    exp(-beta L) r^(n-1) sin(theta)^(n-2).  Here n = 2 and z* = e1:
    grid_density_sampler draws (r, phi) on [0, 4] x [-pi, pi] at
    resolution grid, with signed angle phi = +-theta.
    """
    def log_density(pts):
        r = pts[:, 0]
        # theta_chain runs once per distinct grid angle, not per cell
        theta, back = np.unique(np.abs(pts[:, 1]), return_inverse=True)
        cos_td = np.cos(theta_chain(theta, d).theta_d)[back]
        return -beta * (0.5 * r * r - r * cos_td + 0.5) + np.log(r)

    r, phi = grid_density_sampler(
        log_density, ((0.0, 4.0), (-math.pi, math.pi)), resolution=grid,
        count=count, seed=seed).samples.T
    return EmpiricalDistribution(
        samples=np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1))


# ---------------------------------------------------------------------------
# chain diagnostics


def hitting_time(run: EnsembleRun, center, radius: float) -> np.ndarray:
    """Per chain, the step of its first recorded state inside the ball
    ||z - center|| <= radius, radius > 0 (-1 for a chain that never
    enters)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    inside = np.linalg.norm(run.states - np.asarray(center, dtype=float),
                            axis=-1) <= radius
    return np.where(inside.any(axis=0),
                    run.step_indices[np.argmax(inside, axis=0)], -1)


def tail_statistics(run: EnsembleRun, beta: float, eta: float,
                    A: float) -> TailReport:
    """Tail frequencies of the chain norm against both closed-form bounds.

    Escape: fraction of chains whose recorded norm ever drops below
    0.9 A - a at a step >= 3/eta, with a = 0.2, the bound
    exp(-beta a^2 / 4) and a 95% Wilson interval.  Norm growth: pooled
    frequency of ||x_t|| >= (1 - eta/2)^t ||x_0|| + C + C sqrt(n / beta)
    with C = 10.
    """
    a, norm_const = 0.2, 10.0
    t_min = math.ceil(3.0 / eta)
    threshold = 0.9 * A - a
    late = run.step_indices >= t_min
    if not np.any(late):
        raise ValueError(f"run has no recorded step >= 3/eta = {t_min}")
    norms = np.linalg.norm(run.states, axis=-1)        # (records, chains)
    chains, n = run.states.shape[1:]
    escape = int(np.count_nonzero(np.any(norms[late] < threshold, axis=0)))
    growth = ((1.0 - eta / 2.0) ** run.step_indices[:, None] * norms[0]
              + norm_const + norm_const * math.sqrt(n / beta))
    lo, hi = _wilson_interval(escape, chains)
    return TailReport(escape_frequency=escape / chains,
                      escape_bound=math.exp(-beta * a * a / 4.0),
                      escape_ci_low=lo, escape_ci_high=hi,
                      norm_exceed_frequency=int(np.sum(norms >= growth))
                      / norms.size)


def min_hessian_eig(x, z_star, d: int, n: int):
    """Smallest eigenvalue of the idealized-loss Hessian at x != 0.

    Exact from the polar coefficients: the smaller of the radial and
    tangential ones and, for n >= 3, the (n-2)-fold coefficient of the
    rotational directions.  n must equal x.shape[-1]; the result has the
    leading shape of x (shape () for one point).
    """
    if np.shape(x)[-1:] != (n,):
        raise ValueError(f"x has shape {np.shape(x)}, expected (..., {n})")
    c_rr, c_tt, c_psi = ideal_hessian(x, z_star, d)
    lam_min = 0.5 * (c_rr + c_tt) - np.abs(0.5 * (c_rr - c_tt))
    return np.minimum(lam_min, c_psi) if n >= 3 else lam_min


def potential_drift(x, z_star, d: int, params: ModifiedLossParams,
                    eta: float, trials: int, seed: int) -> DriftReport:
    """Monte-Carlo mean of V(one Langevin step from x) - V(x).

    The chain steps on the smoothed loss at step size eta >= 0 (0 is the
    zero-step sanity limit) and inverse temperature params.beta, the one
    script_LV uses; V is the drift potential.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if eta < 0:
        raise ValueError("step size must be nonnegative")
    x = np.asarray(x, dtype=float)
    v0 = potential(x, z_star, d, params)[0]
    _, g = modified_loss(x, z_star, d, params)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((trials, x.shape[0]))
    x1 = x - eta * g + math.sqrt(2.0 * eta / params.beta) * noise
    v1 = potential(x1, z_star, d, params)[0]
    delta = v1 - v0
    mean = float(np.mean(delta))
    sem = float(np.std(delta, ddof=1) / math.sqrt(trials))
    return DriftReport(mean_delta=mean, ci_low=mean - _Z95 * sem,
                       ci_high=mean + _Z95 * sem)


def discretization_gap(potential_grad, z0, eta: float, refinement: int,
                       T_steps: int, trials: int, seed: int,
                       beta: float = 1.0) -> float:
    """Time-averaged E||coarse - fine|| on a shared Brownian path.

    The coarse chain steps at eta; the fine chain at eta / refinement with
    the same Brownian increments, summed exactly per coarse step.  The
    distance is averaged over every fine time in the horizon, with the
    coarse chain embedded piecewise-constantly, which is the quantity the
    step-size coupling bound controls uniformly in time; it scales as
    sqrt(eta) through the within-step diffusion wiggle.  (The endpoint-only
    gap at shared grid points is smaller, order eta, because additive
    noise cancels in the synchronous difference.)  refinement = 1 gives a
    bitwise-zero gap.  Trials run batched on one stream; the potential
    oracle must accept batched states.  The loop is its own, not
    samplers._chain: the two chains must share summed Brownian increments.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    z0 = np.asarray(z0, dtype=float)
    rng = np.random.default_rng(seed)
    Zc = np.tile(z0, (trials, 1))
    Zf = Zc.copy()
    root = math.sqrt(2.0 / beta)
    dt = eta / refinement
    acc = 0.0
    for _ in range(T_steps):
        dB = math.sqrt(dt) * rng.standard_normal((refinement, trials,
                                                  z0.shape[0]))
        for j in range(refinement - 1):
            _, gf = potential_grad(Zf)
            Zf = Zf - dt * gf + root * dB[j]
            acc += float(np.mean(np.linalg.norm(Zc - Zf, axis=1)))
        _, gf = potential_grad(Zf)
        Zf = Zf - dt * gf + root * dB[refinement - 1]
        _, gc = potential_grad(Zc)
        Zc = Zc - eta * gc + root * dB.sum(axis=0)
        acc += float(np.mean(np.linalg.norm(Zc - Zf, axis=1)))
    return acc / (T_steps * refinement)
