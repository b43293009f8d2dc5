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
from .samplers import EnsembleRun, LangevinConfig

__all__ = [
    "EmpiricalDistribution",
    "RegionSpec",
    "TailReport",
    "DriftReport",
    "sliced_w1",
    "wilson_interval",
    "grid_density_sampler",
    "polar_reference_masses",
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
class RegionSpec:
    """Euclidean ball with positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class TailReport:
    """Escape and norm-bound tail frequencies with 95% Wilson intervals."""

    escape_frequency: float
    escape_bound: float
    escape_ci_low: float
    escape_ci_high: float
    norm_exceed_frequency: float
    chains: int
    threshold: float
    t_min: int


@dataclass(frozen=True)
class DriftReport:
    """Monte-Carlo one-step potential drift with a 95% interval."""

    mean_delta: float
    ci_low: float
    ci_high: float
    trials: int
    eta: float


def wilson_interval(successes: int, n: int, z: float = _Z95):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
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


def polar_reference_masses(d: int, beta: float, grid: int, r_max: float = 4.0):
    """Normalized cell masses of exp(-beta L) on a polar (r, phi) grid.

    The target lives in the plane with z* = e1; phi in (-pi, pi] is the
    signed angle, theta = |phi|.  Returns (masses, r_edges, phi_edges)
    with masses of shape (grid, 2 grid) including the r Jacobian.
    """
    r_edges = np.linspace(0.0, r_max, grid + 1)
    phi_edges = np.linspace(-math.pi, math.pi, 2 * grid + 1)
    rc = 0.5 * (r_edges[:-1] + r_edges[1:])
    pc = 0.5 * (phi_edges[:-1] + phi_edges[1:])
    chain = theta_chain(np.abs(pc), d)
    R, CT = np.meshgrid(rc, np.cos(chain.theta_d), indexing="ij")
    L = 0.5 * R * R - R * CT + 0.5
    logw = -beta * L + np.log(R)
    w = np.exp(logw - logw.max())
    return w / w.sum(), r_edges, phi_edges


def reference_grid_sampler(d: int, beta: float, n: int, grid: int,
                           count: int, seed: int) -> EmpiricalDistribution:
    """Quadrature sampler for the Gibbs target exp(-beta L), plane only.

    Only n = 2 admits an exact tractable reference; higher dimensions are
    checked through scaling laws instead.  Inverse-CDF over polar cell
    masses with in-cell jitter; z* is the unit vector e1.
    """
    if n != 2:
        raise ValueError(f"reference sampler supports n=2 only, got n={n}")
    masses, r_edges, phi_edges = polar_reference_masses(d, beta, grid)
    flat = masses.ravel()
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(np.cumsum(flat), rng.random(count), side="right")
    idx = np.minimum(idx, flat.size - 1)
    ir, ip = np.unravel_index(idx, masses.shape)
    dr = r_edges[1] - r_edges[0]
    dp = phi_edges[1] - phi_edges[0]
    r = r_edges[ir] + rng.random(count) * dr
    phi = phi_edges[ip] + rng.random(count) * dp
    return EmpiricalDistribution(
        samples=np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1))


# ---------------------------------------------------------------------------
# chain diagnostics


def hitting_time(run: EnsembleRun, region: RegionSpec) -> np.ndarray:
    """Per chain, the step of its first recorded state inside the ball
    (-1 for a chain that never enters)."""
    inside = np.linalg.norm(run.states - region.center,
                            axis=-1) <= region.radius
    return np.where(inside.any(axis=0),
                    run.step_indices[np.argmax(inside, axis=0)], -1)


def tail_statistics(run: EnsembleRun, beta: float, eta: float, A: float,
                    a: float = 0.2, norm_const: float = 10.0) -> TailReport:
    """Tail frequencies of the chain norm against both closed-form bounds.

    Escape: fraction of chains whose recorded norm ever drops below
    0.9 A - a at a step >= 3/eta, with the bound exp(-beta a^2 / 4) and a
    95% Wilson interval.  Norm growth: pooled frequency of
    ||x_t|| >= (1 - eta/2)^t ||x_0|| + C + C sqrt(n / beta) with C = 10.
    """
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
    lo, hi = wilson_interval(escape, chains)
    return TailReport(escape_frequency=escape / chains,
                      escape_bound=math.exp(-beta * a * a / 4.0),
                      escape_ci_low=lo, escape_ci_high=hi,
                      norm_exceed_frequency=int(np.sum(norms >= growth))
                      / norms.size,
                      chains=chains, threshold=threshold, t_min=t_min)


def min_hessian_eig(x, z_star, d: int, n: int):
    """Smallest eigenvalue of the idealized-loss Hessian at x != 0.

    Exact from the polar coefficients: the smaller of the radial and
    tangential ones and, for n >= 3, the (n-2)-fold coefficient of the
    rotational directions.  A float for one point x of shape (n,), an
    array over the leading axes of a batch.
    """
    c_rr, c_tt, c_psi, _ = ideal_hessian(x, z_star, d, n)
    lam_min = 0.5 * (c_rr + c_tt) - np.abs(0.5 * (c_rr - c_tt))
    if n >= 3:
        lam_min = np.minimum(lam_min, c_psi)
    return float(lam_min) if np.ndim(x) == 1 else lam_min


def potential_drift(x, z_star, d: int, params: ModifiedLossParams,
                    cfg: LangevinConfig, trials: int,
                    eta_override: float | None = None) -> DriftReport:
    """Monte-Carlo mean of V(one Langevin step from x) - V(x).

    The chain steps on the smoothed loss; V is the drift potential.
    eta_override (allowed to be 0, unlike LangevinConfig) exists for the
    zero-step sanity limit.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    eta = cfg.eta if eta_override is None else eta_override
    if eta < 0:
        raise ValueError("step size must be nonnegative")
    x = np.asarray(x, dtype=float)
    v0 = potential(x, z_star, d, params)[0]
    _, g = modified_loss(x, z_star, d, params)
    rng = np.random.default_rng(cfg.seed)
    noise = rng.standard_normal((trials, x.shape[0]))
    x1 = x - eta * g + math.sqrt(2.0 * eta / cfg.beta) * noise
    v1 = potential(x1, z_star, d, params)[0]
    delta = v1 - v0
    mean = float(np.mean(delta))
    sem = float(np.std(delta, ddof=1) / math.sqrt(trials))
    return DriftReport(mean_delta=mean, ci_low=mean - _Z95 * sem,
                       ci_high=mean + _Z95 * sem, trials=trials, eta=eta)


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
    oracle must accept batched states.
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
