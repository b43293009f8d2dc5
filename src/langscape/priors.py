"""Analytic latent priors: isotropic Gaussian mixtures.

A Gaussian mixture with per-component isotropic covariance has its
log-density and score in closed form.  It stands in for a trained score
model in the samplers: same interface, zero approximation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMixturePrior",
    "gmm_log_density_and_score",
    "sample_prior",
]


@dataclass(frozen=True)
class GaussianMixturePrior:
    """Mixture of isotropic Gaussians N(mean_j, var_j I) with weights w_j."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float, ndmin=2)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1 or mu.shape[0] != w.shape[0] or v.shape != w.shape:
            raise ValueError("weights, means, variances must have matching counts")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if np.any(v <= 0):
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def components(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def standard(cls, p: int) -> "GaussianMixturePrior":
        return cls(weights=np.array([1.0]), means=np.zeros((1, p)),
                   variances=np.array([1.0]))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis.

    The maxima are left out of the sum s and m counts them; the result is
    log1p(s / m) + log(m) + max (s / m is skipped when s == 0), the
    operations of the reference the tests match bit for bit.
    """
    a_max = a.max(axis=-1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=-1,
                                                          keepdims=True)
        s = np.where(s == 0, s, s / m)
        return (np.log1p(s) + np.log(m) + a_max)[..., 0]


def gmm_log_density_and_score(prior: GaussianMixturePrior, z):
    """log p(z) and its gradient, stabilized with log-sum-exp.

    The score is the responsibility-weighted average of the component
    scores (mean_j - z) / var_j.  z is a batch (..., p), a single point
    (p,) being a batch of one: log p has the leading shape of z.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != prior.dim:
        raise ValueError(f"z has dimension {z.shape[-1]}, prior is {prior.dim}-d")
    p = prior.dim
    diff = z[..., None, :] - prior.means          # (..., J, p)
    sq = np.sum(diff * diff, axis=-1)             # (..., J)
    v = prior.variances
    log_comp = (np.log(prior.weights) - 0.5 * sq / v
                - 0.5 * p * np.log(2.0 * math.pi * v))
    logp = _logsumexp(log_comp)
    resp = np.exp(log_comp - logp[..., None])     # responsibilities
    return logp, np.sum(resp[..., None] * (-diff / v[:, None]), axis=-2)


def sample_prior(prior: GaussianMixturePrior, count: int, seed: int) -> np.ndarray:
    """Draw count i.i.d. samples: component index, then a Gaussian draw."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(prior.components, size=count, p=prior.weights)
    eps = rng.standard_normal((count, prior.dim))
    return prior.means[idx] + np.sqrt(prior.variances[idx])[:, None] * eps
