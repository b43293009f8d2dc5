"""Independent reference implementations used to validate the package.

Everything here is deliberately written with different algorithms than the
library code: finite differences instead of analytic derivatives, extended
precision instead of series branches, bisection on the threshold instead
of sort-and-threshold projection, quadrature instead of sampling.  Tests
compare library output against these, never against the library itself.
"""

import math

import numpy as np


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_hvp(grad, x, v, h=1e-6):
    """Central-difference Hessian-vector product from a gradient function."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (grad(x + h * v) - grad(x - h * v)) / (2 * h)


def fd_hessian(grad, x, h=1e-6):
    n = len(x)
    H = np.column_stack([fd_hvp(grad, x, e, h) for e in np.eye(n)])
    return 0.5 * (H + H.T)


def fd_laplacian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    total = 0.0
    fx = f(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        total += (f(x + e) - 2.0 * fx + f(x - e)) / (h * h)
    return total


def angle_map_highprec(theta):
    """The angle map evaluated directly in 80-bit precision.

    Near the endpoints the direct formula cancels catastrophically in
    float64; in extended precision it stays accurate to ~1e-9 relative,
    which is enough to validate the library's series branches.
    """
    t = np.longdouble(theta)
    pi = np.longdouble(np.pi)
    u = ((pi - t) * np.cos(t) + np.sin(t)) / pi
    return float(np.arccos(np.minimum(u, np.longdouble(1.0))))


def l1_projection_bisection(point, center, radius):
    """Euclidean projection onto an l1 ball by bisection on the threshold.

    Outside the ball the projection soft-thresholds w = point - center at
    the tau with sum(max(|w_i| - tau, 0)) = radius.  That sum falls
    monotonically in tau, so halving [0, max |w_i|] until the midpoint
    equals an end pins tau to the spacing of floats, with no sorting.
    """
    point = np.asarray(point, dtype=float)
    center = np.asarray(center, dtype=float)
    w = point - center
    a = np.abs(w)
    if a.sum() <= radius:
        return point.copy()
    lo, hi = 0.0, float(a.max())
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return center + np.sign(w) * np.maximum(a - hi, 0.0)


def wdc_deviation_svd(W, x, y):
    """The WDC deviation from an explicit row sum and an SVD norm.

    The swap isometry is written in closed form from xhat and yhat,
    M = ((xhat yhat^T + yhat xhat^T) - cos t (xhat xhat^T + yhat yhat^T))
    / sin^2 t (angle t in (0, pi)), instead of in a rotated plane basis.
    """
    W = np.asarray(W, dtype=float)
    xh = np.asarray(x, dtype=float) / np.linalg.norm(x)
    yh = np.asarray(y, dtype=float) / np.linalg.norm(y)
    k = W.shape[1]
    c = float(xh @ yh)
    t = math.acos(c)
    M = ((np.outer(xh, yh) + np.outer(yh, xh))
         - c * (np.outer(xh, xh) + np.outer(yh, yh))) / math.sin(t) ** 2
    Q = (math.pi - t) / (2 * math.pi) * np.eye(k) \
        + math.sin(t) / (2 * math.pi) * M
    S = np.zeros((k, k))
    for w in W:
        if w @ x > 0 and w @ y > 0:
            S += np.outer(w, w)
    return float(np.linalg.norm(S - Q, 2))


def sorted_w1_1d(a, b):
    """1-D transport cost equals the mean gap of sorted samples."""
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def mean_abs_coordinate_of_unit_vector(n, samples=4_000_000, seed=123):
    """Monte-Carlo estimate of E|v_1| for a uniform unit vector in R^n."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((samples, n))
    return float(np.mean(np.abs(v[:, 0]) / np.linalg.norm(v, axis=1)))


def mean_abs_coordinate_exact(n):
    """Closed form via the Beta distribution: v_1^2 ~ Beta(1/2, (n-1)/2)."""
    return math.gamma(n / 2) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2))


def ar1_stationary_variance(eta, beta):
    """Stationary variance of x <- (1 - eta) x + sqrt(2 eta / beta) u."""
    rho = 1.0 - eta
    return (2.0 * eta / beta) / (1.0 - rho * rho)


def gaussian_posterior_moments(y, sigma, prior_var=1.0):
    """Posterior of z ~ N(0, v I) given y = z + sigma * noise."""
    v_post = 1.0 / (1.0 / prior_var + 1.0 / sigma**2)
    mean = v_post * y / sigma**2
    return mean, v_post


def quadrature_moments_2d(log_density, box, resolution=400):
    """Mean and covariance of an unnormalized 2-D density on a grid."""
    (x_lo, x_hi), (y_lo, y_hi) = box
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    logw = log_density(pts)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ pts
    centered = pts - mean
    cov = (centered * w[:, None]).T @ centered
    return mean, cov


def gmm_logpdf_direct(weights, means, variances, x):
    """Log density of an isotropic Gaussian mixture, no shared code paths."""
    x = np.asarray(x, dtype=float)
    p = means.shape[1]
    total = 0.0
    for w, mu, v in zip(weights, means, variances):
        sq = float(np.sum((x - mu) ** 2))
        total += w * math.exp(-sq / (2 * v)) / (2 * math.pi * v) ** (p / 2)
    return math.log(total)
