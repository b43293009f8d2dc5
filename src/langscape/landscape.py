"""Closed-form inversion landscape in polar coordinates.

The squared-error loss of inverting a deep random expansive ReLU generator
concentrates, as layer widths grow, around a rotationally symmetric function
of (r, theta) = (norm of the iterate, angle to the target z*).  This module
implements that limiting landscape exactly:

* the one-step angle map g(theta) = arccos(((pi-theta) cos(theta)
  + sin(theta)) / pi) and its d-fold composition theta_d with first and
  second derivatives (arccos closed forms on the whole array when every
  angle is mid-range, series patches within THETA_SWITCH of 0 and pi;
  ideal_loss, ideal_gradient and modified_loss run a first-order orbit,
  without g''),
* the idealized loss L(r, theta) = r^2/2 - r cos(theta_d) + 1/2 with
  gradient, polar Hessian coefficients and Laplacian,
* a piecewise-quadratic smooth step and the smoothed loss that replaces L
  by a constant bump xi near the origin,
* the drift potential V = Lhat - lambda cos(theta) step(r) 1(theta >= pi/2)
  and its chain generator script_LV = lap(V) - beta <grad Lhat, grad V>.

All scalar values are reported in units where ||z*|| = 1 (inputs are
rescaled internally).  Vector outputs are true ambient derivatives of the
reported scalar fields, so central finite differences agree for any
||z*||.  Every operation broadcasts over leading axes of ``x`` / ``theta``
and returns arrays: a single point x of shape (n,) is a batch of one,
whose scalar fields have shape ().  Every operation is a pure function:
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "THETA_SWITCH",
    "ThetaChain",
    "ModifiedLossParams",
    "theta_chain",
    "saddle_radius",
    "ideal_loss",
    "ideal_gradient",
    "ideal_hessian",
    "hessian_vector_product",
    "modified_loss",
    "potential",
]

# Below this angular distance from an endpoint the raw arccos formula is
# evaluated as a frozen Taylor series instead (the raw form is 0/0 at the
# endpoints and loses half the mantissa well before reaching them).
THETA_SWITCH = 1e-4

# Series coefficients of g(t) = t (1 + C1 t + C2 t^2 + C3 t^3 + C4 t^4)
# near t = 0; exact closed forms, truncation error < 1e-18 at the switch.
_C1 = -1.0 / (3.0 * math.pi)
_C2 = -1.0 / (18.0 * math.pi**2)
_C3 = -1.0 / (45.0 * math.pi) - 1.0 / (54.0 * math.pi**3)
_C4 = 1.0 / (90.0 * math.pi**2) - 5.0 / (648.0 * math.pi**4)


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class ThetaChain:
    """d-fold composition of the angle map with its theta-derivatives.

    theta_d = g^(d)(theta); theta_d_prime is the product of g' along the
    orbit (stays in [0, 1]); theta_d_double_prime <= 0 by concavity of g.
    Fields are arrays of the input's shape (shape () for one angle).
    """

    theta_d: np.ndarray
    theta_d_prime: np.ndarray
    theta_d_double_prime: np.ndarray


@dataclass(frozen=True)
class ModifiedLossParams:
    """Parameters of the smoothed loss and the drift potential.

    r0 is the outer radius of the origin bump (default cos(g^(d)(pi))/2,
    half the saddle radius); xi the bump height; lam the weight of the
    angular escape term; beta the inverse temperature used by script_LV.
    """

    r0: float
    xi: float = 10.0
    lam: float = 0.1
    beta: float = 1.0

    def __post_init__(self):
        if not (self.r0 > 0 and self.xi > 0 and self.lam > 0 and self.beta > 0):
            raise ValueError(
                "ModifiedLossParams requires r0, xi, lam, beta all positive"
            )

    @classmethod
    def for_depth(cls, d: int, xi: float = 10.0, lam: float = 0.1,
                  beta: float = 1.0) -> "ModifiedLossParams":
        """Half the saddle radius as r0; d >= 2, since at d = 1 the saddle
        sits at the origin (cos(g(pi)) = 0) and the plateau vanishes."""
        if d < 2:
            raise ValueError(f"depth must be >= 2, got {d}")
        return cls(r0=saddle_radius(d) / 2.0, xi=xi, lam=lam, beta=beta)


# ---------------------------------------------------------------------------
# angle map


def _span(a):
    """Least and greatest non-NaN entries of a (NaN when there are none)."""
    return (np.fmin.reduce(a, axis=None, initial=math.nan),
            np.fmax.reduce(a, axis=None, initial=math.nan))


def _mid_forms(t, second: bool = True):
    """g, g' and (if second, else None) g'' by the arccos closed forms,
    for angles at least THETA_SWITCH from both endpoints."""
    pt = math.pi - t
    ct, st = np.cos(t), np.sin(t)
    u = (pt * ct + st) / math.pi
    up = -pt * st / math.pi
    one_m_u2 = 1.0 - u * u
    den = np.sqrt(one_m_u2)
    gpp = None
    if second:
        upp = (st - pt * ct) / math.pi
        gpp = -(upp * one_m_u2 + u * up * up) / (one_m_u2 * den)
    return np.arccos(u), -up / den, gpp


def _g_core(th: np.ndarray, second: bool = True):
    """g, g', g'' (None unless second) on [0, pi]: the closed forms on the
    whole array if one min/max puts every angle (NaN aside) at least
    THETA_SWITCH from 0 and pi, else by mask beside the series patches."""
    t_min, t_max = _span(th)
    if t_min >= THETA_SWITCH and (math.pi - t_max) >= THETA_SWITCH:
        return _mid_forms(th, second)
    g, gp, gpp = np.zeros_like(th), np.zeros_like(th), np.zeros_like(th)

    lo = th < THETA_SWITCH
    hi = (math.pi - th) < THETA_SWITCH
    mid = ~(lo | hi)

    g[mid], gp[mid], gpp[mid] = _mid_forms(th[mid])
    t = th[lo]
    g[lo] = t * (1.0 + t * (_C1 + t * (_C2 + t * (_C3 + t * _C4))))
    gp[lo] = 1.0 + t * (2 * _C1 + t * (3 * _C2 + t * (4 * _C3 + t * (5 * _C4))))
    gpp[lo] = 2 * _C1 + t * (6 * _C2 + t * (12 * _C3 + t * (20 * _C4)))
    e = math.pi - th[hi]
    e2 = e * e
    u = e * e2 * (1.0 / 3.0 - e2 / 30.0 + e2 * e2 / 840.0) / math.pi
    g[hi] = math.pi / 2.0 - np.arcsin(u)
    gp[hi] = e2 * (1.0 - e2 / 6.0 + e2 * e2 / 120.0) / math.pi
    gpp[hi] = -e * (2.0 - 2.0 * e2 / 3.0 + e2 * e2 / 20.0) / math.pi

    return g, gp, gpp


def _orbit(T, d: int, second: bool) -> ThetaChain:
    """theta_chain without its angle checks, for float angles in [0, pi] or
    NaN (_polar_parts's); unless second, g'' and S are skipped (S None)."""
    if not isinstance(d, (int, np.integer)):
        raise TypeError("depth must be an integer")
    if d < 0:
        raise ValueError("depth must be nonnegative")
    P = np.ones_like(T)
    S = np.zeros_like(T) if second else None
    for _ in range(int(d)):
        g, gp, gpp = _g_core(T, second)
        S = gpp * P * P + gp * S if second else None
        P = gp * P
        T = g
    return ThetaChain(T, P, S)


def theta_chain(theta, d: int) -> ThetaChain:
    """Iterate the angle map d times, tracking first and second derivatives.

    Uses the recurrences T <- g(T), P <- g'(T) P, S <- g''(T) P^2 + g'(T) S,
    which keep P in [0, 1] and S <= 0 exactly (no cancelling divisions).
    Each step runs the closed forms on the whole array when every angle
    is mid-range, else patches angles near 0 or pi with series (_g_core).
    d = 0 returns the identity chain.  A NaN angle gives NaN fields; an
    infinite or out-of-range angle raises (checked before the depth).
    """
    T = np.array(theta, dtype=float)
    if np.any(np.isinf(T)):
        raise ValueError("angle must not be infinite")
    if np.any(T < 0.0) or np.any(T > math.pi):
        raise ValueError("angle outside the domain [0, pi]")
    return _orbit(T, d, True)


def saddle_radius(d: int) -> float:
    """cos(g^(d)(pi)): the distance from the origin to the saddle -A z*."""
    return math.cos(theta_chain(math.pi, int(d)).theta_d)


# ---------------------------------------------------------------------------
# polar frame


def _check_z_star(z_star) -> tuple[np.ndarray, float]:
    z = np.asarray(z_star, dtype=float)
    if z.ndim != 1:
        raise ValueError("z_star must be a 1-D vector")
    s = float(np.linalg.norm(z))
    if not (s > 0.0 and np.all(np.isfinite(z))):
        raise ValueError("z_star must be a finite nonzero vector")
    return z, s


def _polar_parts(x, z_star):
    """Broadcast helper: canonical radius, angle and the radial frame.

    Returns (x, scale, r, theta, rhat, zhat) where r = ||x|| / ||z*||,
    theta = atan2(||x_perp||, <x, zhat>) (stable at both endpoints), and
    rhat is x / ||x|| (zero vector where x = 0).
    """
    z, s = _check_z_star(z_star)
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != z.shape[0]:
        raise ValueError(
            f"x has last dimension {x.shape[-1]}, z_star has {z.shape[0]}"
        )
    zhat = z / s
    proj = x @ zhat
    perp = x - proj[..., None] * zhat
    pn = np.sqrt(np.add.reduce(perp * perp, axis=-1))
    theta = np.arctan2(pn, proj)
    r_amb = np.sqrt(np.add.reduce(x * x, axis=-1))
    safe = np.where(r_amb > 0.0, r_amb, 1.0)
    rhat = x / safe[..., None]
    return x, s, r_amb / s, theta, rhat, zhat


# ---------------------------------------------------------------------------
# idealized loss


def _tangential_ratio(theta, chain: ThetaChain):
    """sin(theta_d) theta_d' / sin(theta) with its analytic endpoint limits.

    This is the coefficient of (cos(theta) rhat - zhat) in the gradient; it
    tends to theta_d'^2 as theta -> 0 and to 0 as theta -> pi.
    """
    st = np.sin(theta)
    num = np.sin(chain.theta_d) * chain.theta_d_prime
    safe = np.where(st > 0.0, st, 1.0)
    limit = chain.theta_d_prime * chain.theta_d_prime
    return np.where(st > 0.0, num / safe, limit)


def ideal_loss(x, z_star, d: int):
    """Idealized inversion loss L = r^2/2 - r cos(theta_d) + 1/2.

    r and the value are in units of ||z*||: L(z*) = 0, L(0) = 1/2.
    Broadcasts over leading axes of x.
    """
    _, _, r, theta, _, _ = _polar_parts(x, z_star)
    c = _orbit(theta, d, False)
    return 0.5 * r * r - r * np.cos(c.theta_d) + 0.5


def _ambient_gradient(coef_r, coef_z, rhat, zhat, s, r):
    """(coef_r rhat - coef_z zhat) / ||z*||, the zero vector where x = 0.

    Every gradient here has this form: with thetahat = (cos(theta) rhat
    - zhat) / sin(theta), coef_z is the tangential coefficient over
    sin(theta) and coef_r the radial one plus coef_z cos(theta).
    """
    grad = (coef_r[..., None] * rhat - coef_z[..., None] * zhat) / s
    return np.where((r > 0.0)[..., None], grad, 0.0)


def ideal_gradient(x, z_star, d: int):
    """Ambient gradient of ideal_loss.

    Equals ((r - cos(theta_d)) rhat + sin(theta_d) theta_d' thetahat)
    / ||z*||, assembled directly from x and z* without rotations; the
    tangential term vanishes analytically at theta in {0, pi}, and the
    zero vector is returned at x = 0 (subgradient convention).
    """
    x, s, r, theta, rhat, zhat = _polar_parts(x, z_star)
    c = _orbit(theta, d, False)
    ratio = _tangential_ratio(theta, c)
    coef_r = (r - np.cos(c.theta_d)) + ratio * np.cos(theta)
    return _ambient_gradient(coef_r, ratio, rhat, zhat, s, r)


def ideal_hessian(x, z_star, d: int):
    """Polar Hessian coefficients and Laplacian of ideal_loss at x != 0.

    Returns (c_rr, c_tt, c_psi, laplacian): in an orthonormal basis
    (rhat, thetahat, psi_1..psi_{n-2}) the Hessian is diag(c_rr, c_tt) on
    the first block and c_psi I on the complement (no mixed term, since
    L_rtheta = L_theta / r), and laplacian = c_rr + c_tt + (n-2) c_psi
    with n = x.shape[-1].  Coefficients are ambient second derivatives,
    i.e. the canonical values divided by ||z*||^2.
    """
    x, s, r, theta, _, _ = _polar_parts(x, z_star)
    if np.any(r == 0.0):
        raise ValueError("Hessian undefined at x = 0")
    c = _orbit(theta, d, True)
    cos_td = np.cos(c.theta_d)
    P = c.theta_d_prime
    s2 = s * s
    c_rr = np.ones_like(r) / s2
    c_tt = (r - cos_td + cos_td * P * P
            + np.sin(c.theta_d) * c.theta_d_double_prime) / r / s2
    c_psi = ((r - cos_td) / r
             + _tangential_ratio(theta, c) * np.cos(theta) / r) / s2
    return c_rr, c_tt, c_psi, c_rr + c_tt + (x.shape[-1] - 2) * c_psi


def hessian_vector_product(x, z_star, d: int, v):
    """Apply the Hessian of ideal_loss at x to v, row by row.

    x and v share one shape (..., n).  Assembled from the polar
    coefficients in the frame rhat, thetahat = (cos(theta) rhat - zhat)
    / sin(theta); on the z* axis (sin(theta) < 1e-8) thetahat is set to
    zero, which leaves the axis-symmetric form: there the tangential and
    psi coefficients coincide analytically.
    """
    x, _, _, theta, rhat, zhat = _polar_parts(x, z_star)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError("x and v must share one shape (..., n)")
    c_rr, c_tt, c_psi = (c[..., None] for c in
                         ideal_hessian(x, z_star, d)[:3])
    st = np.sin(theta)[..., None]
    off = st >= 1e-8
    that = np.where(off, np.cos(theta)[..., None] * rhat - zhat, 0.0) \
        / np.where(off, st, 1.0)
    vr = np.sum(v * rhat, axis=-1, keepdims=True)
    vt = np.sum(v * that, axis=-1, keepdims=True)
    rest = v - vr * rhat - vt * that
    return c_rr * vr * rhat + c_tt * vt * that + c_psi * rest


# ---------------------------------------------------------------------------
# smooth step, smoothed loss, potential


def _step_parts(a: float, b: float, r):
    """(h, h_r, h_rr) of the piecewise-quadratic step from 0 at r <= a to
    1 at r >= b; knots take the value of the closed-left piece.  When every
    r is at or past b the flat pieces (1, 0, 0) are returned unmasked."""
    if np.min(r, initial=math.inf) >= b:       # false for a NaN radius
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
    inv = 1.0 / ((b - a) * (b - a))
    mid = 0.5 * (a + b)
    rise = (r > a) & (r <= mid)
    fall = (r > mid) & (r < b)
    t = np.where(rise, r - a, np.where(fall, b - r, 0.0))
    sq = 2.0 * t * t * inv
    h = np.where(rise, sq, np.where(fall, 1.0 - sq, np.where(r >= b, 1.0, 0.0)))
    h_rr = np.where(rise, 4.0 * inv, np.where(fall, -4.0 * inv, 0.0))
    return h, 4.0 * t * inv, h_rr


def _smoothed_parts(r, theta, c: ThetaChain, params: ModifiedLossParams):
    """Polar pieces of the smoothed loss Lhat at canonical r, given the
    angle chain c of theta (first order suffices).

    Lhat = L h1 + xi (1 - h2) with h1 = step(r0/3, 2 r0/3), h2 = step(0, r0).
    Returns (h1, ratio_h, Lhat, Lhat_r, Lhat_rr): ratio_h = h1 times
    the tangential ratio is the gradient's coef_z, and Lhat_rr uses the full
    product rule L_rr h1 + 2 L_r h1_r + L h1_rr - xi h2_rr with L_rr = 1.
    """
    r0 = params.r0
    cos_td = np.cos(c.theta_d)
    L = 0.5 * r * r - r * cos_td + 0.5
    L_r = r - cos_td
    h1, h1_r, h1_rr = _step_parts(r0 / 3.0, 2.0 * r0 / 3.0, r)
    h2, h2_r, h2_rr = _step_parts(0.0, r0, r)
    val = L * h1 + params.xi * (1.0 - h2)
    Lhat_r = L_r * h1 + L * h1_r - params.xi * h2_r
    Lhat_rr = h1 + 2.0 * L_r * h1_r + L * h1_rr - params.xi * h2_rr
    return h1, h1 * _tangential_ratio(theta, c), val, Lhat_r, Lhat_rr


def modified_loss(x, z_star, d: int, params: ModifiedLossParams):
    """Smoothed loss: equals ideal_loss for r >= r0, flattens to xi at 0.

    Returns (value, gradient).  For r >= r0 both outputs reproduce
    ideal_loss / ideal_gradient exactly (the step factors are exactly 1/0
    there); at x = 0 the value is xi and the gradient the zero vector.
    Only theta_d and theta_d' are read, so the angle orbit is first order.
    """
    _, s, r, theta, rhat, zhat = _polar_parts(x, z_star)
    _, ratio_h, val, Lhat_r, _ = _smoothed_parts(
        r, theta, _orbit(theta, d, False), params)
    return val, _ambient_gradient(Lhat_r + ratio_h * np.cos(theta), ratio_h,
                                  rhat, zhat, s, r)


def potential(x, z_star, d: int, params: ModifiedLossParams):
    """Drift potential V and its chain generator.

    V = Lhat - lam cos(theta) step(r0, 3 r0/2)(r) on theta >= pi/2 and
    V = Lhat otherwise.  Returns (V, grad_V, script_LV) where
    script_LV = lap(V) - beta <grad Lhat, grad V> with beta from params;
    the angular term makes script_LV strictly negative near the saddle.
    Scalar fields broadcast; x = 0 is handled by the analytic limits.
    """
    x, s, r, theta, rhat, zhat = _polar_parts(x, z_star)
    n = x.shape[-1]
    lam = params.lam

    c = _orbit(theta, d, True)
    h1, ratio_h, Lhat, Lhat_r, Lhat_rr = _smoothed_parts(r, theta, c, params)
    h3, h3_r, h3_rr = _step_parts(params.r0, 1.5 * params.r0, r)
    ind = np.where(theta >= math.pi / 2.0, 1.0, 0.0)
    ct = np.cos(theta)
    st = np.sin(theta)

    V = Lhat - lam * ct * h3 * ind

    # polar gradient components; the angular-term tangential part is
    # (lam h3 / r)(cos rhat - zhat), free of sin division
    pos = r > 0.0
    rsafe = np.where(pos, r, 1.0)
    W_r = -lam * ct * h3_r * ind
    w_tan = lam * h3 / rsafe * ind            # W_theta / (r sin(theta))
    coef_z = ratio_h + w_tan
    grad_V = _ambient_gradient(Lhat_r + W_r + coef_z * ct, coef_z,
                               rhat, zhat, s, r)

    # Laplacians; near the origin Lhat is the smooth quadratic
    # xi (1 - 2 r^2 / r0^2), so at r = 0 the Laplacian is -4 n xi / r0^2
    # (the piecewise knot convention would wrongly report 0 there)
    cos_td = np.cos(c.theta_d)
    P = c.theta_d_prime
    Lhat_tt = (r * cos_td * P * P
               + r * np.sin(c.theta_d) * c.theta_d_double_prime) * h1
    q = ratio_h * ct                          # Lhat_theta cot(theta) / r
    Lhat_r_over_r = np.where(pos, Lhat_r / rsafe, 0.0)
    lap_Lhat = Lhat_rr + Lhat_r_over_r \
        + np.where(pos, Lhat_tt / (rsafe * rsafe), 0.0) \
        + (n - 2) * (Lhat_r_over_r + np.where(pos, q / rsafe, 0.0))
    lap_Lhat = np.where(pos, lap_Lhat,
                        -4.0 * n * params.xi / (params.r0 * params.r0))
    lap_W = (-lam * ct * (h3_rr + (n - 1) * h3_r / rsafe)
             + (n - 1) * lam * ct * h3 / (rsafe * rsafe)) * ind
    lap_W = np.where(pos, lap_W, 0.0)         # h3 vanishes near the origin

    # <grad Lhat, grad V> in polar components
    L_tan = ratio_h * st                      # Lhat_theta / r
    inner = Lhat_r * (Lhat_r + W_r) + L_tan * (L_tan + w_tan * st)

    return V, grad_V, (lap_Lhat + lap_W - params.beta * inner) / (s * s)
