import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from langscape import landscape as ls

from oracles import (angle_map_highprec, fd_gradient, fd_hvp, fd_hessian,
                     fd_laplacian)

SEED = 20240817

# frozen from the extended-precision oracle (angle_map_highprec iterated)
ARCCOS_INV_PI = 1.2468502198629159
G3_PI = 1.0544212639539021
G4_PI = 0.9212493237558593


# ---------------------------------------------------------------------------
# the scalar angle map


def _g(theta):
    """One step of the angle map: the depth-1 chain (g, g', g'')."""
    c = ls.theta_chain(theta, 1)
    return c.theta_d, c.theta_d_prime, c.theta_d_double_prime


def test_angle_map_fixed_values():
    g0, gp0, gpp0 = _g(0.0)
    assert g0 == 0.0
    assert gp0 == 1.0
    assert gpp0 == pytest.approx(-2.0 / (3.0 * math.pi), abs=1e-14)

    g_pi, gp_pi, gpp_pi = _g(math.pi)
    assert g_pi == pytest.approx(math.pi / 2, abs=1e-15)
    assert gp_pi == 0.0
    assert gpp_pi == 0.0

    g_half, _, _ = _g(math.pi / 2)
    assert g_half == pytest.approx(ARCCOS_INV_PI, abs=1e-14)


def test_angle_map_against_highprec_direct_formula():
    # windows chosen so the extended-precision reference itself is accurate
    for theta in np.concatenate([np.linspace(2e-5, 9.9e-5, 40),     # series
                                 np.linspace(1.01e-4, 3.0, 60),     # direct
                                 math.pi - np.geomspace(1e-3, 0.5, 40)]):
        expected = angle_map_highprec(theta)
        got = _g(float(theta))[0]
        assert got == pytest.approx(expected, rel=2e-9, abs=1e-12)


def test_angle_map_derivatives_match_finite_differences():
    h1, h2 = 1e-6, 1e-4     # wider stencil for the second difference
    for theta in np.linspace(1e-3, math.pi - 1e-3, 50):
        gp = (angle_map_highprec(theta + h1)
              - angle_map_highprec(theta - h1)) / (2 * h1)
        gpp = (angle_map_highprec(theta + h2) - 2 * angle_map_highprec(theta)
               + angle_map_highprec(theta - h2)) / (h2 * h2)
        _, lib_gp, lib_gpp = _g(float(theta))
        assert lib_gp == pytest.approx(gp, abs=5e-10)
        assert lib_gpp == pytest.approx(gpp, abs=1e-5)


def test_angle_map_shape_invariants():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        theta = np.sort(rng.uniform(0.0, math.pi, size=200))
        g, gp, gpp = _g(theta)
        assert np.all(np.diff(g) > 0)          # strictly increasing
        assert np.all(g <= theta + 1e-15)
        assert np.all((gp >= 0.0) & (gp <= 1.0))
        assert np.all(gpp <= 1e-15)


def test_angle_map_rejects_out_of_domain():
    # theta_chain is the one entry that takes angles (the orbit behind the
    # oracles trusts _polar_parts's), so it checks them at every depth,
    # before the depth itself
    for bad, message in [
            (math.inf, "must not be infinite"),
            (-math.inf, "must not be infinite"),
            ([0.5, math.inf], "must not be infinite"),
            (-0.1, "outside the domain"),
            (math.pi + 0.1, "outside the domain"),
            (np.nextafter(math.pi, 4.0), "outside the domain"),
            ([[0.5, 1.0], [-1e-300, 2.0]], "outside the domain")]:
        for d in (0, 1, 2, -1):
            with pytest.raises(ValueError, match=message):
                ls.theta_chain(bad, d)
    with pytest.raises(ValueError, match="nonnegative"):
        ls.theta_chain([0.0, math.pi, math.nan], -1)
    with pytest.raises(TypeError, match="integer"):
        ls.theta_chain(0.5, 2.0)


_ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 1.7e308, -1.7e308]),
    st.floats())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_polar_angles_lie_in_the_domain_or_are_nan(n, data):
    # the orbit behind every oracle takes _polar_parts's angles unchecked
    z = np.array(data.draw(st.lists(st.floats(allow_nan=False,
                                              allow_infinity=False),
                                     min_size=n, max_size=n)))
    x = np.array(data.draw(st.lists(
        st.lists(_ANY_FLOAT, min_size=n, max_size=n), min_size=1, max_size=6)))
    with np.errstate(all="ignore"):
        assume(0.0 < np.linalg.norm(z) < math.inf)
        theta = ls._polar_parts(x, z)[3]
        single = ls._polar_parts(x[0], z)[3]
        ls.theta_chain(theta, 2)        # passes the public angle check
    for t in (theta, single):
        assert np.all(np.isnan(t) | ((t >= 0.0) & (t <= math.pi)))


def test_z_star_needs_a_nonzero_finite_norm():
    # (1e200, 1e200) is finite but its norm overflows: ideal_loss(z*, z*)
    # was NaN and modified_loss (NaN, 0) instead of an error
    params = ls.ModifiedLossParams.for_depth(2)
    for bad in ([1e200, 1e200], [0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0]):
        z = np.array(bad)
        for oracle in (lambda: ls.ideal_loss(z, z, 2),
                       lambda: ls.modified_loss(z, z, 2, params)):
            with pytest.raises(ValueError, match="finite norm"):
                oracle()
    z = np.array([1e153, 1e153])
    assert ls.ideal_loss(z, z, 2) == 0.0


def test_theta_chain_propagates_nan():
    # a non-finite state has a NaN angle: it must reach the caller, whose
    # divergence test then sees it, not raise inside the angle map
    theta = np.array([0.5, np.nan, 3.0])
    fields = ("theta_d", "theta_d_prime", "theta_d_double_prime")
    for d in (1, 3):
        ch = ls.theta_chain(theta, d)
        finite = ls.theta_chain(theta[[0, 2]], d)
        for f in fields:
            assert np.isnan(getattr(ch, f)[1])
            assert np.array_equal(getattr(ch, f)[[0, 2]], getattr(finite, f))


# ---------------------------------------------------------------------------
# iterated chain


def test_theta_chain_depth_zero_is_identity():
    ch = ls.theta_chain(0.7, 0)
    assert ch.theta_d == 0.7
    assert ch.theta_d_prime == 1.0
    assert ch.theta_d_double_prime == 0.0


def test_theta_chain_matches_iterated_map():
    # frozen from iterating the extended-precision direct formula
    ch3 = ls.theta_chain(math.pi, 3)
    assert ch3.theta_d == pytest.approx(G3_PI, abs=1e-13)
    ch4 = ls.theta_chain(math.pi, 4)
    assert ch4.theta_d == pytest.approx(G4_PI, abs=1e-13)


def test_theta_chain_derivative_by_finite_differences():
    h1, h2 = 1e-6, 1e-4
    for d in (1, 2, 3, 5):
        for theta in (0.3, 1.0, 2.0, 2.9):
            def gd(t, depth=d):
                for _ in range(depth):
                    t = angle_map_highprec(t)
                return t
            fd_p = (gd(theta + h1) - gd(theta - h1)) / (2 * h1)
            fd_pp = (gd(theta + h2) - 2 * gd(theta) + gd(theta - h2)) \
                / (h2 * h2)
            ch = ls.theta_chain(theta, d)
            assert ch.theta_d_prime == pytest.approx(fd_p, abs=1e-9)
            assert ch.theta_d_double_prime == pytest.approx(fd_pp, abs=1e-5)


def test_theta_chain_invariants():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        theta = float(rng.uniform(0.0, math.pi))
        d = int(rng.integers(1, 9))
        ch = ls.theta_chain(theta, d)
        assert 0.0 <= ch.theta_d_prime <= 1.0
        assert ch.theta_d_double_prime <= 1e-15
        assert 0.0 <= ch.theta_d <= theta + 1e-15


def test_saddle_radius_closed_form_at_depth_two():
    # cos(g(g(pi))) = cos(pi/2 - asin(1/pi)) = 1/pi exactly in reals
    assert ls.saddle_radius(2) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert ls.saddle_radius(3) == pytest.approx(math.cos(G3_PI), abs=1e-13)
    assert ls.saddle_radius(4) == pytest.approx(math.cos(G4_PI), abs=1e-13)


# ---------------------------------------------------------------------------
# loss, gradient, Hessian


def test_a_fractional_depth_is_rejected_by_every_entry():
    # saddle_radius truncated its depth: saddle_radius(2.7) was
    # saddle_radius(2), and for_depth(2.5) gave depth 2's r0
    x, zs = np.array([0.3, 0.4]), np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    for call in (lambda: ls.saddle_radius(2.7),
                 lambda: ls.ModifiedLossParams.for_depth(2.5),
                 lambda: ls.theta_chain(1.0, 2.5),
                 lambda: ls.modified_loss(x, zs, 2.5, params)):
        with pytest.raises(TypeError, match="depth must be an integer"):
            call()
    assert ls.saddle_radius(np.int64(3)) == ls.saddle_radius(3)


def test_ideal_loss_at_landmarks():
    zs = np.array([2.0, 0.0, 0.0])            # non-unit scale
    assert ls.ideal_loss(zs, zs, 3) == pytest.approx(0.0, abs=1e-15)
    assert ls.ideal_loss(np.zeros(3), zs, 3) == pytest.approx(0.5, abs=1e-15)
    # antipode at depth d sits at radius cos(g^d(pi)) with angle pi
    d = 2
    A = ls.saddle_radius(d)
    x = -A * zs
    ch = ls.theta_chain(math.pi, d)
    expected = 0.5 * A * A - A * math.cos(ch.theta_d) + 0.5
    assert ls.ideal_loss(x, zs, d) == pytest.approx(expected, abs=1e-14)


def test_ideal_gradient_matches_finite_differences():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        zs = rng.standard_normal(n)
        zs *= rng.uniform(0.5, 2.0) / np.linalg.norm(zs)
        x = rng.standard_normal(n) * rng.uniform(0.2, 2.0)
        if min(np.linalg.norm(x - zs), np.linalg.norm(x)) < 0.05:
            continue
        fd = fd_gradient(lambda p: ls.ideal_loss(p, zs, d), x)
        got = ls.ideal_gradient(x, zs, d)
        worst = max(worst, float(np.linalg.norm(fd - got)
                                 / max(np.linalg.norm(got), 1e-4)))
    assert worst < 1e-6


def test_gradient_zero_at_origin_and_minimizer():
    zs = np.array([0.6, 0.8])
    for d in (1, 2, 4):
        assert np.linalg.norm(ls.ideal_gradient(np.zeros(2), zs, d)) == 0.0
        assert np.linalg.norm(ls.ideal_gradient(zs, zs, d)) < 1e-15


def test_hessian_vector_product_matches_fd_hessian():
    # one batch per draw: an off-axis point and two on-axis points at
    # theta = 0 and theta = pi, each applied to every basis vector
    rng = np.random.default_rng(SEED + 3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        zs = rng.standard_normal(n)
        zs /= np.linalg.norm(zs)
        x = rng.standard_normal(n)
        x *= rng.uniform(0.3, 2.0) / np.linalg.norm(x)
        if np.linalg.norm(x - zs) < 0.05:
            continue
        points = (x, 0.6 * zs, -1.3 * zs)
        X = np.repeat(np.array(points), n, axis=0)
        V = np.tile(np.eye(n), (len(points), 1))
        HV = ls.hessian_vector_product(X, zs, d, V)
        for row_x, v, hv in zip(X, V, HV):
            one = ls.hessian_vector_product(row_x, zs, d, v)
            assert np.linalg.norm(hv - one) <= 1e-12 * np.linalg.norm(one)
        for p, H in zip(points, HV.reshape(len(points), n, n)):
            H_fd = fd_hessian(lambda q: ls.ideal_gradient(q, zs, d), p)
            assert np.allclose(H, H.T, atol=1e-11)
            assert np.max(np.abs(H - H_fd)) < 1e-5
            # c_psi spans the n - 2 directions off the (x, z*) plane
            c_rr, c_tt, c_psi = ls.ideal_hessian(p, zs, d)
            assert c_rr + c_tt + (n - 2) * c_psi \
                == pytest.approx(float(np.trace(H)), abs=1e-10)


def test_hessian_identity_at_minimizer():
    zs = np.array([0.0, 1.0, 0.0, 0.0])
    for d in (1, 2, 3):
        H = np.column_stack([ls.hessian_vector_product(zs, zs, d, e)
                             for e in np.eye(4)])
        assert np.max(np.abs(H - np.eye(4))) < 1e-12


def test_hessian_raises_at_origin():
    zs = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ls.ideal_hessian(np.zeros(2), zs, 2)


def test_loss_scales_with_target_norm():
    # canonical loss is invariant under joint rescaling of x and z_star
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        zs = rng.standard_normal(3)
        zs /= np.linalg.norm(zs)
        x = rng.standard_normal(3)
        c = rng.uniform(0.5, 3.0)
        a = ls.ideal_loss(x, zs, 2)
        b = ls.ideal_loss(c * x, c * zs, 2)
        assert b == pytest.approx(a, rel=1e-12)
        ga = ls.ideal_gradient(x, zs, 2)
        gb = ls.ideal_gradient(c * x, c * zs, 2)
        assert np.allclose(gb, ga / c, rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# smooth step


def _step(r: float):
    """The step with knots a = 1, b = 2 at one radius: (h, h_r, h_rr)."""
    h, h_r, h_rr = ls._step_parts(1.0, 2.0, np.array([r]))
    return float(h[0]), float(h_r[0]), float(h_rr[0])


def test_smooth_step_values():
    # quadratic ramp: 0 at or below a, 1 above b, half way at the midpoint
    assert _step(0.0)[0] == 0.0
    assert _step(1.0)[0] == 0.0
    assert _step(2.0)[0] == pytest.approx(1.0)
    assert _step(1.5)[0] == pytest.approx(0.5)
    assert _step(1.25)[0] == pytest.approx(0.125)
    assert _step(1.75)[0] == pytest.approx(0.875)


def test_smooth_step_derivatives_and_continuity():
    r = np.linspace(0.0, 3.0, 4001)
    h, h_r, h_rr = ls._step_parts(1.0, 2.0, r)
    assert np.all(np.diff(h) >= 0.0)
    assert np.max(np.abs(np.diff(h))) < 2e-3   # no jumps on a fine grid
    assert h.min() == 0.0 and h.max() == pytest.approx(1.0)
    # first derivative against finite differences away from the knots
    for x in (1.1, 1.4, 1.6, 1.9):
        fd = (_step(x + 1e-7)[0] - _step(x - 1e-7)[0]) / 2e-7
        assert _step(x)[1] == pytest.approx(fd, abs=1e-6)
        fd2 = (_step(x + 1e-4)[0] - 2 * _step(x)[0]
               + _step(x - 1e-4)[0]) / 1e-8
        assert _step(x)[2] == pytest.approx(fd2, abs=1e-5)


# ---------------------------------------------------------------------------
# modified loss and potential


def test_modified_loss_agrees_with_ideal_outside_plateau():
    zs = np.array([1.0, 0.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    rng = np.random.default_rng(SEED + 5)
    for _ in range(200):
        x = rng.standard_normal(3)
        x *= rng.uniform(params.r0, 2.5) / np.linalg.norm(x)
        val, grad = ls.modified_loss(x, zs, 2, params)
        assert val == ls.ideal_loss(x, zs, 2)
        assert np.array_equal(grad, ls.ideal_gradient(x, zs, 2))


def test_modified_loss_plateau_at_origin():
    zs = np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    val, grad = ls.modified_loss(np.zeros(2), zs, 2, params)
    assert val == pytest.approx(params.xi)
    assert np.linalg.norm(grad) == 0.0


def test_modified_loss_gradient_matches_fd():
    zs = np.array([0.0, 1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    rng = np.random.default_rng(SEED + 6)
    for _ in range(80):
        x = rng.standard_normal(3)
        x *= rng.uniform(0.02, 1.5) / np.linalg.norm(x)
        fd = fd_gradient(lambda p: ls.modified_loss(p, zs, 2, params)[0], x,
                         h=1e-7)
        _, got = ls.modified_loss(x, zs, 2, params)
        assert np.linalg.norm(fd - got) < 1e-5 * max(1.0, np.linalg.norm(got))


def test_potential_is_modified_loss_where_escape_term_is_off():
    # V = Lhat bit for bit wherever theta < pi/2 or r <= r0: both come
    # from one shared derivation of the smoothed loss
    rng = np.random.default_rng(SEED + 9)
    for n, d, scale in ((2, 2, 1.0), (3, 2, 2.5), (5, 3, 0.7), (8, 4, 1.0)):
        zs = rng.standard_normal(n)
        zs *= scale / np.linalg.norm(zs)
        params = ls.ModifiedLossParams.for_depth(d, xi=4.0, lam=0.3)
        X = rng.standard_normal((400, n)) * rng.uniform(0.0, 2.0, (400, 1))
        X = np.concatenate([X, [np.zeros(n), zs, 0.5 * zs, -0.99 * params.r0
                                * zs, -0.5 * params.r0 * zs]])
        r = np.linalg.norm(X, axis=1) / scale
        off = (X @ zs > 0.0) | (r <= params.r0)
        X = X[off]
        val, _ = ls.modified_loss(X, zs, d, params)
        V, _ = ls.potential(X, zs, d, params)
        assert len(X) > 100
        assert V.tobytes() == val.tobytes()
        for x in X[-5:]:
            one_val, _ = ls.modified_loss(x, zs, d, params)
            one_V, _ = ls.potential(x, zs, d, params)
            assert np.float64(one_V).tobytes() == np.float64(one_val).tobytes()
        # and the escape term is on behind the saddle, past r0
        x = -1.25 * params.r0 * zs
        assert ls.potential(x, zs, d, params)[0] \
            > ls.modified_loss(x, zs, d, params)[0]


def test_modified_loss_row_with_inf_is_non_finite():
    zs = np.array([0.0, 1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    X = np.array([[0.3, -0.4, 0.2], [np.inf, 0.0, 0.0], [0.1, 0.2, 0.3]])
    with np.errstate(invalid="ignore"):
        val, grad = ls.modified_loss(X, zs, 2, params)
    assert not (np.isfinite(val[1]) and np.all(np.isfinite(grad[1])))
    val_ok, grad_ok = ls.modified_loss(X[[0, 2]], zs, 2, params)
    assert np.allclose(val[[0, 2]], val_ok, rtol=1e-12, atol=0.0)
    assert np.allclose(grad[[0, 2]], grad_ok, rtol=1e-12, atol=0.0)


def _flat_rows_match_the_general_path(flat, general, zs, d, params,
                                      monkeypatch):
    """modified_loss on flat (every radius at or past r0) runs no smoothing
    step, and its rows equal, byte for byte, the rows of general (a batch
    of the same size that the steps run on) wherever the inputs agree."""
    def no_step(*args):
        raise AssertionError("a smoothing step ran on a flat batch")

    with monkeypatch.context() as m:
        m.setattr(ls, "_step_parts", no_step)
        with np.errstate(over="ignore", invalid="ignore"):
            got = ls.modified_loss(flat, zs, d, params)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = ls.modified_loss(general, zs, d, params)
    same = np.all(flat.view(np.int64) == general.view(np.int64), axis=1)
    assert 0 < same.sum() < len(flat)
    for a, b in zip(got, ref):
        assert a[same].tobytes() == b[same].tobytes()
    return got


def _flat_batch(zs, params, rows=8):
    """Rows at canonical radii in [1.2 r0, 3] and mid-range angles, with
    theta = 0 and theta = pi in rows 1 and 2."""
    rng = np.random.default_rng(SEED + 40)
    s = np.linalg.norm(zs)
    theta = rng.uniform(0.1, math.pi - 0.1, rows)
    theta[1:3] = 0.0, math.pi
    X = rng.uniform(1.2 * params.r0, 3.0, (rows, 1)) * s \
        * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    X[1:3] = 2.0 * zs, -zs
    return X


def test_flat_path_at_the_knot(monkeypatch):
    # the smallest canonical radius is exactly r0: both steps are flat
    zs = np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    X = _flat_batch(zs, params)
    X[0] = 0.0, params.r0
    assert ls._polar_parts(X, zs)[2].min() == params.r0
    general = X.copy()
    general[-1] = 0.0                         # r = 0 < r0: the steps run
    _flat_rows_match_the_general_path(X, general, zs, 2, params, monkeypatch)


def test_flat_path_keeps_the_nan_gradient_of_an_overflowing_row(
        monkeypatch):
    # L overflows to +inf, and L * h1_r = inf * 0 makes the gradient NaN
    zs = np.array([1e-10, 0.0])
    params = ls.ModifiedLossParams.for_depth(3)
    X = _flat_batch(zs, params)
    X[0] = 1e150, 3e149
    general = X.copy()
    general[-1] = 0.0
    val, grad = _flat_rows_match_the_general_path(X, general, zs, 3, params,
                                                  monkeypatch)
    assert val[0] == math.inf and np.all(np.isnan(grad[0]))
    assert np.all(np.isfinite(val[1:])) and np.all(np.isfinite(grad[1:]))


def test_flat_path_rows_match_a_batch_with_a_nan_row(monkeypatch):
    # a NaN radius fails the flat test, so the NaN batch runs the steps
    zs = np.array([0.6, -0.8])
    params = ls.ModifiedLossParams.for_depth(2)
    X = _flat_batch(zs, params)
    general = X.copy()
    general[0] = math.nan
    _flat_rows_match_the_general_path(X, general, zs, 2, params, monkeypatch)
    with np.errstate(invalid="ignore"):
        val, grad = ls.modified_loss(general, zs, 2, params)
    # r > 0 is false for a NaN radius, so the x = 0 mask zeroes the row
    assert np.isnan(val[0]) and grad[0].tolist() == [0.0, 0.0]


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), n=st.sampled_from([2, 3, 10]),
       blocks=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_mid_range_rows_keep_their_bytes_beside_endpoint_rows(d, n, blocks,
                                                              seed):
    # rows whose angles are all mid-range and radii all past the steps'
    # outer knots give the same bytes alone as beside rows at theta = 0,
    # theta = pi and r < r0, which force the masked, series and step paths.
    # The rows fill whole blocks of eight: BLAS computes x @ zhat for a
    # row left over past the last block with another kernel, whose last
    # bit can differ, so a row count with a remainder would test BLAS.
    rows = 8 * blocks
    rng = np.random.default_rng(seed)
    zs = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
    s = np.linalg.norm(zs)
    zhat = zs / s
    params = ls.ModifiedLossParams.for_depth(max(d, 2), beta=40.0)
    theta = rng.uniform(0.01, math.pi - 0.01, rows)
    radius = s * rng.uniform(1.6 * params.r0, 3.0, rows)
    w = rng.standard_normal((rows + 1, n))
    w -= (w @ zhat)[:, None] * zhat
    v = w / np.linalg.norm(w, axis=1, keepdims=True)
    X = radius[:, None] * (np.cos(theta)[:, None] * zhat
                           + np.sin(theta)[:, None] * v[:rows])
    extra = np.stack([zs, -zs, 0.5 * params.r0 * s * v[rows]])
    Xall = np.concatenate([X, extra])
    for f in (lambda A: ls.modified_loss(A, zs, d, params),
              lambda A: ls.potential(A, zs, d, params),
              lambda A: (ls.ideal_loss(A, zs, d),),
              lambda A: (ls.ideal_gradient(A, zs, d),)):
        for alone, beside in zip(f(X), f(Xall)):
            assert alone.tobytes() == beside[:rows].tobytes()
    ends = [0.0, math.pi, 0.5 * ls.THETA_SWITCH, math.pi - 1e-6]
    alone = ls.theta_chain(theta, d)
    beside = ls.theta_chain(np.concatenate([theta, ends]), d)
    for field in ("theta_d", "theta_d_prime", "theta_d_double_prime"):
        assert getattr(alone, field).tobytes() \
            == getattr(beside, field)[:rows].tobytes()


def test_generator_functional_matches_fd_laplacian():
    zs = np.array([0.0, 1.0, 0.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2, beta=7.0)
    rng = np.random.default_rng(SEED + 8)
    n = 4
    for _ in range(12):
        x = rng.standard_normal(n)
        x *= rng.uniform(0.2, 1.8) / np.linalg.norm(x)

        def lhat(p):
            return ls.modified_loss(p, zs, 2, params)[0]

        lap = fd_laplacian(lhat, x, h=2e-5)
        _, script = ls.potential(x, zs, 2, params)
        _, grad_lhat = ls.modified_loss(x, zs, 2, params)
        grad_v = fd_gradient(lambda p: ls.potential(p, zs, 2, params)[0], x,
                             h=1e-7)

        # recompute script from its definition pieces
        def w_part(p):
            return ls.potential(p, zs, 2, params)[0] \
                - ls.modified_loss(p, zs, 2, params)[0]

        lap_w = fd_laplacian(w_part, x, h=2e-5)
        expected = lap + lap_w - params.beta * float(grad_lhat @ grad_v)
        assert script == pytest.approx(expected, rel=5e-4, abs=5e-4)


def test_generator_functional_landmarks():
    # value n at the minimizer, exact plateau value at the origin
    for n in (2, 5, 50):
        zs = np.zeros(n)
        zs[0] = 1.0
        params = ls.ModifiedLossParams.for_depth(2)
        _, script = ls.potential(zs, zs, 2, params)
        assert script == pytest.approx(float(n), abs=1e-9)
        _, script0 = ls.potential(np.zeros(n), zs, 2, params)
        assert script0 == pytest.approx(-4.0 * n * params.xi
                                        / (params.r0 * params.r0), rel=1e-12)


def test_modified_params_validation():
    with pytest.raises(ValueError):
        ls.ModifiedLossParams(r0=-1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: ls.ModifiedLossParams.for_depth(1), "depth must be >= 2, got 1"),
    (lambda: ls.ideal_loss(np.ones(2), np.eye(2), 2),
     "z_star must be a 1-D vector"),
    (lambda: ls.ideal_loss(np.ones(3), np.array([1.0, 0.0]), 2),
     "x has last dimension 3, z_star has 2"),
    (lambda: ls.hessian_vector_product(np.ones(2), np.array([1.0, 0.0]), 2,
                                       np.ones(3)),
     "x and v must share one shape"),
], ids=["depth-1-bump", "2-d-target", "dimension-mismatch", "hvp-shape"])
def test_landscape_rejects_invalid_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()
