import math

import numpy as np
import pytest
from scipy.stats import binomtest

from langscape import diagnostics as diag
from langscape import landscape as ls
from langscape import samplers as smp

from oracles import (fd_hessian, mean_abs_coordinate_exact,
                     quadrature_moments_2d, sorted_w1_1d)

SEED = 60221

# frozen Beta-moment value for E|v_1|, v uniform on the sphere in R^8
MEAN_ABS_COORD_8 = 0.29102618165375147


# ---------------------------------------------------------------------------
# transport distances


def test_sliced_w1_rejects_unequal_counts():
    with pytest.raises(ValueError, match="sample counts differ"):
        diag.sliced_w1([0.0, 1.0], [0.0], projections=4, seed=SEED)


def test_sliced_w1_collapses_to_exact_in_1d():
    rng = np.random.default_rng(SEED + 1)
    a = rng.standard_normal((50, 1))
    b = rng.standard_normal((50, 1)) + 1.0
    sliced = diag.sliced_w1(a, b, projections=16, seed=SEED + 2)
    assert sliced == pytest.approx(sorted_w1_1d(a[:, 0], b[:, 0]), rel=1e-12)


def test_sliced_w1_point_masses_match_beta_moment():
    # delta at 0 vs delta at e1 in R^8: every projection contributes
    # |v_1|, whose spherical mean is the frozen Gamma-ratio constant
    assert MEAN_ABS_COORD_8 == pytest.approx(mean_abs_coordinate_exact(8),
                                             rel=1e-12)
    a = np.zeros((40, 8))
    b = np.zeros((40, 8))
    b[:, 0] = 1.0
    est = diag.sliced_w1(a, b, projections=4096, seed=SEED + 3)
    assert est == pytest.approx(MEAN_ABS_COORD_8, abs=0.01)


def test_sliced_w1_detects_translation():
    rng = np.random.default_rng(SEED + 4)
    a = rng.standard_normal((300, 3))
    b = a + np.array([0.5, 0.0, 0.0])
    d0 = diag.sliced_w1(a, a.copy(), projections=64, seed=SEED + 5)
    d1 = diag.sliced_w1(a, b, projections=64, seed=SEED + 5)
    assert d0 == pytest.approx(0.0, abs=1e-12)
    assert d1 > 0.1


# ---------------------------------------------------------------------------
# reference samplers


def test_grid_density_sampler_gaussian_moments():
    def log_density(pts):
        return -0.5 * np.sum((pts - np.array([0.4, -0.2])) ** 2, axis=-1) \
            / 0.3**2

    dist = diag.grid_density_sampler(log_density, ((-2.0, 3.0), (-2.5, 2.0)),
                                     resolution=250, count=40_000,
                                     seed=SEED + 8)
    assert dist.samples.shape == (40_000, 2)
    assert np.allclose(dist.samples.mean(axis=0), [0.4, -0.2], atol=0.01)
    assert np.allclose(dist.samples.std(axis=0), 0.3, atol=0.01)


def test_reference_grid_sampler_moments_match_cartesian_quadrature():
    # the oracle integrates exp(-beta L) on a Cartesian node grid; the
    # sampler draws from polar midpoint cells.  Over seeds 0-999 the
    # largest mean gap was 4.50 SE and the largest covariance gap 2.77%
    # of sqrt(var_i var_j); the bounds sit beyond both.
    beta, count = 40.0, 40_000
    zs = np.array([1.0, 0.0])
    mean, cov = quadrature_moments_2d(
        lambda pts: -beta * ls.ideal_loss(pts, zs, 2),
        ((-2.5, 2.5), (-2.5, 2.5)))
    s = diag.reference_grid_sampler(2, beta, grid=192, count=count,
                                    seed=SEED + 10).samples
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(s.mean(axis=0) - mean) <= 5.0 * sd / math.sqrt(count))
    assert np.all(np.abs(np.cov(s.T) - cov) <= 0.035 * np.outer(sd, sd))


def test_reference_grid_sampler_concentrates_at_minimizer():
    dist = diag.reference_grid_sampler(2, 250.0, grid=200, count=4000,
                                       seed=SEED + 9)
    assert dist.samples.shape == (4000, 2)
    mean = dist.samples.mean(axis=0)
    assert np.linalg.norm(mean - np.array([1.0, 0.0])) < 0.05


# ---------------------------------------------------------------------------
# interval and tail statistics


def test_wilson_interval_against_scipy():
    for k, n in ((0, 50), (3, 50), (25, 50), (49, 50), (50, 50)):
        lo, hi = diag._wilson_interval(k, n)
        ref = binomtest(k, n).proportion_ci(confidence_level=0.95,
                                            method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-10)
        assert hi == pytest.approx(ref.high, abs=1e-10)


def _run(states):
    """An EnsembleRun over (records, chains, dim) states, one per step."""
    states = np.asarray(states, dtype=float)
    records, chains = states.shape[:2]
    return smp.EnsembleRun(states=states, losses=np.zeros((records, chains)),
                           step_indices=np.arange(records),
                           aborted_at=np.full(chains, -1))


def test_hitting_time_first_entry():
    states = np.array([[2.0, 0.0], [1.5, 0.0], [1.05, 0.0], [1.0, 0.0]])
    # chain 1 runs the same path backwards, so it starts inside
    run = _run(np.stack([states, states[::-1]], axis=1))
    assert list(diag.hitting_time(run, np.array([1.0, 0.0]), 0.1)) == [2, 0]
    assert list(diag.hitting_time(run, np.array([-5.0, 0.0]), 0.1)) \
        == [-1, -1]


def test_hitting_time_rejects_nonpositive_radius():
    run = _run(np.zeros((2, 1, 2)))
    with pytest.raises(ValueError, match="radius"):
        diag.hitting_time(run, np.zeros(2), 0.0)


def test_tail_statistics_counts_escapes():
    # chains of constant norm: 2 of 5 sit below the escape threshold
    eta, beta, A = 0.1, 16.0, 1.0
    thresh = 0.9 * A - 0.2
    t_min = math.ceil(3.0 / eta)
    steps = t_min + 5
    norms = np.array([0.95, 0.9, 0.5, 0.3, 0.8])
    states = np.zeros((steps + 1, len(norms), 2))
    states[..., 0] = norms
    rep = diag.tail_statistics(_run(states), beta=beta, eta=eta, A=A)
    assert rep.escape_frequency == pytest.approx(2.0 / 5.0)
    assert rep.escape_bound == pytest.approx(math.exp(-beta * 0.04 / 4.0))
    lo, hi = diag._wilson_interval(2, 5)
    assert rep.escape_ci_low == pytest.approx(lo)
    assert rep.escape_ci_high == pytest.approx(hi)
    # constant norms never exceed the growing norm bound
    assert rep.norm_exceed_frequency == 0.0


def test_tail_statistics_requires_late_records():
    with pytest.raises(ValueError):
        diag.tail_statistics(_run(np.zeros((3, 1, 2))), beta=1.0, eta=0.1,
                             A=1.0)


# ---------------------------------------------------------------------------
# curvature and drift


def test_min_hessian_eig_matches_dense_eigensolver():
    # one batch per n: off-axis points plus on-axis points at theta = 0
    # and theta = pi; each row equals its single-point call
    rng = np.random.default_rng(SEED + 10)
    for n in (2, 3, 5):
        zs = rng.standard_normal(n)
        zs /= np.linalg.norm(zs)
        points = [0.5 * zs, -0.7 * zs, -1.6 * zs]
        for _ in range(6):
            x = rng.standard_normal(n)
            x *= rng.uniform(0.3, 2.0) / np.linalg.norm(x)
            if np.linalg.norm(x - zs) < 0.05:
                continue
            points.append(x)
        batch = diag.min_hessian_eig(np.array(points), zs, 2, n)
        assert batch.shape == (len(points),)
        for x, got in zip(points, batch):
            one = diag.min_hessian_eig(x, zs, 2, n)
            assert np.shape(one) == ()
            assert got == pytest.approx(one, rel=1e-12)
            H_fd = fd_hessian(lambda p: ls.ideal_gradient(p, zs, 2), x)
            want = float(np.linalg.eigvalsh(H_fd).min())
            assert got == pytest.approx(want, abs=1e-5)


def test_min_hessian_eig_at_minimizer_is_one():
    zs = np.array([1.0, 0.0, 0.0])
    assert diag.min_hessian_eig(zs, zs, 3, 3) == pytest.approx(1.0,
                                                               abs=1e-12)


def test_min_hessian_eig_rejects_a_wrong_n():
    zs = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="expected"):
        diag.min_hessian_eig(zs, zs, 3, 2)


def test_potential_drift_zero_step_is_zero():
    zs = np.zeros(8)
    zs[0] = 1.0
    params = ls.ModifiedLossParams.for_depth(2, beta=100.0)
    x = -ls.saddle_radius(2) * zs
    rep = diag.potential_drift(x, zs, 2, params, eta=0.0, trials=200,
                               seed=SEED + 11)
    assert rep.mean_delta == 0.0
    assert rep.ci_low == 0.0 and rep.ci_high == 0.0


def test_potential_drift_negative_at_saddle():
    # high beta, small eta: the one-step drift of the potential is
    # negative with the confidence interval clear of zero
    n = 50
    zs = np.zeros(n)
    zs[0] = 1.0
    params = ls.ModifiedLossParams.for_depth(2, beta=500.0)
    x = -ls.saddle_radius(2) * zs
    rep = diag.potential_drift(x, zs, 2, params, eta=1e-3, trials=40_000,
                               seed=SEED + 12)
    assert rep.mean_delta < 0.0
    assert rep.ci_high < 0.0


def test_potential_drift_rejects_tiny_trials():
    zs = np.array([1.0, 0.0])
    params = ls.ModifiedLossParams.for_depth(2)
    with pytest.raises(ValueError):
        diag.potential_drift(np.array([0.5, 0.0]), zs, 2, params, eta=1e-3,
                             trials=50, seed=0)


# ---------------------------------------------------------------------------
# discretization gap


def _unit_quad(Z):
    return 0.5 * np.sum(Z * Z, axis=-1), Z


def test_discretization_gap_zero_at_refinement_one():
    gap = diag.discretization_gap(_unit_quad, np.ones(3), eta=0.05,
                                  refinement=1, T_steps=30, trials=50,
                                  seed=SEED + 13, beta=2.0)
    assert gap == 0.0


def test_discretization_gap_scales_like_sqrt_eta():
    coarse = diag.discretization_gap(_unit_quad, np.ones(3), eta=0.1,
                                     refinement=32, T_steps=30, trials=150,
                                     seed=SEED + 14, beta=4.0)
    fine = diag.discretization_gap(_unit_quad, np.ones(3), eta=0.025,
                                   refinement=32, T_steps=120, trials=150,
                                   seed=SEED + 15, beta=4.0)
    assert coarse > fine > 0.0
    assert 1.5 <= coarse / fine <= 2.8


def _no_chains():
    """A hand-built run with two records and no chains."""
    return smp.EnsembleRun(states=np.zeros((2, 0, 2)), losses=np.zeros((2, 0)),
                           step_indices=np.array([0, 1000]),
                           aborted_at=np.zeros(0, dtype=int))


_QUAD = (lambda Z: (0.5 * np.sum(Z * Z, axis=-1), Z))


@pytest.mark.parametrize("call, match", [
    (lambda: diag.EmpiricalDistribution(samples=[[np.nan, 0.0]]),
     "nonempty finite"),
    (lambda: diag.EmpiricalDistribution(samples=np.zeros((0, 2))),
     "nonempty finite"),
    (lambda: diag.tail_statistics(_no_chains(), beta=1.0, eta=0.01, A=0.3),
     "at least one trial"),
    (lambda: diag.sliced_w1(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)),
                            projections=4, seed=0), r"\(count, dim\) matrix"),
    (lambda: diag.sliced_w1(np.zeros((3, 2)), np.zeros((3, 3)),
                            projections=4, seed=0), "share a dimension"),
    (lambda: diag.potential_drift(np.array([0.5, 0.0]), np.array([1.0, 0.0]),
                                  2, ls.ModifiedLossParams.for_depth(2),
                                  eta=-1e-3, trials=100, seed=0),
     "step size must be nonnegative"),
    (lambda: diag.discretization_gap(_QUAD, np.ones(2), eta=0.1, refinement=0,
                                     T_steps=1, trials=2, seed=0),
     "refinement must be >= 1"),
], ids=["non-finite-samples", "no-samples", "no-chains", "3-d-cloud",
        "dimension-mismatch", "negative-drift-step", "zero-refinement"])
def test_diagnostics_reject_invalid_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()
