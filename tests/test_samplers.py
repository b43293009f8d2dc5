import math

import numpy as np
import pytest

from langscape import generator as gen
from langscape import priors
from langscape import samplers as smp

from oracles import (ar1_stationary_variance, gaussian_posterior_moments,
                     l1_projection_slsqp)

SEED = 8128

# frozen oracle value: stationary variance of the unit-quadratic chain at
# eta = 0.01, beta = 10 (ar1_stationary_variance confirms it live below)
AR1_VAR = 0.10050251256281407


def _quad(a):
    a = np.asarray(a, dtype=float)

    def pg(z):
        return 0.5 * np.sum(a * z * z, axis=-1), a * z
    return pg


# ---------------------------------------------------------------------------
# Langevin core


def test_langevin_config_validation():
    with pytest.raises(ValueError):
        smp.LangevinConfig(eta=0.0, beta=1.0, steps=10, seed=0)
    with pytest.raises(ValueError):
        smp.LangevinConfig(eta=0.1, beta=-1.0, steps=10, seed=0)
    with pytest.raises(ValueError):
        smp.LangevinConfig(eta=0.1, beta=1.0, steps=0, seed=0)
    cfg = smp.LangevinConfig(eta=0.1, beta=4.0, steps=10, seed=0)
    assert cfg.sigma_step == pytest.approx(math.sqrt(2 * 0.1 / 4.0))


def test_trajectory_recording_grid():
    pg = _quad(np.ones(2))
    cfg = smp.LangevinConfig(eta=0.01, beta=5.0, steps=25, seed=SEED,
                             record_every=10)
    run = smp.run_langevin_ensemble(pg, np.array([[1.0, -1.0]]), cfg)
    # step 0 and the final step are always recorded
    assert list(run.step_indices) == [0, 10, 20, 25]
    assert run.states.shape == (4, 1, 2)
    assert run.losses.shape == (4, 1)
    assert np.array_equal(run.snapshot(25), run.states[-1])
    assert list(run.aborted_at) == [-1]


def test_langevin_stationary_variance_matches_ar1_oracle():
    # unit quadratic potential: each coordinate is an AR(1) chain whose
    # stationary variance has the closed form (2 eta / beta) / (1 - rho^2)
    eta, beta = 0.01, 10.0
    assert AR1_VAR == pytest.approx(ar1_stationary_variance(eta, beta),
                                    rel=1e-15)
    pg = _quad(np.ones(8))
    cfg = smp.LangevinConfig(eta=eta, beta=beta, steps=60_000, seed=SEED + 1,
                             record_every=5)
    run = smp.run_langevin_ensemble(pg, np.zeros((1, 8)), cfg)
    tail = run.states[len(run.states) // 2:, 0]
    pooled_var = float(np.mean(tail * tail))    # mean is 0 by symmetry
    assert pooled_var == pytest.approx(AR1_VAR, rel=0.05)


def test_langevin_zero_temperature_limit_is_gd():
    # huge beta: noise sigma ~ 1e-9, trajectory tracks exact GD closely
    a = np.array([1.0, 2.0])
    pg = _quad(a)
    z0 = np.array([1.0, 1.0])
    cfg = smp.LangevinConfig(eta=0.1, beta=1e18, steps=50, seed=SEED + 2,
                             record_every=1)
    run = smp.run_langevin_ensemble(pg, z0[None], cfg)
    exact = z0 * (1.0 - 0.1 * a) ** 50
    assert np.allclose(run.states[-1, 0], exact, atol=1e-7)


def _chains(run):
    """(states, step_indices, aborted_at) of every chain of a run."""
    if isinstance(run, smp.Trajectory):
        return [(run.states, run.step_indices, run.aborted_at)]
    return [(run.states[:, c], run.step_indices, run.aborted_at[c])
            for c in range(run.states.shape[1])]


_DIVERGING = {
    "run_langevin_ensemble": lambda pg, z0, cfg: smp.run_langevin_ensemble(
        pg, z0[None], cfg),
    "run_gd": lambda pg, z0, cfg: smp.run_gd(pg, z0, cfg.eta, cfg.steps),
    "coupled_pair": lambda pg, z0, cfg: smp.coupled_pair(pg, z0, -z0, cfg),
}


@pytest.mark.parametrize("run", _DIVERGING.values(), ids=_DIVERGING.keys())
def test_langevin_abort_on_divergence(run):
    # unstable step size on a steep quadratic blows up to non-finite
    pg = _quad(np.array([1e8]))
    cfg = smp.LangevinConfig(eta=1.0, beta=1.0, steps=400, seed=SEED + 3,
                             record_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        chains = _chains(run(pg, np.array([1.0]), cfg))
    for states, step_indices, aborted_at in chains:
        assert aborted_at is not None and aborted_at > 0
        assert np.all(np.isfinite(states))
        # the chain stopped at its state of the step before the abort
        last = states[step_indices == aborted_at - 1]
        assert np.array_equal(states[-1], last[0])


def test_ensemble_divergent_chain_stops_others_run_on():
    # chain 0's curvature makes eta unstable for it alone
    a = np.ones((5, 1))
    pg_benign = _quad(a)
    a_bad = a.copy()
    a_bad[0] = 1e8
    pg_bad = _quad(a_bad)
    z0 = np.tile(np.array([1.0, -0.5, 0.25]), (5, 1))
    cfg = smp.LangevinConfig(eta=0.05, beta=2.0, steps=300, seed=SEED + 28,
                             record_every=10)
    ref = smp.run_langevin_ensemble(pg_benign, z0, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        run = smp.run_langevin_ensemble(pg_bad, z0, cfg)
    stop = run.aborted_at[0]
    assert stop > 0
    assert list(run.aborted_at[1:]) == [-1] * 4
    assert list(ref.aborted_at) == [-1] * 5
    assert np.all(np.isfinite(run.states))
    frozen = run.states[run.step_indices >= stop, 0]
    assert len(frozen) > 0 and np.all(frozen == frozen[0])
    # one RNG stream draws all rows, so the other chains are unaffected
    assert np.array_equal(run.step_indices, ref.step_indices)
    assert np.array_equal(run.states[:, 1:], ref.states[:, 1:])
    assert np.array_equal(run.losses[:, 1:], ref.losses[:, 1:])


def test_ensemble_matches_single_chain_api():
    pg = _quad(np.ones(3))
    z0 = np.zeros((5, 3))
    cfg = smp.LangevinConfig(eta=0.05, beta=2.0, steps=40, seed=SEED + 4,
                             record_every=8)
    run = smp.run_langevin_ensemble(pg, z0, cfg)
    assert run.states.shape[1:] == (5, 3)
    snap = run.snapshot(40)
    assert snap.shape == (5, 3)
    assert np.array_equal(snap, run.states[-1])
    # a single chain is a batch of one, on the same recording grid
    one = smp.run_langevin_ensemble(pg, z0[2:3], cfg)
    assert one.states.shape == (len(run.step_indices), 1, 3)
    assert np.array_equal(one.step_indices, run.step_indices)
    with pytest.raises(KeyError):
        run.snapshot(41)


# ---------------------------------------------------------------------------
# gradient descent


def test_run_gd_quadratic_convergence():
    a = np.array([0.5, 1.5, 1.0])
    pg = _quad(a)
    traj = smp.run_gd(pg, np.array([2.0, -1.0, 0.5]), eta=0.4, steps=200,
                      record_every=50)
    assert np.linalg.norm(traj.states[-1]) < 1e-10
    assert traj.losses[-1] < 1e-20


# ---------------------------------------------------------------------------
# l1 projection


def test_project_l1_matches_constrained_solver():
    rng = np.random.default_rng(SEED + 5)
    for dim in (2, 3, 4, 6):
        for _ in range(12):
            center = rng.standard_normal(dim)
            radius = float(rng.uniform(0.3, 2.0))
            point = center + rng.standard_normal(dim) * 2.0
            spec = smp.L1ProjectionSpec(center=center, radius=radius)
            got = smp.project_l1(point, spec)
            assert np.sum(np.abs(got - center)) <= radius + 1e-12

            # variational inequality: got is the projection iff
            # <point - got, y - got> <= 0 for every feasible y
            vertices = center + radius * np.concatenate([np.eye(dim),
                                                         -np.eye(dim)])
            interior = rng.dirichlet(np.ones(dim), size=50) \
                * rng.choice([-radius, radius], size=(50, dim)) \
                * rng.random((50, 1)) + center
            for y in np.concatenate([vertices, interior]):
                assert float((point - got) @ (y - got)) <= 1e-9

            # SLSQP solves the same program to looser tolerance
            want = l1_projection_slsqp(point, center, radius)
            assert np.linalg.norm(got - want) < 1e-3


def test_project_l1_interior_is_identity():
    spec = smp.L1ProjectionSpec(center=np.zeros(3), radius=2.0)
    v = np.array([0.5, -0.5, 0.25])
    out = smp.project_l1(v, spec)
    assert np.array_equal(out, v)
    assert out is not v                        # defensive copy


def test_project_l1_hand_values():
    spec = smp.L1ProjectionSpec(center=np.zeros(2), radius=1.0)
    assert np.allclose(smp.project_l1(np.array([3.0, 0.0]), spec),
                       [1.0, 0.0])
    assert np.allclose(smp.project_l1(np.array([1.0, 1.0]), spec),
                       [0.5, 0.5])
    degenerate = smp.L1ProjectionSpec(center=np.ones(2), radius=0.0)
    assert np.allclose(smp.project_l1(np.array([5.0, 5.0]), degenerate),
                       [1.0, 1.0])


# ---------------------------------------------------------------------------
# intermediate-layer baseline


def test_ilo_baseline_stays_in_ball_and_descends():
    dims = [4, 24, 96]
    G = gen.build_generator(dims, seed=SEED + 6)
    rng = np.random.default_rng(SEED + 7)
    z_true = rng.standard_normal(4)
    y = gen.forward(G, z_true)[0]
    mask = np.zeros(96, dtype=bool)
    mask[rng.choice(96, size=8, replace=False)] = True
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=96), y=y,
        mask=mask)
    z0 = rng.standard_normal(4)
    radius = 2.5
    traj = smp.run_ilo_baseline(problem, split_layer=1, radius=radius,
                                eta=1.0, steps=120, z0=z0)
    G1, _ = gen.split_forward(G, 1)
    w0 = gen.forward(G1, z0)[0]
    for w in traj.states:
        assert np.sum(np.abs(w - w0)) <= radius + 1e-9
    assert traj.losses[-1] <= traj.losses[0]


def test_ilo_baseline_requires_generator():
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=4),
        y=np.zeros(4))
    with pytest.raises(ValueError):
        smp.run_ilo_baseline(problem, split_layer=1, radius=1.0, eta=0.1,
                             steps=5)


# ---------------------------------------------------------------------------
# posterior SGLD


def test_posterior_sgld_conjugate_moments():
    # identity G2 and map, standard prior: posterior is Gaussian with
    # closed-form moments
    p = 6
    y = np.linspace(-1.0, 1.0, p)
    sigma = 1.0
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p), y=y,
        noise_sigma=sigma)
    prior = priors.GaussianMixturePrior.standard(p)
    mean_exp, var_exp = gaussian_posterior_moments(y, sigma)
    cfg = smp.LangevinConfig(eta=0.02, beta=1.0, steps=20_000,
                             seed=SEED + 8, record_every=10)
    run = smp.posterior_sgld(problem, prior, None, cfg, chains=6)
    pooled = run.states[len(run.states) // 2:].reshape(-1, p)
    assert np.allclose(pooled.mean(axis=0), mean_exp, atol=0.05)
    assert np.allclose(pooled.var(axis=0), var_exp, atol=0.04)


@pytest.mark.parametrize("p, rows", [(2, None), (2, 3), (8, 8), (8, 5)],
                         ids=["identity-p2", "linear-3x2", "linear-8x8",
                              "linear-5x8"])
def test_posterior_sgld_chain_is_independent_of_chain_count(p, rows):
    # chain c of a batch is bit for bit the one-chain run at seed + c
    rng = np.random.default_rng(SEED + 23)
    M = None if rows is None else rng.standard_normal((rows, p))
    m = p if rows is None else rows
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=m),
        y=rng.standard_normal(m), noise_sigma=0.6)
    prior = priors.GaussianMixturePrior(
        weights=np.array([0.4, 0.6]), means=rng.standard_normal((2, p)),
        variances=np.array([0.5, 1.5]))
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=300, seed=SEED + 24,
                             record_every=7)
    run = smp.posterior_sgld(problem, prior, M, cfg, chains=3)
    assert run.states.shape[1:] == (3, p)
    for c in range(3):
        one = smp.posterior_sgld(problem, prior, M, smp.LangevinConfig(
            eta=0.01, beta=1.0, steps=300, seed=SEED + 24 + c,
            record_every=7))
        assert np.array_equal(one.step_indices, run.step_indices)
        assert one.states[:, 0].tobytes() == run.states[:, c].tobytes()
        assert one.losses[:, 0].tobytes() == run.losses[:, c].tobytes()


def test_posterior_sgld_rejects_observation_of_the_wrong_shape():
    # the tail's output must be the measurement map's input
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)

    def problem(m, matrix=None):
        return gen.InverseProblem(
            generator=None, map=gen.MeasurementMap(matrix=matrix, m=m),
            y=np.zeros(m), noise_sigma=1.0)

    G = gen.build_generator([2, 12, 8], seed=SEED + 25)
    for prob, G2 in ((problem(1), None),                     # identity tail
                     (problem(3, np.ones((3, 4))), None),    # map takes 4
                     (problem(2), np.ones((3, 2))),          # linear tail
                     (problem(4), G)):                       # ReLU tail
        with pytest.raises(ValueError, match="measurement map"):
            smp.posterior_sgld(prob, prior, G2, cfg)
    smp.posterior_sgld(problem(3, np.ones((3, 8))), prior, G, cfg)


def test_posterior_sgld_rejects_zero_noise():
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=2),
        y=np.zeros(2), noise_sigma=0.0)
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)
    with pytest.raises(ValueError):
        smp.posterior_sgld(problem, prior, None, cfg)


def test_posterior_sgld_likelihood_weight_zero_samples_prior():
    # with the likelihood switched off the chain targets the prior alone
    p = 4
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p),
        y=np.full(p, 5.0), noise_sigma=0.5)
    prior = priors.GaussianMixturePrior.standard(p)
    cfg = smp.LangevinConfig(eta=0.02, beta=1.0, steps=40_000, seed=SEED + 20,
                             record_every=10)
    run = smp.posterior_sgld(problem, prior, None, cfg,
                             likelihood_weight=0.0)
    tail = run.states[len(run.states) // 4:, 0]
    # any likelihood leakage would drag the mean toward 4 (= y * snr)
    assert abs(float(tail.mean())) < 0.15
    assert float((tail * tail).mean()) == pytest.approx(1.0, abs=0.1)


def test_posterior_sgld_with_relu_tail():
    # smoke correctness: G2 as a ReluGenerator runs and stays finite
    G = gen.build_generator([3, 12, 8], seed=SEED + 21)
    y = np.zeros(8)
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=8), y=y,
        noise_sigma=1.0)
    prior = priors.GaussianMixturePrior.standard(3)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=500, seed=SEED + 22,
                             record_every=50)
    run = smp.posterior_sgld(problem, prior, G, cfg)
    assert list(run.aborted_at) == [-1]
    assert np.all(np.isfinite(run.states))


def test_relu_tail_pullback_matches_finite_differences():
    # the intermediate-layer potential's tail: pullback(w, masks, v) is the
    # gradient of v . apply(w), checked where no preactivation changes sign
    G = gen.build_generator([3, 12, 8], seed=SEED + 21)
    apply, pullback, p, out_dim = smp._tail_map(G, 3)
    assert (p, out_dim) == (3, 8)
    rng = np.random.default_rng(SEED + 26)
    h = 1e-6
    for _ in range(20):
        w = rng.standard_normal(3)
        v = rng.standard_normal(8)
        _, masks = apply(w)
        fd = np.empty(3)
        for i, e in enumerate(h * np.eye(3)):
            (up, m_up), (down, m_down) = apply(w + e), apply(w - e)
            for m in (m_up, m_down):
                assert all(np.array_equal(a, b) for a, b in zip(m, masks))
            fd[i] = v @ (up - down) / (2 * h)
        assert np.allclose(pullback(w, masks, v), fd, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# coupled chains


def test_coupled_pair_shares_noise():
    pg = _quad(np.ones(3))
    cfg = smp.LangevinConfig(eta=0.05, beta=3.0, steps=60, seed=SEED + 26,
                             record_every=1)
    z0 = np.array([0.4, -0.2, 0.9])
    run = smp.coupled_pair(pg, z0, z0.copy(), cfg)
    assert run.states.shape[1] == 2
    assert np.array_equal(run.states[:, 0], run.states[:, 1])  # forever


def test_coupled_pair_contracts_on_quadratic():
    a = np.array([0.5, 1.0, 2.0])
    pg = _quad(a)
    cfg = smp.LangevinConfig(eta=0.2, beta=5.0, steps=80, seed=SEED + 27,
                             record_every=1)
    run = smp.coupled_pair(pg, np.ones(3), -np.ones(3), cfg)
    gaps = np.linalg.norm(run.states[:, 0] - run.states[:, 1], axis=1)
    factor = np.max(np.abs(1.0 - 0.2 * a))
    for i in range(len(gaps) - 1):
        if gaps[i] < 1e-9:
            break
        assert gaps[i + 1] <= factor * gaps[i] + 1e-12
