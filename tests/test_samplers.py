import math

import numpy as np
import pytest

from langscape import generator as gen
from langscape import priors
from langscape import samplers as smp

from oracles import (ar1_stationary_variance, gaussian_posterior_moments,
                     l1_projection_bisection)

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


def test_zero_temperature_draws_no_noise_even_where_two_eta_overflows():
    # 2 eta is inf for eta > ~8.99e307, and inf / inf would be NaN
    for eta in (0.1, 1e308):
        cfg = smp.LangevinConfig(eta=eta, beta=math.inf, steps=1, seed=0)
        assert cfg.sigma_step == 0.0


def test_trajectory_recording_grid():
    pg = _quad(np.ones(2))
    cfg = smp.LangevinConfig(eta=0.01, beta=5.0, steps=25, seed=SEED,
                             record_every=10)
    run = smp.run_langevin_ensemble(pg, np.array([[1.0, -1.0]]), cfg)
    # step 0 and the final step are always recorded
    assert list(run.step_indices) == [0, 10, 20, 25]
    assert run.states.shape == (4, 1, 2)
    assert run.losses.shape == (4, 1)
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


def _gd(pg, z0, cfg):
    """Gradient descent: the beta = inf ensemble, a batch of one."""
    return smp.run_langevin_ensemble(pg, z0[None], smp.LangevinConfig(
        eta=cfg.eta, beta=math.inf, steps=cfg.steps, seed=0,
        record_every=cfg.record_every))


_DIVERGING = {
    "run_langevin_ensemble": lambda pg, z0, cfg: smp.run_langevin_ensemble(
        pg, z0[None], cfg),
    "beta-inf": _gd,
    "coupled_pair": lambda pg, z0, cfg: smp.coupled_pair(pg, z0, -z0, cfg),
}


@pytest.mark.parametrize("run", _DIVERGING.values(), ids=_DIVERGING.keys())
def test_langevin_abort_on_divergence(run):
    # unstable step size on a steep quadratic blows up to non-finite
    pg = _quad(np.array([1e8]))
    cfg = smp.LangevinConfig(eta=1.0, beta=1.0, steps=400, seed=SEED + 3,
                             record_every=1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = run(pg, np.array([1.0]), cfg)
    for c, aborted_at in enumerate(out.aborted_at):
        states = out.states[:, c]
        assert aborted_at > 0
        assert np.all(np.isfinite(states))
        # the chain stopped at its state of the step before the abort
        last = states[out.step_indices == aborted_at - 1]
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
    assert list(run.step_indices) == [0, 8, 16, 24, 32, 40]
    # a single chain is a batch of one, on the same recording grid
    one = smp.run_langevin_ensemble(pg, z0[2:3], cfg)
    assert one.states.shape == (len(run.step_indices), 1, 3)
    assert np.array_equal(one.step_indices, run.step_indices)


# ---------------------------------------------------------------------------
# gradient descent: the beta = inf chain


def test_zero_temperature_chain_is_gradient_descent_bit_for_bit():
    # the same updates as a hand-written z - eta g loop, at a step whose
    # 2 eta overflows too, with no noise drawn
    a = np.array([0.5, 1.5, 1.0])
    pg = _quad(a)
    for eta, steps, scale in ((0.4, 30, 1.0), (1e308, 1, 1e-308)):
        z = scale * np.array([2.0, -1.0, 0.5])
        cfg = smp.LangevinConfig(eta=eta, beta=math.inf, steps=steps,
                                 seed=0)
        run = smp.run_langevin_ensemble(pg, z[None], cfg)
        assert list(run.aborted_at) == [-1]
        want = [z]
        for _ in range(steps):
            want.append(want[-1] - eta * pg(want[-1])[1])
        assert run.states[:, 0].tobytes() == np.array(want).tobytes()
        assert run.losses[:, 0].tobytes() \
            == np.array([pg(w)[0] for w in want]).tobytes()


def test_zero_temperature_chain_converges_on_a_quadratic():
    a = np.array([0.5, 1.5, 1.0])
    pg = _quad(a)
    cfg = smp.LangevinConfig(eta=0.4, beta=math.inf, steps=200, seed=0,
                             record_every=50)
    run = smp.run_langevin_ensemble(pg, np.array([[2.0, -1.0, 0.5]]), cfg)
    assert list(run.step_indices) == [0, 50, 100, 150, 200]
    assert np.linalg.norm(run.states[-1, 0]) < 1e-10
    assert run.losses[-1, 0] < 1e-20


def test_descent_stops_on_a_non_finite_state_the_oracle_masks():
    # a ReLU loss maps the overflowed state -inf (and NaN) to finite values
    def relu_loss(z):
        on = z > 0.0
        return (10.0 * np.sum(np.where(on, z, 0.0), axis=-1),
                np.where(on, 10.0, 0.0))

    cfg = smp.LangevinConfig(eta=1e308, beta=math.inf, steps=5, seed=0)
    run = smp.run_langevin_ensemble(relu_loss, np.ones((1, 3)), cfg)
    assert run.aborted_at.tolist() == [1]
    assert run.states.tolist() == [[[1.0, 1.0, 1.0]]]


def test_descent_from_a_non_finite_start_stops_at_step_zero():
    calls = []

    def pg(z):
        calls.append(z)
        return 0.5 * np.sum(z * z, axis=-1), z

    cfg = smp.LangevinConfig(eta=0.1, beta=math.inf, steps=3, seed=0)
    run = smp.run_langevin_ensemble(pg, np.array([[np.nan, 1.0]]), cfg)
    assert run.aborted_at.tolist() == [0]
    assert np.array_equal(run.states, [[[np.nan, 1.0]]], equal_nan=True)
    assert list(run.step_indices) == [0]
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# l1 projection


def test_project_l1_matches_constrained_solver():
    rng = np.random.default_rng(SEED + 5)
    for dim in (2, 3, 4, 6):
        for _ in range(12):
            center = rng.standard_normal(dim)
            radius = float(rng.uniform(0.3, 2.0))
            point = center + rng.standard_normal(dim) * 2.0
            got = smp.project_l1(point, center, radius)
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

            # bisection finds the same threshold without sorting
            want = l1_projection_bisection(point, center, radius)
            assert np.linalg.norm(got - want) < 1e-12


def test_project_l1_interior_is_identity():
    v = np.array([0.5, -0.5, 0.25])
    out = smp.project_l1(v, np.zeros(3), 2.0)
    assert np.array_equal(out, v)
    assert out is not v                        # defensive copy


def test_project_l1_hand_values():
    assert np.allclose(smp.project_l1(np.array([3.0, 0.0]), np.zeros(2), 1.0),
                       [1.0, 0.0])
    assert np.allclose(smp.project_l1(np.array([1.0, 1.0]), np.zeros(2), 1.0),
                       [0.5, 0.5])
    assert np.allclose(smp.project_l1(np.array([5.0, 5.0]), np.ones(2), 0.0),
                       [1.0, 1.0])


def test_project_l1_without_a_float_threshold_gives_nan():
    # radius 3 is lost in the rounding of an offset of 1e300
    for v in ([1e300, 2.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0]):
        assert np.isnan(smp.project_l1(np.array(v), np.zeros(3), 3.0)).all()


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
                             steps=5, z0=np.zeros(4))


def test_negative_l1_radius_is_rejected():
    with pytest.raises(ValueError, match="radius"):
        smp.project_l1(np.ones(3), np.zeros(3), -0.5)
    G = gen.build_generator([2, 6, 12], seed=SEED + 29)
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=12),
        y=np.zeros(12))
    # rejected before any step, so even a run of no steps
    with pytest.raises(ValueError, match="radius"):
        smp.run_ilo_baseline(problem, split_layer=1, radius=-1.0, eta=0.1,
                             steps=0, z0=np.ones(2))


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
    run = smp.posterior_sgld(problem, prior, cfg, chains=6)
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
        generator=None, map=gen.MeasurementMap(matrix=M, m=m),
        y=rng.standard_normal(m), noise_sigma=0.6)
    prior = priors.GaussianMixturePrior(
        weights=np.array([0.4, 0.6]), means=rng.standard_normal((2, p)),
        variances=np.array([0.5, 1.5]))
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=300, seed=SEED + 24,
                             record_every=7)
    run = smp.posterior_sgld(problem, prior, cfg, chains=3)
    assert run.states.shape[1:] == (3, p)
    for c in range(3):
        one = smp.posterior_sgld(problem, prior, smp.LangevinConfig(
            eta=0.01, beta=1.0, steps=300, seed=SEED + 24 + c,
            record_every=7))
        assert np.array_equal(one.step_indices, run.step_indices)
        assert one.states[:, 0].tobytes() == run.states[:, c].tobytes()
        assert one.losses[:, 0].tobytes() == run.losses[:, c].tobytes()


def _with_per_step_noise(monkeypatch, problem, prior, cfg, chains):
    """posterior_sgld's run, the same chains fed the per-step stacked draw
    (one standard_normal(p) per chain per step) and the size of every
    normal draw the run took."""
    real_chain, real_rng = smp._chain, np.random.default_rng
    seen, sizes = {}, []

    def spy_chain(*args, **kwargs):
        seen["args"] = args
        return real_chain(*args, **kwargs)

    class LoggedRng:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def standard_normal(self, size):
            sizes.append(int(np.prod(size)))
            return self._rng.standard_normal(size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    with monkeypatch.context() as m:
        m.setattr(smp, "_chain", spy_chain)
        m.setattr(np.random, "default_rng", LoggedRng)
        with np.errstate(over="ignore", invalid="ignore"):
            run = smp.posterior_sgld(problem, prior, cfg, chains=chains)
    rngs = [real_rng(cfg.seed + c) for c in range(chains)]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = smp.EnsembleRun(*real_chain(*seen["args"], noise=lambda: np.stack(
            [r.standard_normal(prior.dim) for r in rngs])))
    for field in ("states", "losses", "step_indices", "aborted_at"):
        assert getattr(run, field).tobytes() == getattr(ref, field).tobytes()
    return run, sizes


@pytest.mark.parametrize("chains", [1, 8])
@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("steps", [1, 7, 511, 512, 513, 1100])
def test_posterior_block_noise_is_the_per_step_draw(monkeypatch, steps,
                                                    record_every, chains):
    # the noise is drawn per chain in blocks of min(512, steps) steps
    p = 3
    rng = np.random.default_rng(SEED + 40)
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p),
        y=rng.standard_normal(p), noise_sigma=0.6)
    prior = priors.GaussianMixturePrior(
        weights=np.array([0.4, 0.6]), means=rng.standard_normal((2, p)),
        variances=np.array([0.5, 1.5]))
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=steps, seed=SEED + 41,
                             record_every=record_every)
    run, sizes = _with_per_step_noise(monkeypatch, problem, prior, cfg,
                                      chains)
    assert max(sizes) == min(512, steps) * p
    assert list(run.aborted_at) == [-1] * chains


@pytest.mark.parametrize("steps", [512, 1100])
def test_posterior_block_noise_where_chains_stop_apart(monkeypatch, steps):
    # at eta = 1.5 the chains grow by 2x a step and overflow at steps
    # 511-513, across the first block's end: at 512 steps some stop early
    # and the others run to the end; at 1100 the run ends once all stop
    p = 2
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p),
        y=np.zeros(p), noise_sigma=1.0)
    prior = priors.GaussianMixturePrior.standard(p)
    cfg = smp.LangevinConfig(eta=1.5, beta=1.0, steps=steps, seed=1,
                             record_every=10)
    run, _ = _with_per_step_noise(monkeypatch, problem, prior, cfg, 8)
    stopped = run.aborted_at[run.aborted_at >= 0]
    assert len(set(stopped.tolist())) > 1
    assert (len(stopped) < 8) == (steps == 512)


@pytest.mark.parametrize("p, chains", [(40, 8), (70_000, 1)],
                         ids=["block-204", "block-1"])
def test_posterior_block_noise_is_capped(monkeypatch, p, chains):
    # a block holds at most 65536 numbers: 204 steps of 8 x 40, and one
    # step where a single draw holds more
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p),
        y=np.full(p, 0.3), noise_sigma=1.0)
    prior = priors.GaussianMixturePrior.standard(p)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=600 if p < 100 else 3,
                             seed=SEED + 42, record_every=7)
    _, sizes = _with_per_step_noise(monkeypatch, problem, prior, cfg, chains)
    assert max(sizes) == max(1, 65536 // (chains * p)) * p


def test_posterior_sgld_rejects_observation_of_the_wrong_shape():
    # the tail's output must be the measurement map's input ...
    G = gen.build_generator([2, 12, 8], seed=SEED + 25)
    for m, matrix in ((4, None), (3, np.ones((3, 4)))):
        with pytest.raises(ValueError, match="measurement map"):
            gen.InverseProblem(
                generator=G, map=gen.MeasurementMap(matrix=matrix, m=m),
                y=np.zeros(m), noise_sigma=1.0)
    # ... and the latent the prior's: a 1-D prior beside 3 identity
    # measurements would otherwise broadcast
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)

    def problem(m, matrix=None, generator=None):
        return gen.InverseProblem(
            generator=generator, map=gen.MeasurementMap(matrix=matrix, m=m),
            y=np.zeros(m), noise_sigma=1.0)

    for prob, dim in ((problem(3), 1),                    # identity tail
                      (problem(3), 2),
                      (problem(3, np.ones((3, 4))), 2),   # linear tail
                      (problem(8, None, G), 3)):          # ReLU tail
        with pytest.raises(ValueError, match="prior dim"):
            smp.posterior_sgld(prob, priors.GaussianMixturePrior.standard(
                dim), cfg)
    smp.posterior_sgld(problem(3, np.ones((3, 2))), prior, cfg)
    smp.posterior_sgld(problem(3, np.ones((3, 8)), G), prior, cfg)


def test_posterior_sgld_rejects_zero_noise():
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=2),
        y=np.zeros(2), noise_sigma=0.0)
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)
    with pytest.raises(ValueError):
        smp.posterior_sgld(problem, prior, cfg)


def test_posterior_sgld_underflowing_noise_square():
    # sigma^2 underflows to 0: an infinite likelihood weight stops every
    # chain at step 0, unless the likelihood is switched off
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=2),
        y=np.ones(2), noise_sigma=1e-300)
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)
    run = smp.posterior_sgld(problem, prior, cfg, chains=2)
    assert run.aborted_at.tolist() == [0, 0]
    run = smp.posterior_sgld(problem, prior, cfg, chains=2,
                             likelihood_weight=0.0)
    assert run.aborted_at.tolist() == [-1, -1]
    assert np.all(np.isfinite(run.states))


def test_posterior_sgld_overflowing_noise_square_samples_prior():
    # sigma^2 overflows to inf (a float or an int sigma): the likelihood
    # weight is 0 and the chains are bit for bit the prior-only run
    prior = priors.GaussianMixturePrior.standard(2)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=10, seed=0)

    def run(sigma, weight=1.0):
        problem = gen.InverseProblem(
            generator=None, map=gen.MeasurementMap(matrix=None, m=2),
            y=np.ones(2), noise_sigma=sigma)
        return smp.posterior_sgld(problem, prior, cfg, chains=2,
                                  likelihood_weight=weight)

    ref = run(1.0, weight=0.0)
    for sigma in (1e300, 1.7e308, 10**200):
        got = run(sigma)
        assert got.aborted_at.tolist() == [-1, -1]
        assert got.states.tobytes() == ref.states.tobytes()
        assert got.losses.tobytes() == ref.losses.tobytes()


def test_posterior_sgld_likelihood_weight_zero_samples_prior():
    # with the likelihood switched off the chain targets the prior alone
    p = 4
    problem = gen.InverseProblem(
        generator=None, map=gen.MeasurementMap(matrix=None, m=p),
        y=np.full(p, 5.0), noise_sigma=0.5)
    prior = priors.GaussianMixturePrior.standard(p)
    cfg = smp.LangevinConfig(eta=0.02, beta=1.0, steps=40_000, seed=SEED + 20,
                             record_every=10)
    run = smp.posterior_sgld(problem, prior, cfg, likelihood_weight=0.0)
    tail = run.states[len(run.states) // 4:, 0]
    # any likelihood leakage would drag the mean toward 4 (= y * snr)
    assert abs(float(tail.mean())) < 0.15
    assert float((tail * tail).mean()) == pytest.approx(1.0, abs=0.1)


def test_posterior_sgld_with_relu_tail():
    # smoke correctness: a ReluGenerator tail runs and stays finite
    G = gen.build_generator([3, 12, 8], seed=SEED + 21)
    y = np.zeros(8)
    problem = gen.InverseProblem(
        generator=G, map=gen.MeasurementMap(matrix=None, m=8), y=y,
        noise_sigma=1.0)
    prior = priors.GaussianMixturePrior.standard(3)
    cfg = smp.LangevinConfig(eta=0.01, beta=1.0, steps=500, seed=SEED + 22,
                             record_every=50)
    run = smp.posterior_sgld(problem, prior, cfg)
    assert list(run.aborted_at) == [-1]
    assert np.all(np.isfinite(run.states))


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


@pytest.mark.parametrize("call, match", [
    (lambda cfg: smp.run_langevin_ensemble(_quad(np.ones(2)), np.zeros(2),
                                           cfg),
     r"ensemble start must have shape \(chains, dim\)"),
    (lambda cfg: smp.coupled_pair(_quad(np.ones(2)), np.zeros(2), np.zeros(3),
                                  cfg), "coupled starts must share a shape"),
], ids=["1-d-ensemble-start", "coupled-start-shapes"])
def test_samplers_reject_invalid_starts(call, match):
    cfg = smp.LangevinConfig(eta=0.1, beta=1.0, steps=2, seed=0)
    with pytest.raises(ValueError, match=match):
        call(cfg)
