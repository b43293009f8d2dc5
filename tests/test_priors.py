import math

import numpy as np
import pytest

from langscape import priors

from oracles import fd_gradient, gmm_logpdf_direct

SEED = 2718


def _two_component():
    return priors.GaussianMixturePrior(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-1.0, 0.5], [2.0, -0.3]]),
        variances=np.array([0.6, 1.4]))


def test_standard_prior():
    prior = priors.GaussianMixturePrior.standard(5)
    assert prior.dim == 5 and prior.components == 1
    logp, score = priors.gmm_log_density_and_score(prior, np.zeros(5))
    assert logp == pytest.approx(-2.5 * math.log(2 * math.pi), abs=1e-12)
    assert np.allclose(score, 0.0)


def test_log_density_against_direct_sum():
    prior = _two_component()
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        x = rng.standard_normal(2) * 2.0
        expected = gmm_logpdf_direct(prior.weights, prior.means,
                                     prior.variances, x)
        logp, _ = priors.gmm_log_density_and_score(prior, x)
        assert logp == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_score_matches_fd():
    prior = _two_component()
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        x = rng.standard_normal(2) * 2.5
        fd = fd_gradient(
            lambda p: priors.gmm_log_density_and_score(prior, p)[0], x)
        _, score = priors.gmm_log_density_and_score(prior, x)
        assert np.allclose(score, fd, atol=1e-6)


def test_log_density_batched():
    prior = _two_component()
    rng = np.random.default_rng(SEED + 2)
    X = rng.standard_normal((40, 2))
    logp, score = priors.gmm_log_density_and_score(prior, X)
    assert logp.shape == (40,) and score.shape == (40, 2)
    for i in range(40):
        li, si = priors.gmm_log_density_and_score(prior, X[i])
        assert logp[i] == pytest.approx(li, rel=1e-14)
        assert np.allclose(score[i], si, rtol=1e-12, atol=1e-14)


def test_log_density_far_tail_stable():
    # logsumexp keeps far-away points finite instead of -inf/nan
    prior = _two_component()
    logp, score = priors.gmm_log_density_and_score(prior,
                                                   np.array([80.0, -90.0]))
    assert np.isfinite(logp)
    assert np.all(np.isfinite(score))


def test_density_integrates_to_one():
    prior = _two_component()
    xs = np.linspace(-9, 11, 401)
    ys = np.linspace(-9, 9, 361)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    logp, _ = priors.gmm_log_density_and_score(prior, pts)
    total = np.exp(logp).sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert total == pytest.approx(1.0, abs=2e-3)


def test_sample_prior_moments():
    prior = _two_component()
    samples = priors.sample_prior(prior, 200_000, seed=SEED + 3)
    assert samples.shape == (200_000, 2)
    mean_expected = 0.3 * prior.means[0] + 0.7 * prior.means[1]
    assert np.allclose(samples.mean(axis=0), mean_expected, atol=0.02)
    # per-coordinate second moment: sum_k w_k (v_k + mu_k^2)
    second = sum(w * (v + prior.means[k] ** 2)
                 for k, (w, v) in enumerate(zip(prior.weights,
                                                prior.variances)))
    assert np.allclose((samples ** 2).mean(axis=0), second, atol=0.05)


def test_prior_validation():
    with pytest.raises(ValueError):
        priors.GaussianMixturePrior(weights=np.array([0.5, 0.4]),
                                    means=np.zeros((2, 2)),
                                    variances=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        priors.GaussianMixturePrior(weights=np.array([1.0]),
                                    means=np.zeros((1, 2)),
                                    variances=np.array([-1.0]))
