import math

import numpy as np
import pytest
from scipy.special import logsumexp

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


def test_log_density_and_score_match_scipy_logsumexp_bit_for_bit(monkeypatch):
    # oracle: the same formula with scipy's logsumexp in place of the
    # private numpy copy of its algorithm
    rng = np.random.default_rng(SEED + 3)
    tie = priors.GaussianMixturePrior(      # two equal components: a tie
        weights=np.array([0.5, 0.5]), means=np.ones((2, 3)),
        variances=np.array([0.7, 0.7]))
    cases = [(_two_component(), rng.standard_normal((500, 2)) * 3.0),
             (_two_component(), rng.standard_normal(2)),
             (priors.GaussianMixturePrior.standard(4),
              rng.standard_normal((200, 4))),
             (priors.GaussianMixturePrior(
                 weights=np.full(5, 0.2), means=rng.standard_normal((5, 8)),
                 variances=rng.uniform(0.2, 2.0, 5)),
              rng.standard_normal((3, 40, 8)) * 2.0),
             (tie, rng.standard_normal((100, 3))),
             (tie, np.ones(3))]
    ours = [priors.gmm_log_density_and_score(pr, z) for pr, z in cases]
    monkeypatch.setattr(priors, "_logsumexp",
                        lambda a: logsumexp(a, axis=-1))
    for (prior, z), (logp, score) in zip(cases, ours):
        ref_logp, ref_score = priors.gmm_log_density_and_score(prior, z)
        assert np.shape(logp) == np.shape(ref_logp) == z.shape[:-1]
        assert np.asarray(logp).tobytes() == np.asarray(ref_logp).tobytes()
        assert score.tobytes() == ref_score.tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda: priors.GaussianMixturePrior(weights=np.array([0.5, 0.5]),
                                         means=np.zeros((1, 2)),
                                         variances=np.ones(2)),
     "matching counts"),
    (lambda: priors.gmm_log_density_and_score(
        priors.GaussianMixturePrior.standard(2), np.zeros(3)),
     "z has dimension 3, prior is 2-d"),
    (lambda: priors.sample_prior(priors.GaussianMixturePrior.standard(2), 0,
                                 seed=0), "count must be >= 1"),
], ids=["component-count", "score-dim", "zero-count"])
def test_priors_reject_invalid_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()
