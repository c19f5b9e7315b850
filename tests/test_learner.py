import numpy as np
import pytest

from mixgame import (DiscountedLoss, HypothesisSpace, PosteriorDist,
                     ValidationError, build_iid, build_markov,
                     empirical_losses, erm,
                     exact_generalization_error, gibbs_posterior,
                     kl_divergence, loss_from_json, sample_path,
                     two_state_chain)
from mixgame import test_losses as stationary_losses
from mixgame.process import SamplePath

from conftest import random_chain, random_space


def _path(symbols):
    return SamplePath(symbols=np.asarray(symbols))


def test_gibbs_matches_softmax_frozen():
    # two hypotheses whose empirical losses differ by exactly one unit of
    # beta * n: posterior is sigmoid(1) = (0.7311, 0.2689)
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 0.0], [1.0, 1.0]]))
    post = gibbs_posterior(space, _path([0]), beta=1.0)
    np.testing.assert_allclose(
        post.probs, [0.7310585786300049, 0.2689414213699951], atol=1e-12)


def test_gibbs_shift_invariance():
    rng = np.random.default_rng(2)
    model = random_chain(rng, 3)
    path = sample_path(model, 50, seed=9)
    base = rng.random((5, 3))
    p1 = gibbs_posterior(HypothesisSpace(base), path, beta=2.0).probs
    p2 = gibbs_posterior(HypothesisSpace(np.clip(base + 0.1, 0, 1)),
                         path, beta=2.0).probs
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_gibbs_beta_zero_returns_prior():
    rng = np.random.default_rng(4)
    model = random_chain(rng)
    space = random_space(rng, 4, 2)
    prior = PosteriorDist.from_probs(np.array([0.1, 0.2, 0.3, 0.4]))
    post = gibbs_posterior(space, sample_path(model, 20, 0), beta=0.0,
                           prior=prior)
    np.testing.assert_allclose(post.probs, prior.probs, atol=1e-12)


def test_erm_is_dirac_at_lowest_index_minimizer():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.2]]))
    post = erm(space, _path([0, 1, 0]))
    np.testing.assert_allclose(post.probs, [0.0, 1.0, 0.0], atol=0)


def test_kl_divergence_frozen_and_properties():
    p = PosteriorDist.from_probs(np.array([0.7310585786300049,
                                           0.2689414213699951]))
    q = PosteriorDist.uniform(2)
    assert kl_divergence(p, q) == pytest.approx(0.11094407167172735, abs=1e-12)
    assert kl_divergence(q, q) == pytest.approx(0.0, abs=1e-14)
    dirac = PosteriorDist.dirac(0, 2)
    assert np.isinf(kl_divergence(q, dirac))
    assert kl_divergence(dirac, q) == pytest.approx(np.log(2), abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = PosteriorDist.from_probs(rng.dirichlet(np.ones(4)))
        q = PosteriorDist.from_probs(rng.dirichlet(np.ones(4)))
        assert kl_divergence(p, q) >= -1e-12


def test_test_losses_against_stationary_average():
    model = build_iid([0.25, 0.75])
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(stationary_losses(space, model), [0.75, 0.25],
                               atol=1e-12)


def test_empirical_losses_are_path_averages():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    emp = empirical_losses(space, _path([0, 0, 1, 0]))
    np.testing.assert_allclose(emp, [0.25, 0.75], atol=1e-12)


def test_generalization_error_is_linear_in_posterior():
    rng = np.random.default_rng(8)
    model = random_chain(rng, 3)
    space = random_space(rng, 4, 3)
    path = sample_path(model, 40, seed=3)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    lam = 0.3
    mix = PosteriorDist.from_probs(lam * p + (1 - lam) * q)
    gp = exact_generalization_error(PosteriorDist.from_probs(p), space, path,
                                    model)
    gq = exact_generalization_error(PosteriorDist.from_probs(q), space, path,
                                    model)
    gm = exact_generalization_error(mix, space, path, model)
    assert gm == pytest.approx(lam * gp + (1 - lam) * gq, abs=1e-12)


def test_loss_from_json_reads_a_static_table():
    space = loss_from_json('{"losses": [[0.0, 1.0], [1.0, 0.0]]}')
    assert space.n_hypotheses == 2 and space.alphabet == 2 and space.m == 1
    with pytest.raises(ValidationError):
        loss_from_json({"not-losses": []})
    with pytest.raises(ValidationError):
        HypothesisSpace(np.array([[0.0, 1.5]]))  # outside [0, 1]


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: HypothesisSpace(np.array([[NAN, 1.0], [1.0, 0.0]])),
    lambda: HypothesisSpace(np.array([[[NAN, 1.0], [1.0, 0.0]]] * 2)),
    lambda: DiscountedLoss(0.9, 0.1, np.array([[NAN, 1.0], [1.0, 0.0]])),
    lambda: DiscountedLoss(0.9, NAN, np.array([[0.0, 1.0], [1.0, 0.0]])),
    lambda: PosteriorDist.from_probs([NAN, 0.5]),
    lambda: PosteriorDist(np.array([NAN, 0.0])),
    lambda: PosteriorDist(np.full(2, -np.inf)),
    lambda: build_markov([[NAN, 0.5], [0.5, 0.5]]),
], ids=["space", "memory-table", "discounted-g", "discounted-scale",
        "from-probs", "log-weights", "all-minus-inf", "markov"])
def test_constructors_reject_nan(build):
    # every check is written so that a NaN fails it (NaN < 0 is False)
    with pytest.raises(ValidationError):
        build()


def test_a_dirac_keeps_its_minus_inf_log_weights():
    p = PosteriorDist.dirac(1, 3)
    np.testing.assert_array_equal(p.log_weights, [-np.inf, 0.0, -np.inf])
    np.testing.assert_array_equal(p.probs, [0.0, 1.0, 0.0])
