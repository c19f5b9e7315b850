import numpy as np
import pytest

from mixgame import (DiscountedLoss, HypothesisSpace, ValidationError,
                     build_markov, erm, gibbs_posterior, kl_divergence,
                     limit_test_losses, loss_from_json, sample_path,
                     two_state_chain, uniform_prior)

from conftest import build_iid, random_chain, random_space


def _rows(space, symbols):
    return space.loss_rows(np.asarray(symbols))


def _gibbs(rows, beta):
    return gibbs_posterior(rows.mean(axis=0), len(rows), beta)


def test_gibbs_matches_softmax_frozen():
    # two hypotheses whose empirical losses differ by exactly one unit of
    # beta * n: posterior is sigmoid(1) = (0.7311, 0.2689)
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 0.0], [1.0, 1.0]]))
    post = _gibbs(_rows(space, [0]), beta=1.0)
    np.testing.assert_allclose(
        post, [0.7310585786300049, 0.2689414213699951], atol=1e-12)


def test_gibbs_shift_invariance():
    rng = np.random.default_rng(2)
    model = random_chain(rng, 3)
    path = sample_path(model, 50, seed=9)
    base = rng.random((5, 3))
    p1 = _gibbs(HypothesisSpace(base).loss_rows(path.symbols), beta=2.0)
    p2 = _gibbs(HypothesisSpace(np.clip(base + 0.1, 0, 1)).loss_rows(path.symbols),
                beta=2.0)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_gibbs_beta_zero_returns_prior():
    rng = np.random.default_rng(4)
    model = random_chain(rng)
    space = random_space(rng, 4, 2)
    post = _gibbs(space.loss_rows(sample_path(model, 20, 0).symbols), beta=0.0)
    np.testing.assert_allclose(post, uniform_prior(4), atol=1e-12)


def test_erm_is_dirac_at_lowest_index_minimizer():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.5, 0.5], [0.2, 0.2], [0.2, 0.2]]))
    post = erm(_rows(space, [0, 1, 0]).mean(axis=0))
    np.testing.assert_allclose(post, [0.0, 1.0, 0.0], atol=0)


def test_kl_divergence_frozen_and_properties():
    p = np.array([0.7310585786300049, 0.2689414213699951])
    q = uniform_prior(2)
    assert kl_divergence(p, q) == pytest.approx(0.11094407167172735, abs=1e-12)
    assert kl_divergence(q, q) == pytest.approx(0.0, abs=1e-14)
    dirac = erm(np.array([0.0, 1.0]))
    assert np.isinf(kl_divergence(q, dirac))
    assert kl_divergence(dirac, q) == pytest.approx(np.log(2), abs=1e-12)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, q) >= -1e-12


def test_test_losses_against_stationary_average():
    model = build_iid([0.25, 0.75])
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(limit_test_losses(space, model)[0],
                               [0.75, 0.25], atol=1e-12)


def test_empirical_losses_are_path_averages():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    emp = _rows(space, [0, 0, 1, 0]).mean(axis=0)
    np.testing.assert_allclose(emp, [0.25, 0.75], atol=1e-12)


def test_generalization_error_is_linear_in_posterior():
    rng = np.random.default_rng(8)
    model = random_chain(rng, 3)
    space = random_space(rng, 4, 3)
    path = sample_path(model, 40, seed=3)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    lam = 0.3
    mix = lam * p + (1 - lam) * q
    gap = (limit_test_losses(space, model)[0]
           - space.loss_rows(path.symbols).mean(axis=0))
    gp, gq, gm = (r @ gap for r in (p, q, mix))
    assert gm == pytest.approx(lam * gp + (1 - lam) * gq, abs=1e-12)


def test_loss_from_json_reads_a_static_table():
    space = loss_from_json({"losses": [[0.0, 1.0], [1.0, 0.0]]})
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
    # a NaN mean loss, or a beta * n that overflows: no log-weight is finite
    lambda: gibbs_posterior(np.array([NAN, 0.0]), 10, 1.0),
    lambda: gibbs_posterior(np.array([0.5, 0.5]), 10, 1e308),
    lambda: build_markov([[NAN, 0.5], [0.5, 0.5]]),
], ids=["space", "memory-table", "discounted-g", "discounted-scale",
        "log-weights", "all-minus-inf", "markov"])
def test_constructors_reject_nan(build):
    # every check is written so that a NaN fails it (NaN < 0 is False)
    with pytest.raises(ValidationError):
        build()


def test_a_dirac_keeps_its_minus_inf_log_weights():
    p = erm(np.array([0.5, 0.2, 0.7]))
    np.testing.assert_array_equal(p, np.eye(3)[1])
    with np.errstate(divide="ignore"):
        np.testing.assert_array_equal(np.log(p), [-np.inf, 0.0, -np.inf])
    assert kl_divergence(p, uniform_prior(3)) == np.log1p(2)
    assert kl_divergence(uniform_prior(3), p) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mean", [[0.5, 0.5], [0.0, 1.0]])
def test_an_overflowing_gibbs_play_names_beta_n_and_warns_of_nothing(mean):
    # beta * n overflows to inf: every log-weight is -inf, or inf * 0 is NaN
    with pytest.raises(ValidationError, match=r"beta \* n = inf overflows"):
        gibbs_posterior(np.array(mean), 2000, 1e308)


def test_the_uniform_priors_log_is_minus_log1p_bit_for_bit():
    for W in range(1, 2001):
        assert np.array_equal(np.log(uniform_prior(W)), np.full(W, -np.log1p(W - 1))), W


@pytest.mark.parametrize("symbol", [-1, 2])
def test_a_symbol_outside_the_alphabet_is_refused(symbol):
    # at m = 2 the window (0, 2) has the index 2 * 0 + 2, that of the window
    # (1, 0), and (0, -1) the index of the last window: both are refused
    space = HypothesisSpace(np.random.default_rng(2).random((3, 2, 2)))
    for read in (space.loss_rows, space.values):
        with pytest.raises(ValidationError, match=r"range\(2\)"):
            read([0, symbol])
    with pytest.raises(ValidationError, match=r"range\(2\)"):
        space.values(np.array([[0, 1], [1, symbol]]))
    dl = DiscountedLoss(0.9, 0.05, [[0.5, 0.6]])
    with pytest.raises(ValidationError, match=r"range\(2\)"):
        dl.values([symbol])
