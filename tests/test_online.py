import statistics
import time

import numpy as np
import pytest

from mixgame import (EWA, FTRL, ValidationError, delayed_regret_bound, ftrl_step,
                     play_costs, project_simplex, uniform_prior)
from mixgame.online import LEARNERS

from conftest import regret_bound


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def test_project_simplex_frozen():
    np.testing.assert_allclose(project_simplex(np.array([1.2, 0.3, -0.1])),
                               [0.95, 0.05, 0.0], atol=1e-12)


def test_project_simplex_fixed_points_and_feasibility():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.dirichlet(np.ones(5))
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)
        y = rng.normal(size=5) * 3
        q = project_simplex(y)
        assert q.min() >= -1e-15 and abs(q.sum() - 1) < 1e-12


@pytest.mark.parametrize("point", [[np.nan, 0.0], [np.inf, 0.0],
                                   [-np.inf, 0.5], [5e307, -5e307], []])
def test_project_simplex_rejects_a_non_finite_or_overflowing_point(point):
    # 5e307 is finite, but rounding leaves no entry above the threshold; an
    # empty point has no entry at all
    with pytest.raises(ValidationError, match="non-finite or overflowing"):
        project_simplex(np.array(point))


def test_project_simplex_optimality_vs_random_feasible_points():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.normal(size=4) * 2
        q = project_simplex(y)
        best = np.sum((q - y) ** 2)
        for _ in range(200):
            z = rng.dirichlet(np.ones(4))
            assert np.sum((z - y) ** 2) >= best - 1e-12


def test_ewa_step_is_cost_tilted_softmax():
    rng = np.random.default_rng(2)
    prior = rng.dirichlet(np.ones(3))
    cost = rng.normal(size=3)
    learner = EWA(prior, eta=0.7)
    learner.observe(cost)
    np.testing.assert_allclose(
        learner.act(), softmax(np.log(prior) - 0.7 * cost), atol=1e-12)


def test_ewa_act_cost_does_not_grow_with_the_hypothesis_count():
    # a play is a fixed number of numpy calls, so at W = 400 it costs well
    # under 10x a play at W = 2; one numpy call per hypothesis costs about 90x
    def median_act_s(W):
        learner = EWA(uniform_prior(W), eta=0.3, d=3)
        for cost in np.random.default_rng(W).uniform(-1, 1, size=(3, W)):
            learner.observe(cost)
        batches = []
        for _ in range(41):
            start = time.perf_counter()
            for _ in range(25):
                learner.act()
            batches.append(time.perf_counter() - start)
        return statistics.median(batches) / 25

    median_act_s(2)  # warm up
    assert median_act_s(400) < 10 * median_act_s(2)


def test_ftrl_act_cost_does_not_grow_with_the_hypothesis_count():
    # a projection is a fixed number of numpy calls, so a play at W = 400 costs
    # about 1.7x a play at W = 2; a Python comparison per hypothesis, to find
    # rho, costs over 10x
    def median_act_s(W):
        learner = FTRL(uniform_prior(W), eta=0.3, d=3)
        for cost in np.random.default_rng(W).uniform(-1, 1, size=(3, W)):
            learner.observe(cost)
        batches = []
        for _ in range(41):
            start = time.perf_counter()
            for _ in range(25):
                learner.act()
            batches.append(time.perf_counter() - start)
        return statistics.median(batches) / 25

    median_act_s(2)  # warm up
    assert median_act_s(400) < 10 * median_act_s(2)


def test_ftrl_sqnorm_step_is_projected_prior_minus_cost():
    rng = np.random.default_rng(4)
    prior = rng.dirichlet(np.ones(4))
    cum = rng.normal(size=4)
    np.testing.assert_array_equal(ftrl_step(prior, 0.3, cum),
                                  project_simplex(prior - 0.3 * cum))


@pytest.mark.parametrize("d", [1, 3, 7])
def test_wrapped_ftrl_sqnorm_plays_the_projection_of_its_residue_class_cost(d):
    # S_t = S_{t-d} + c_{t-d}: the cost summed over round t's earlier residue class
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        n, W = int(rng.integers(10, 60)), int(rng.integers(2, 6))
        costs = rng.uniform(-1, 1, size=(n, W))
        eta = float(rng.uniform(0.05, 2.0))
        prior = rng.dirichlet(np.ones(W))
        learner = FTRL(prior, eta, d)
        plays = play_costs(costs, np.zeros(W), learner, d).posteriors
        S = np.zeros_like(costs)
        for t in range(d, n):
            S[t] = S[t - d] + costs[t - d]
        oracle = [project_simplex(prior - eta * s) for s in S]
        np.testing.assert_array_equal(plays, oracle)


def _run_stream(learner, costs):
    plays = []
    for c in costs:
        plays.append(learner.act())
        learner.observe(c)
    return np.array(plays)


def test_ewa_realized_regret_within_bound():
    rng = np.random.default_rng(5)
    costs = rng.uniform(-1, 1, size=(60, 4))
    eta = 0.2
    plays = _run_stream(EWA(uniform_prior(4), eta), costs)
    regret = np.sum(plays * costs) - costs.sum(axis=0).min()
    bound = regret_bound(np.log(4), eta, 1.0,
                         float(np.sum(np.abs(costs).max(axis=1) ** 2)))
    assert regret <= bound + 1e-12


def test_regret_bound_values_frozen():
    assert regret_bound(np.log(2), 0.1, 1.0, 100.0) == pytest.approx(
        11.931471805599452, abs=1e-12)
    assert regret_bound(0.5, 0.1, 1.0, 100.0) == pytest.approx(
        10.0, abs=1e-12)
    assert delayed_regret_bound(np.log(2), 0.1, d=4, n=100) == pytest.approx(
        4 * np.log(2) / 0.1 + 0.05 * 100, abs=1e-12)


def test_delayed_regret_bound_composes_base_bound():
    # d instances each see n/d rounds of costs with squared dual norm B^2
    h, eta, alpha, B, d, n = 0.7, 0.2, 0.5, 1.5, 3, 12
    per_instance = regret_bound(h, eta, alpha, B * B * n / d)
    assert delayed_regret_bound(h, eta, d, n, alpha=alpha, B=B) == pytest.approx(
        d * per_instance, abs=1e-12)


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("algorithm", list(LEARNERS))
def test_each_residue_class_plays_as_a_delay_1_learner(algorithm, d):
    # class i of a delay-d learner sees costs[i::d] and nothing else
    rng = np.random.default_rng(6)
    costs = rng.uniform(-1, 1, size=(20, 3))
    prior = rng.dirichlet(np.ones(3))
    plays = _run_stream(LEARNERS[algorithm](prior, 0.5, d), costs)
    for i in range(d):
        solo = _run_stream(LEARNERS[algorithm](prior, 0.5), costs[i::d])
        np.testing.assert_array_equal(plays[i::d], solo)


def test_learners_build_from_their_names_and_validate_eta():
    prior = uniform_prior(2)
    for name in ("ewa", "ftrl-sqnorm"):
        learner = LEARNERS[name](prior, eta=0.1, d=2)
        assert learner.act().shape == (2,)
    with pytest.raises(ValidationError):
        EWA(prior, eta=-1.0)


@pytest.mark.parametrize("eta", [np.nan, np.inf])
def test_a_nan_or_infinite_eta_is_refused(eta):
    # NaN passes a plain eta <= 0: EWA would play [nan, nan], FTRL fail at its
    # first act, and the bound be nan (inf at eta = inf)
    prior = uniform_prior(2)
    for learner in LEARNERS.values():
        with pytest.raises(ValidationError, match="eta"):
            learner(prior, eta, 2)
    with pytest.raises(ValidationError, match="eta"):
        delayed_regret_bound(0.5, eta, 2, 100)
