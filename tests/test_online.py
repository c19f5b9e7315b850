import numpy as np
import pytest

from mixgame import (EWA, ValidationError, delayed_regret_bound, ftrl_step,
                     make_learner, play_costs, project_simplex, uniform_prior)
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
                                   [-np.inf, 0.5], [5e307, -5e307]])
def test_project_simplex_rejects_a_non_finite_or_overflowing_point(point):
    # the last point is finite, but rounding leaves no entry above the threshold
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
        learner = make_learner("ftrl-sqnorm", prior, eta, d)
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


def test_make_learner_names_and_validation():
    prior = uniform_prior(2)
    for name in ("ewa", "ftrl-sqnorm"):
        learner = make_learner(name, prior, eta=0.1, d=2)
        assert learner.act().shape == (2,)
    for name in ("mystery", "ftrl-entropy"):
        with pytest.raises(ValidationError):
            make_learner(name, prior, eta=0.1)
    with pytest.raises(ValidationError):
        make_learner("ewa", prior, eta=-1.0)
