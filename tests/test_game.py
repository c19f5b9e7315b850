import numpy as np
import pytest

from mixgame import (ConsistencyError, GameTrace, ProtocolError, decompose,
                     limit_test_losses, make_learner, play_costs, sample_path,
                     uniform_prior)

from conftest import instance_regrets, random_chain, random_space


def _setup(seed=0, n=80, d=3, algorithm="ewa"):
    rng = np.random.default_rng(seed)
    model = random_chain(rng, 2)
    space = random_space(rng, 4, 2)
    path = sample_path(model, n, seed=seed + 1)
    learner = make_learner(algorithm, uniform_prior(4), 0.4, d=d)
    trace = play_costs(space.loss_rows(path.symbols),
                       limit_test_losses(space, model)[0], learner, d)
    return model, space, path, trace


def test_decomposition_identity_small():
    rng = np.random.default_rng(10)
    for seed in range(5):
        model, space, path, trace = _setup(seed=seed, d=(seed % 3) + 1)
        comparator = rng.dirichlet(np.ones(4))
        parts = decompose(trace, comparator)
        gap = parts["regret_over_n"] + parts["martingale"]
        assert abs(parts["gen"] - gap) < 1e-12


def test_martingale_term_manual():
    _, _, _, trace = _setup(seed=3)
    manual = -np.mean([p @ c for p, c in zip(trace.posteriors, trace.costs)])
    parts = decompose(trace, uniform_prior(4))
    assert parts["martingale"] == pytest.approx(manual, abs=1e-14)


def test_generalization_gap_manual():
    model, space, path, trace = _setup(seed=4)
    comparator = uniform_prior(4)
    test_vec = space.loss_table @ model.stationary
    emp = space.loss_table[:, path.symbols].mean(axis=1)
    manual = comparator @ (test_vec - emp)
    assert decompose(trace, comparator)["gen"] == pytest.approx(manual, abs=1e-14)


def test_instance_regrets_sum_to_realized_regret():
    for d in (1, 2, 5):
        _, _, _, trace = _setup(seed=6, d=d)
        comparator = np.array([0.4, 0.3, 0.2, 0.1])
        per = instance_regrets(trace, comparator, d)
        assert per.shape == (d,)
        parts = decompose(trace, comparator)
        assert per.sum() == pytest.approx(parts["regret"], abs=1e-12)
        assert parts["regret_over_n"] == parts["regret"] / trace.n


def test_delay_contract_cost_at_t_affects_plays_from_t_plus_d():
    """Perturbing the cost of round t must leave plays before t+d unchanged."""
    rng = np.random.default_rng(12)
    costs = rng.uniform(-1, 1, size=(30, 3))
    d, t_hit = 4, 10
    bumped = costs.copy()
    bumped[t_hit, 0] += 0.5  # a shift of every entry would not move a softmax
    prior = uniform_prior(3)
    ref = play_costs(costs, np.zeros(3), make_learner("ewa", prior, 0.5, d=d), d)
    alt = play_costs(bumped, np.zeros(3), make_learner("ewa", prior, 0.5, d=d), d)
    for t in range(30):
        same = np.array_equal(ref.posteriors[t], alt.posteriors[t])
        affected = t >= t_hit + d and t % d == t_hit % d
        assert same == (not affected)


def test_rogue_learner_triggers_protocol_error():
    class Rogue:
        def act(self):
            return np.array([1.5, -0.5])

        def observe(self, cost):
            pass

    with pytest.raises(ProtocolError):
        play_costs(np.zeros((3, 2)), np.zeros(2), Rogue(), 1)


def test_ftrl_sqnorm_game_also_satisfies_identity():
    _, _, _, trace = _setup(seed=8, algorithm="ftrl-sqnorm")
    parts = decompose(trace, uniform_prior(4))
    assert abs(parts["gen"] - parts["regret_over_n"] - parts["martingale"]) \
        < 1e-12


def test_indicator_game_costs_are_centered_losses(symmetric_quarter_chain,
                                                  indicator_space):
    path = sample_path(symmetric_quarter_chain, 10, seed=2)
    learner = make_learner("ewa", uniform_prior(2), 0.1, d=1)
    trace = play_costs(indicator_space.loss_rows(path.symbols),
                       limit_test_losses(indicator_space, symmetric_quarter_chain)[0],
                       learner, 1)
    test_vec = indicator_space.loss_table @ symmetric_quarter_chain.stationary
    expected = indicator_space.loss_table[:, path.symbols].T - test_vec
    np.testing.assert_allclose(trace.costs, expected, atol=1e-14)


def test_decompose_rejects_a_nan_cost():
    # abs(nan) > tol is False, so a NaN residual must fail the check itself
    trace = GameTrace(posteriors=np.full((2, 2), 0.5),
                      loss_rows=np.array([[0.2, np.nan], [0.1, 0.3]]),
                      limit=np.zeros(2))
    with pytest.raises(ConsistencyError, match="residual=nan"):
        decompose(trace, uniform_prior(2))


def test_a_nan_play_is_a_protocol_error():
    # a NaN cost in round 1 makes every later EWA play NaN; NaN fails the
    # simplex check itself, so round 2 (the first to see that cost) is named
    learner = make_learner("ewa", uniform_prior(2), 0.4, d=1)
    costs = np.array([[np.nan, 0.2], [0.1, 0.3], [0.4, 0.0]])
    with pytest.raises(ProtocolError, match="round 2"):
        play_costs(costs, np.zeros(2), learner, 1)
