import csv

import numpy as np
import pytest

from mixgame import (ConsistencyError, GameTrace, HypothesisSpace,
                     PosteriorDist, ProtocolError, decompose,
                     export_trace_csv, generalization_gap,
                     instance_regrets, make_learner, martingale_term,
                     play_costs, realized_regret, run_game, sample_path,
                     two_state_chain)

from conftest import random_chain, random_space


def _setup(seed=0, n=80, d=3, algorithm="ewa"):
    rng = np.random.default_rng(seed)
    model = random_chain(rng, 2)
    space = random_space(rng, 4, 2)
    path = sample_path(model, n, seed=seed + 1)
    learner = make_learner(algorithm, PosteriorDist.uniform(4), 0.4, d=d)
    return model, space, path, run_game(model, space, path, learner, d)


def test_decomposition_identity_small():
    rng = np.random.default_rng(10)
    for seed in range(5):
        model, space, path, trace = _setup(seed=seed, d=(seed % 3) + 1)
        comparator = PosteriorDist.from_probs(rng.dirichlet(np.ones(4)))
        parts = decompose(trace, comparator)
        gap = parts["regret_over_n"] + parts["martingale"]
        assert abs(parts["gen"] - gap) < 1e-12


def test_martingale_term_manual():
    _, _, _, trace = _setup(seed=3)
    manual = -np.mean([p @ c for p, c in zip(trace.posteriors, trace.costs)])
    assert martingale_term(trace) == pytest.approx(manual, abs=1e-14)


def test_generalization_gap_manual():
    model, space, path, trace = _setup(seed=4)
    comparator = PosteriorDist.uniform(4)
    test_vec = space.loss_table @ model.stationary
    emp = space.loss_table[:, path.symbols].mean(axis=1)
    manual = comparator.probs @ (test_vec - emp)
    assert generalization_gap(trace, comparator) == pytest.approx(manual,
                                                                  abs=1e-14)


def test_instance_regrets_sum_to_realized_regret():
    for d in (1, 2, 5):
        _, _, _, trace = _setup(seed=6, d=d)
        comparator = PosteriorDist.from_probs(np.array([0.4, 0.3, 0.2, 0.1]))
        per = instance_regrets(trace, comparator, d)
        assert per.shape == (d,)
        assert per.sum() == pytest.approx(realized_regret(trace, comparator),
                                          abs=1e-12)


def test_delay_contract_cost_at_t_affects_plays_from_t_plus_d():
    """Perturbing the cost of round t must leave plays before t+d unchanged."""
    rng = np.random.default_rng(12)
    costs = rng.uniform(-1, 1, size=(30, 3))
    d, t_hit = 4, 10
    bumped = costs.copy()
    bumped[t_hit] += 0.5
    prior = PosteriorDist.uniform(3)
    ref = play_costs(costs, make_learner("ewa", prior, 0.5, d=d), d)
    alt = play_costs(bumped, make_learner("ewa", prior, 0.5, d=d), d)
    for t in range(30):
        same = np.array_equal(ref.posteriors[t], alt.posteriors[t])
        affected = t >= t_hit + d and t % d == t_hit % d
        assert same == (not affected)


def test_rogue_learner_triggers_protocol_error():
    class Rogue:
        def act(self):
            return PosteriorDist.uniform(2)

        def observe(self, cost):
            pass

    rogue = Rogue()
    rogue.act = lambda: type("P", (), {"probs": np.array([1.5, -0.5])})()
    with pytest.raises(ProtocolError):
        play_costs(np.zeros((3, 2)), rogue, 1)


def test_ftrl_sqnorm_game_also_satisfies_identity():
    _, _, _, trace = _setup(seed=8, algorithm="ftrl-sqnorm")
    parts = decompose(trace, PosteriorDist.uniform(4))
    assert abs(parts["gen"] - parts["regret_over_n"] - parts["martingale"]) \
        < 1e-12


def test_export_trace_csv_schema(tmp_path):
    model, space, path, trace = _setup(seed=9, n=25, d=2)
    out = tmp_path / "trace.csv"
    export_trace_csv(trace, PosteriorDist.uniform(4), out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z_t", "cost_dot_Pt", "regret_partial",
                       "mn_partial"]
    assert len(rows) == 26
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 26))
    # partial sums in the last row agree with the full-trace quantities
    comparator = PosteriorDist.uniform(4)
    assert float(rows[-1][3]) == pytest.approx(
        realized_regret(trace, comparator), abs=1e-10)
    assert float(rows[-1][4]) == pytest.approx(martingale_term(trace),
                                               abs=1e-10)


def test_indicator_game_costs_are_centered_losses(symmetric_quarter_chain,
                                                  indicator_space):
    path = sample_path(symmetric_quarter_chain, 10, seed=2)
    learner = make_learner("ewa", PosteriorDist.uniform(2), 0.1, d=1)
    trace = run_game(symmetric_quarter_chain, indicator_space, path, learner, 1)
    test_vec = indicator_space.loss_table @ symmetric_quarter_chain.stationary
    expected = indicator_space.loss_table[:, path.symbols].T - test_vec
    np.testing.assert_allclose(trace.costs, expected, atol=1e-14)


def test_decompose_rejects_a_nan_cost():
    # abs(nan) > tol is False, so a NaN residual must fail the check itself
    trace = GameTrace(n=2, d=1, symbols=np.zeros(2, dtype=np.int64),
                      posteriors=np.full((2, 2), 0.5),
                      costs=np.array([[0.2, np.nan], [0.1, 0.3]]),
                      loss_rows=np.zeros((2, 2)), test_loss_vec=np.zeros(2))
    with pytest.raises(ConsistencyError, match="residual=nan"):
        decompose(trace, PosteriorDist.uniform(2))
