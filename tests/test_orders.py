"""The game's stated reduction orders, against the formulas they replaced.

The oracle is the C-ordered numpy of each formula: a play per round from the
1-D softmax with numpy's own sum, row sums of C-ordered rows, the C-ordered
``rows.mean(axis=0)`` and ``np.sum`` of the C-ordered regret product.  The
package sums over hypotheses in index order, which numpy's sums are for fewer
than 8 hypotheses, and over rounds as the C-ordered mean does: in round order,
pairwise for one hypothesis.  So at W <= 7 every play, comparator and part of
``decompose`` has the oracle's bits; from W = 8 on the plays, M_n and the
regret may move in the last bits; and no value depends on the layout.
"""

import itertools

import numpy as np
import pytest

from mixgame import (DiscountedLoss, GameTrace, HypothesisSpace, decompose, erm,
                     ewa_step, gibbs_posterior, sample_path)
from mixgame.experiments import delayed_ewa_posteriors
from mixgame.learner import _round_mean

from conftest import random_chain

NS, WS = (1, 7, 150, 2000), (1, 2, 3, 7, 8, 9, 50)
LOSSES = ("static", "memory-3", "discounted")


def oracle_ewa_step(prior_log, eta, S):
    """The 1-D play: an exact max, then numpy's sum of the weights."""
    lw = prior_log - eta * S
    lw -= lw.max()
    p = np.exp(lw)
    return p / p.sum()


def oracle_plays(costs, prior_log, eta, d):
    """Per-class cumsums of C-ordered cost rows, then one 1-D play per round."""
    S = np.zeros_like(costs)
    for i in range(min(d, len(costs))):
        cls = costs[i::d]
        if len(cls) > 1:
            S[i + d::d] = np.cumsum(cls[:-1], axis=0)
    return np.array([oracle_ewa_step(prior_log, eta, s) for s in S])


def oracle_decompose(plays, rows, limit, p_star):
    costs = rows - limit
    regret = float(np.sum((plays - p_star) * costs))
    return {"gen": float(p_star @ (limit - rows.mean(axis=0))), "regret": regret,
            "regret_over_n": regret / len(rows),
            "martingale": float(-np.mean(np.sum(plays * costs, axis=1)))}


def _game(rng, n, W, kind):
    """Random C-ordered loss rows of one loss kind, a limit, d, eta and a log prior."""
    model = random_chain(rng, n_states=3)
    if kind == "static":
        loss = HypothesisSpace(rng.random((W, 3)))
    elif kind == "memory-3":
        loss = HypothesisSpace(rng.random((W, 3, 3, 3)))
    else:
        loss = DiscountedLoss(0.8, 0.2, rng.random((W, 3)))
    path = sample_path(model, n, int(rng.integers(99)))
    rows = np.ascontiguousarray(loss.loss_rows(path.symbols))
    limit = rng.random(W)
    d = int(rng.integers(1, n + 1))
    eta = float(rng.uniform(0.05, 3.0))
    prior_log = np.log(rng.dirichlet(np.ones(W)))
    return rows, limit, d, eta, prior_log


def _cases():
    rng = np.random.default_rng(31)
    for n, W, kind in itertools.product(NS, WS, LOSSES):
        yield (n, W, kind), _game(rng, n, W, kind)


def _close(got, want, W):
    """Bit-identical at W <= 7, else within 1e-13 in absolute value."""
    got, want = np.asarray(got), np.asarray(want)
    if W <= 7:
        return np.array_equal(got, want)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-13


def test_plays_comparators_and_parts_match_the_c_ordered_oracle():
    moved = 0
    for case, (rows, limit, d, eta, prior_log) in _cases():
        n, W, _ = case
        plays = delayed_ewa_posteriors(rows - limit, prior_log, eta, d)
        want = oracle_plays(rows - limit, prior_log, eta, d)
        assert _close(plays, want, W), case
        moved += not np.array_equal(plays, want)
        # the comparators read the mean loss row, with the oracle's bits at every W
        beta = float(np.random.default_rng(n * W).uniform(0.0, 2.0))
        mean = rows.mean(axis=0)
        assert np.array_equal(_round_mean(rows), mean), case
        trace = GameTrace(plays, rows, limit)
        assert np.array_equal(trace.mean_row, mean), case
        gibbs = gibbs_posterior(mean, n, beta)
        uniform_log = np.full(W, -np.log1p(W - 1))
        assert np.array_equal(gibbs, ewa_step(uniform_log, beta * n, mean)), case
        assert np.array_equal(erm(mean), np.eye(W)[np.argmin(mean)]), case
        parts = decompose(trace, gibbs)
        # the oracle's own plays: only the order of each sum is compared
        exact = decompose(GameTrace(want, rows, limit), gibbs)
        oracle = oracle_decompose(want, rows, limit, gibbs)
        # the regret sums n rounds (|regret| reaches 730 here, where one ulp
        # is 1.1e-13), so from W = 8 on its per-round value is compared
        for key in ("gen", "regret" if W <= 7 else "regret_over_n", "martingale"):
            assert _close(parts[key], oracle[key], W), (case, key)
            assert _close(exact[key], oracle[key], W), (case, key)
        assert exact["regret"] == oracle["regret"], case  # one order at every W
    assert moved > 0  # some wide game plays other bits than numpy's pairwise sum


@pytest.mark.parametrize("kind", LOSSES)
def test_c_and_f_ordered_inputs_give_the_same_bits(kind):
    rng = np.random.default_rng(len(kind))
    for n, W in itertools.product(NS, WS):
        rows, limit, d, eta, prior_log = _game(rng, n, W, kind)
        costs = rows - limit
        plays = delayed_ewa_posteriors(costs, prior_log, eta, d)
        assert np.array_equal(delayed_ewa_posteriors(np.asfortranarray(costs),
                                                     prior_log, eta, d), plays)
        S = np.cumsum(costs, axis=0)
        assert np.array_equal(ewa_step(prior_log, eta, np.asfortranarray(S)),
                              ewa_step(prior_log, eta, S))
        # each round's 1-D play is its row of the (n, W) plays
        assert np.array_equal(ewa_step(prior_log, eta, S[-1]),
                              ewa_step(prior_log, eta, S)[-1])
        F = np.asfortranarray(rows)
        c_trace = GameTrace(np.ascontiguousarray(plays), rows, limit)
        f_trace = GameTrace(np.asfortranarray(plays), F, limit)
        # the comparators read the mean loss row, the same bits in either layout
        assert np.array_equal(f_trace.mean_row, c_trace.mean_row), (n, W)
        comparator = gibbs_posterior(c_trace.mean_row, n, 0.5)
        c_parts = decompose(c_trace, comparator)
        f_parts = decompose(f_trace, comparator)
        assert c_parts == f_parts, (n, W)
