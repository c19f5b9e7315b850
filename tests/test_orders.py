"""The game's stated reduction orders, against the formulas they replaced.

The oracle is the C-ordered numpy of each formula: a play per round from the
1-D softmax with numpy's own sum, row sums of C-ordered rows, the C-ordered
``rows.mean(axis=0)`` and ``np.sum`` of the C-ordered regret product.  The
package sums over hypotheses in index order, which numpy's sums are for fewer
than 8 hypotheses, and over rounds as the C-ordered mean does: in round order,
pairwise for one hypothesis.  So at W <= 7 every play, comparator and part of
``decompose`` has the oracle's bits; from W = 8 on the plays, M_n and the
regret may move in the last bits; and no value depends on the layout.  The
layout test also plays W = 400 at n <= 150, n = 1 included, where numpy's own
reduce over hypotheses would sum pairwise.  ``online._sum_hypotheses``, the one
sum over hypotheses, is checked on its own against a left-to-right Python sum.
The FTRL play's simplex projection, and the one ``take`` that gathers a table
loss's rows, are checked bit for bit against the formulas they replaced; the
gather keeps their strides too.
"""

import itertools
import math

import numpy as np
import pytest

from mixgame import (DiscountedLoss, GameTrace, HypothesisSpace, ValidationError,
                     decompose, erm, ewa_step, gibbs_posterior, project_simplex,
                     sample_path)
from mixgame.experiments import delayed_ewa_posteriors
from mixgame.learner import _round_mean
from mixgame.online import _sum_hypotheses

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
    for n, W in [*itertools.product(NS, WS), *((n, 400) for n in NS if n <= 150)]:
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


def left_to_right(column):
    """Python's float additions, one hypothesis at a time (``sum`` may compensate)."""
    total = column[0]
    for x in column[1:]:
        total += x
    return total


@pytest.mark.parametrize("W", [9, 400])
def test_sum_hypotheses_adds_in_index_order(W):
    rng = np.random.default_rng(W)
    pairwise = 0
    for n in (1, 7, 150):
        # magnitudes 16 decades apart, so that every order of addition rounds apart
        a = rng.random((W, n)) * 10.0 ** rng.uniform(-8, 8, (W, 1))
        want = [left_to_right(column) for column in a.T.tolist()]
        assert _sum_hypotheses(a).tolist() == want, n
        assert _sum_hypotheses(np.ascontiguousarray(a[:, :1])).tolist() == want[:1], n
        assert _sum_hypotheses(a[:, 0].copy()) == want[0], n
        pairwise += sum(np.add.reduce(c) != w for c, w in zip(a.T.copy(), want))
    assert pairwise > 0  # numpy's own sum of a (W,) array is another order


def oracle_project_simplex(v) -> np.ndarray:
    """The projection as it was first written, verbatim."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    # NaN sorts to the front of u, as +inf does, and -inf to the back
    if math.isfinite(u[0]) and math.isfinite(u[-1]):
        css = np.add.accumulate(u) - 1.0
        (above,) = (u - css / np.arange(1.0, len(v) + 1) > 0).nonzero()
        if len(above) and math.isfinite(css[-1]):
            rho = int(above[-1]) + 1
            return np.maximum(v - css[rho - 1] / rho, 0.0)
    raise ValidationError("cannot project a non-finite or overflowing point "
                          "onto the simplex")


def _points_to_project(rng, W):
    for scale in 10.0 ** np.arange(-3, 4):
        normal = rng.normal(size=(20, W)) * scale
        yield from normal
        yield from np.round(normal, 1)  # ties, and zeros of either sign
    yield from rng.dirichlet(np.ones(W), size=20)  # already on the simplex
    yield from np.eye(W)[rng.permutation(W)[:20]]  # one-hots
    yield from -np.abs(rng.normal(size=(20, W)))  # all negative


@pytest.mark.parametrize("W", [1, 2, 3, 9, 50, 400])
def test_project_simplex_has_the_bits_of_the_formula_it_replaced(W):
    rng = np.random.default_rng(100 + W)
    for i, point in enumerate(_points_to_project(rng, W)):
        want = oracle_project_simplex(point).tobytes()
        assert project_simplex(point).tobytes() == want, i


@pytest.mark.parametrize("point", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.5],
                                   [1e300, 5.0]])
def test_project_simplex_refuses_what_the_formula_it_replaced_refuses(point):
    # [1e300, 5.0] is finite, but 1e300 - 1 rounds to 1e300: no entry exceeds
    # its threshold
    for project in (project_simplex, oracle_project_simplex):
        with pytest.raises(ValidationError, match="non-finite or overflowing"):
            project(np.array(point))


def oracle_on_prefixes(self, z) -> np.ndarray:
    """``HypothesisSpace._on_prefixes`` as fancy indexing wrote it, verbatim."""
    # z[j] holds symbol j of every prefix; a short window pads with z[0]
    cols = tuple(z[max(0, j)] for j in range(len(z) - self.m, len(z)))
    return self.loss_table[(slice(None),) + cols]


def oracle_loss_rows(self, symbols) -> np.ndarray:
    """``HypothesisSpace.loss_rows`` on fancy indexing, verbatim."""
    symbols = np.asarray(symbols)
    # round t reads the m-window ending at z_t of the symbols left-padded
    # with m - 1 copies of z_0, the padding rule of _on_prefixes
    padded = np.concatenate([np.repeat(symbols[:1], self.m - 1), symbols])
    return self._on_prefixes([padded[j:j + len(symbols)] for j in range(self.m)]).T


class OracleSpace(HypothesisSpace):
    """A table loss whose ``values`` and ``block_table`` read the oracle gather."""

    _on_prefixes = oracle_on_prefixes
    loss_rows = oracle_loss_rows


def _same_array(got, want):
    return (got.shape, got.strides, got.tobytes()) == (want.shape, want.strides,
                                                      want.tobytes())


@pytest.mark.parametrize("W", [1, 2, 3, 9, 50])
def test_one_take_gathers_the_bits_and_strides_of_fancy_indexing(W):
    rng = np.random.default_rng(300 + W)
    for A, m in itertools.product((1, 2, 4), (1, 2, 3)):
        table = rng.random((W,) + (A,) * m)
        loss, oracle = HypothesisSpace(table), OracleSpace(table)
        for n in (1, 2, 7, 150):  # n < m pads every window of a round
            symbols = rng.integers(A, size=n)
            case = (A, m, n)
            assert _same_array(loss.loss_rows(symbols), oracle.loss_rows(symbols)), case
            for L in range(1, m + 2):  # L < m pads, L = m + 1 reads the last m
                # k = n prefixes as columns, contiguous or strided as the
                # Monte-Carlo phi passes them
                for block in (rng.integers(A, size=(L, n)), rng.integers(A, size=(n, L)).T):
                    assert _same_array(loss.values(block), oracle.values(block)), \
                        (*case, L, block.strides)
                # one prefix: fancy indexing read its (W,) losses as a view of the
                # table, strided by A^m, and the take copies them; the bits agree
                prefix = rng.integers(A, size=L)
                assert loss.values(prefix).tobytes() == oracle.values(prefix).tobytes()
        for L in range(1, m + 2):
            assert _same_array(loss.block_table(L), oracle.block_table(L)), (A, m, L)
