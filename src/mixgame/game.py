"""The generalization game with delayed feedback, and its exact decomposition.

The game pits an online learner against cost vectors c_t(w) = loss(w, Z_t)
minus the exact test loss of w.  The learner's play at round t may depend
only on costs of rounds up to t - d.  Whatever the learner and delay, the
identity

    gen = regret/n + martingale

holds exactly (it is algebra, not probability), and ``decompose`` asserts it.
Its sums have fixed orders in any layout: over hypotheses in index order, the
mean loss row in round order and the regret over its round-major flattening.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ProtocolError, ValidationError
from .learner import _round_mean

_IDENTITY_TOL = 1e-10
_SIMPLEX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GameTrace:
    """One game: the learner's plays, the path's loss rows and the limit test loss.

    Construction checks every play, whichever learner made it (a play off the
    simplex raises ProtocolError naming its round), computes the costs unless
    passed and the (W,) ``mean_row`` that ``decompose`` and the comparator read,
    and stores each (n, W) array as the view of a contiguous (W, n) one.
    """

    posteriors: np.ndarray         # (n, W) learner plays
    loss_rows: np.ndarray          # (n, W) loss(w, Z_t) per round
    limit: np.ndarray              # (W,) limiting test losses
    costs: np.ndarray | None = None  # (n, W) cost vectors

    def __post_init__(self):
        P, rows = map(np.asfortranarray, (self.posteriors, self.loss_rows))
        costs = np.asfortranarray(rows - self.limit if self.costs is None else self.costs)
        # sums over hypotheses in index order; NaN fails the first comparison
        off = (~(np.abs(functools.reduce(np.add, P.T) - 1) <= _SIMPLEX_TOL)
               | functools.reduce(np.logical_or, (P < -_SIMPLEX_TOL).T))
        if off.any():
            raise ProtocolError("learner emitted a non-simplex play at round "
                                f"{int(np.argmax(off)) + 1}")
        vars(self).update(posteriors=P, loss_rows=rows, costs=costs,  # frozen: set in __dict__
                          mean_row=_round_mean(rows))

    @property
    def n(self) -> int:
        return len(self.loss_rows)


def play_costs(loss_rows: np.ndarray, limit: np.ndarray, learner,
               d: int) -> GameTrace:
    """Run any learner on the costs ``loss_rows - limit`` with delay d.

    ``act()`` returns the (W,) play; before acting at round t the learner has
    been fed costs c_1 .. c_{t-d}, in order, through ``observe``.  Raises
    ProtocolError if a play leaves the simplex.
    """
    loss_rows = np.asfortranarray(loss_rows, dtype=float)
    n, W = loss_rows.shape
    if not 1 <= d <= n:
        raise ValidationError("need 1 <= d <= n")
    costs = loss_rows - limit
    posts = np.empty((W, n)).T
    with np.errstate(over="ignore", invalid="ignore"):  # GameTrace names a spoiled play
        for t in range(n):  # 0-indexed round
            try:
                posts[t] = learner.act()
            except ValidationError:  # FTRL's projection of a non-finite point
                posts[t] = np.nan
            if t + 1 >= d:
                learner.observe(costs[t + 1 - d])
    return GameTrace(posts, loss_rows, limit, costs)


def decompose(trace: GameTrace, comparator: np.ndarray) -> dict:
    """Split the generalization gap of the (W,) comparator P* into regret/n plus
    the martingale term.

    gen = <P*, limit - mean loss row> is read from the raw loss rows, the
    regret is sum_t <P_t - P*, c_t> and M_n = -(1/n) sum_t <P_t, c_t>.  The
    identity is exact; a residual beyond 1e-10, or a NaN one (a NaN cost or
    play), signals an internal bug and raises ConsistencyError.
    """
    gen = float(comparator @ (trace.limit - trace.mean_row))
    regret = float(np.sum(np.ascontiguousarray((trace.posteriors - comparator)
                                               * trace.costs)))
    mart = float(-np.mean(functools.reduce(np.add, (trace.posteriors * trace.costs).T)))
    regret_over_n = regret / trace.n
    residual = gen - regret_over_n - mart
    if not abs(residual) <= _IDENTITY_TOL:
        raise ConsistencyError(f"decomposition identity violated: residual={residual:.3e}")
    return {"gen": gen, "regret": regret, "regret_over_n": regret_over_n,
            "martingale": mart, "residual": residual}
