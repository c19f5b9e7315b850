"""The generalization game with delayed feedback, and its exact decomposition.

The game pits an online learner against cost vectors c_t(w) = loss(w, Z_t)
minus the exact test loss of w.  The learner's play at round t may depend
only on costs of rounds up to t - d.  Whatever the learner and delay, the
identity

    gen = regret/n + martingale

holds exactly (it is algebra, not probability), and ``decompose`` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ProtocolError, ValidationError
from .learner import PosteriorDist

_IDENTITY_TOL = 1e-10
_SIMPLEX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GameTrace:
    """One game: the learner's plays, the path's loss rows and the limit test loss.

    Construction checks every play, whichever learner made it (a play off the
    simplex raises ProtocolError naming its round), then computes the costs.
    """

    posteriors: np.ndarray         # (n, W) learner plays
    loss_rows: np.ndarray          # (n, W) loss(w, Z_t) per round
    limit: np.ndarray              # (W,) limiting test losses
    costs: np.ndarray = field(init=False)  # (n, W) cost vectors

    def __post_init__(self):
        P, ones = self.posteriors, np.ones(self.posteriors.shape[1])
        # row sums and negative-entry counts; NaN fails the first comparison
        off = ~(np.abs(P @ ones - 1) <= _SIMPLEX_TOL) | ((P < -_SIMPLEX_TOL) @ ones > 0)
        if off.any():
            raise ProtocolError("learner emitted a non-simplex play at round "
                                f"{int(np.argmax(off)) + 1}")
        object.__setattr__(self, "costs", self.loss_rows - self.limit)

    @property
    def n(self) -> int:
        return len(self.loss_rows)


def play_costs(loss_rows: np.ndarray, limit: np.ndarray, learner,
               d: int) -> GameTrace:
    """Run any learner on the costs ``loss_rows - limit`` with delay d.

    Before acting at round t the learner has been fed costs c_1 .. c_{t-d},
    in order.  Raises ProtocolError if a play leaves the simplex.
    """
    loss_rows = np.asarray(loss_rows, dtype=float)
    n, W = loss_rows.shape
    if not 1 <= d <= n:
        raise ValidationError("need 1 <= d <= n")
    costs = loss_rows - limit
    posts = np.empty((n, W))
    with np.errstate(over="ignore", invalid="ignore"):  # GameTrace names a spoiled play
        for t in range(n):  # 0-indexed round
            try:
                posts[t] = learner.act().probs
            except ValidationError:  # log-weights with no finite normalizer
                posts[t] = np.nan
            if t + 1 >= d:
                learner.observe(costs[t + 1 - d])
    return GameTrace(posts, loss_rows, limit)


def decompose(trace: GameTrace, comparator: PosteriorDist) -> dict:
    """Split the generalization gap into regret/n plus the martingale term.

    gen = <P*, limit - mean loss row> is read from the raw loss rows, the
    regret is sum_t <P_t - P*, c_t> and M_n = -(1/n) sum_t <P_t, c_t>.  The
    identity is exact; a residual beyond 1e-10, or a NaN one (a NaN cost or
    play), signals an internal bug and raises ConsistencyError.
    """
    p_star = comparator.probs
    gen = float(p_star @ (trace.limit - trace.loss_rows.mean(axis=0)))
    regret = float(np.sum((trace.posteriors - p_star) * trace.costs))
    mart = float(-np.mean(np.sum(trace.posteriors * trace.costs, axis=1)))
    regret_over_n = regret / trace.n
    residual = gen - regret_over_n - mart
    if not abs(residual) <= _IDENTITY_TOL:
        raise ConsistencyError(f"decomposition identity violated: residual={residual:.3e}")
    return {"gen": gen, "regret": regret, "regret_over_n": regret_over_n,
            "martingale": mart, "residual": residual}
