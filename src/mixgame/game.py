"""The generalization game with delayed feedback, and its exact decomposition.

The game pits an online learner against cost vectors c_t(w) = loss(w, Z_t)
minus the exact test loss of w.  The learner's play at round t may depend
only on costs of rounds up to t - d.  Whatever the learner and delay, the
identity

    gen = regret/n + martingale

holds exactly (it is algebra, not probability), and ``decompose`` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ProtocolError, ValidationError
from .learner import HypothesisSpace, PosteriorDist, test_losses
from .process import ProcessModel, SamplePath
from .reporting import write_csv

_IDENTITY_TOL = 1e-10
_SIMPLEX_TOL = 1e-8


@dataclass(frozen=True)
class GameTrace:
    """Per-round record of one game: plays, costs, and the raw loss rows."""

    n: int
    d: int
    symbols: np.ndarray            # (n,) realized data symbols
    posteriors: np.ndarray         # (n, W) learner plays
    costs: np.ndarray              # (n, W) cost vectors
    loss_rows: np.ndarray          # (n, W) loss(w, Z_t) per round
    test_loss_vec: np.ndarray      # (W,) exact test losses

    @property
    def per_round_cost(self) -> np.ndarray:
        """<P_t, c_t> for every round."""
        return np.sum(self.posteriors * self.costs, axis=1)


def play_costs(costs: np.ndarray, learner, d: int,
               symbols: np.ndarray | None = None,
               loss_rows: np.ndarray | None = None,
               test_loss_vec: np.ndarray | None = None) -> GameTrace:
    """Run any learner against a precomputed (n, W) cost matrix with delay d.

    Before acting at round t the learner has been fed costs c_1 .. c_{t-d},
    in order.  Raises ProtocolError if a play leaves the simplex.
    """
    costs = np.asarray(costs, dtype=float)
    n, W = costs.shape
    if not 1 <= d <= n:
        raise ValidationError("need 1 <= d <= n")
    posts = np.empty((n, W))
    for t in range(n):  # 0-indexed round
        try:
            p = learner.act().probs
        except ValidationError:  # log-weights with no finite normalizer
            p = np.full(W, np.nan)  # which fails the check below
        if not (abs(p.sum() - 1.0) <= _SIMPLEX_TOL and p.min() >= -_SIMPLEX_TOL):
            raise ProtocolError(f"learner emitted a non-simplex play at round {t + 1}")
        posts[t] = p
        if t + 1 >= d:
            learner.observe(costs[t + 1 - d])
    if symbols is None:
        symbols = np.full(n, -1, dtype=np.int64)
    if loss_rows is None:
        loss_rows = costs  # caller supplied raw costs directly
    if test_loss_vec is None:
        test_loss_vec = np.zeros(W)
    return GameTrace(n=n, d=d, symbols=np.asarray(symbols),
                     posteriors=posts, costs=costs, loss_rows=loss_rows,
                     test_loss_vec=test_loss_vec)


def run_game(model: ProcessModel, space: HypothesisSpace, path: SamplePath,
             learner, d: int) -> GameTrace:
    """Play the generalization game along a sampled path."""
    tl = test_losses(space, model)
    loss_rows = space.loss_rows(path.symbols)  # (n, W)
    costs = loss_rows - tl[None, :]
    return play_costs(costs, learner, d, symbols=path.symbols,
                      loss_rows=loss_rows, test_loss_vec=tl)


def martingale_term(trace: GameTrace) -> float:
    """M_n = -(1/n) sum_t <P_t, c_t>."""
    return float(-np.mean(trace.per_round_cost))


def realized_regret(trace: GameTrace, comparator: PosteriorDist) -> float:
    """sum_t <P_t - P*, c_t> for a fixed comparator distribution."""
    diff = trace.posteriors - comparator.probs[None, :]
    return float(np.sum(diff * trace.costs))


def instance_regrets(trace: GameTrace, comparator: PosteriorDist,
                     d: int) -> np.ndarray:
    """Per-residue-class regrets; their sum is the total regret exactly."""
    diff = trace.posteriors - comparator.probs[None, :]
    per_round = np.sum(diff * trace.costs, axis=1)
    return np.array([per_round[i::d].sum() for i in range(d)])


def generalization_gap(trace: GameTrace, comparator: PosteriorDist) -> float:
    """<P*, test loss - mean training loss>, computed from the raw loss rows."""
    return float(comparator.probs @ (trace.test_loss_vec - trace.loss_rows.mean(axis=0)))


def decompose(trace: GameTrace, comparator: PosteriorDist) -> dict:
    """Split the generalization gap into regret/n plus the martingale term.

    The identity is exact; a residual beyond 1e-10, or a NaN one (a NaN
    cost or play), signals an internal bug and raises ConsistencyError.
    """
    gen = generalization_gap(trace, comparator)
    regret_over_n = realized_regret(trace, comparator) / trace.n
    mart = martingale_term(trace)
    residual = gen - regret_over_n - mart
    if not abs(residual) <= _IDENTITY_TOL:
        raise ConsistencyError(f"decomposition identity violated: residual={residual:.3e}")
    return {"gen": gen, "regret_over_n": regret_over_n, "martingale": mart,
            "residual": residual}


def export_trace_csv(trace: GameTrace, comparator: PosteriorDist, path) -> None:
    """Write the per-round trace: t, z_t, cost_dot_Pt, regret_partial, mn_partial."""
    per_round = trace.per_round_cost
    comp_cost = trace.costs @ comparator.probs
    regret_partial = np.cumsum(per_round - comp_cost)
    mn_partial = -np.cumsum(per_round) / np.arange(1, trace.n + 1)
    rows = [
        [t + 1, int(trace.symbols[t]), per_round[t], regret_partial[t], mn_partial[t]]
        for t in range(trace.n)
    ]
    write_csv(path, ["t", "z_t", "cost_dot_Pt", "regret_partial", "mn_partial"], rows)
