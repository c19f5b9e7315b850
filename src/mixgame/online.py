"""Online learners over the probability simplex and their regret-bound formulas.

Two learners are provided, one per play rule: exponential weights, which is
follow-the-regularized-leader with the negative-entropy regularizer, and
follow-the-regularized-leader with the prior-centered half-squared-norm
regularizer.  Each is delay-tolerant as d independent copies, one per residue
class of rounds, held as one (d, W) array of per-class cost sums; a play is a
function of its class's sum, ``ewa_step`` or ``ftrl_step``.  A prior and every
play are (W,) probability arrays; EWA tilts the prior's log, taken once.
``LEARNERS[algorithm](prior, eta, d)`` builds the learner a config names.
``ewa_step`` takes one sum or a sum per round and is the softmax of every Gibbs
posterior.  It and a game's accounting add hypotheses by ``_sum_hypotheses``, in
index order and in a numpy call count that does not grow with W.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ValidationError


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the simplex via sort-and-threshold; a point
    too large for it (a non-finite entry or sum, say) is a ValidationError."""
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


def _sum_hypotheses(a: np.ndarray) -> np.ndarray:
    """Add the hypotheses of a (W,) array, or of each column of a C-ordered (W, n)
    one, in index order in one numpy call: a reduce, which numpy runs row by row,
    or an accumulate down a (W,) or (W, 1) array, which the reduce sums pairwise."""
    return np.add.reduce(a) if a.size > len(a) else np.add.accumulate(a)[-1]


def ewa_step(prior_log: np.ndarray, eta: float, S: np.ndarray) -> np.ndarray:
    """The exponential-weights play softmax(prior_log - eta * S) of a (W,) cost
    sum S, or one play per row of an (n, W) S, in a fixed number of numpy calls.

    Both give the same bits, in any layout of S: the max is exact in any order,
    and the normalizer is the ``_sum_hypotheses`` of the C-ordered weights.
    """
    lw = np.subtract(prior_log, eta * S, order="F").T  # (W,) or C-ordered (W, n)
    lw -= np.maximum.reduce(lw)
    p = np.exp(lw, out=lw)
    p /= _sum_hypotheses(p)
    return p.T


def ftrl_step(prior_probs: np.ndarray, eta: float, S: np.ndarray) -> np.ndarray:
    """The FTRL play after cost sum S: the simplex projection of
    prior_probs - eta * S.

    The regularizer is prior-centered, h(P) = 0.5 * ||P - P_1||^2, so the
    zero-cost play is the prior.  The negative-entropy play is ``ewa_step``.
    """
    return project_simplex(prior_probs - eta * S)


class _ClassSums:
    """The cost sums of d copies of a learner, one per residue class of rounds:
    row (t-1) mod d plays at round t, and the cost of round s is added in place
    to row (s-1) mod d.  With d = 1 this is the learner itself.

    Each learner defines its own ``act`` and ``observe``, since perfbench's
    tracer wraps the methods a class itself holds.
    """

    def __init__(self, prior: np.ndarray, eta: float, d: int = 1):
        if eta <= 0:
            raise ValidationError("eta must be positive")
        if d < 1:
            raise ValidationError("delay must be at least 1")
        self.prior, self.eta = np.asarray(prior, dtype=float), eta
        with np.errstate(divide="ignore"):  # a hypothesis the prior gives no mass
            self.prior_log = np.log(self.prior)
        sums = np.zeros((d, len(self.prior)))
        # views of the rows in turn: one cycle plays them, the other adds to them
        self._play_rows, self._cost_rows = itertools.cycle(sums), itertools.cycle(sums)

    def _add(self, cost) -> None:
        row = next(self._cost_rows)
        row += cost


class EWA(_ClassSums):
    """Exponential weights; plays the ``ewa_step`` of its class's cost sum."""

    def act(self) -> np.ndarray:
        return ewa_step(self.prior_log, self.eta, next(self._play_rows))

    def observe(self, cost: np.ndarray) -> None:
        self._add(cost)


class FTRL(_ClassSums):
    """Squared-norm FTRL; plays the ``ftrl_step`` of its class's cost sum."""

    def act(self) -> np.ndarray:
        return ftrl_step(self.prior, self.eta, next(self._play_rows))

    def observe(self, cost: np.ndarray) -> None:
        self._add(cost)


# online.algorithm -> its learner, built from (prior, eta, d)
LEARNERS = {"ewa": EWA, "ftrl-sqnorm": FTRL}


def delayed_regret_bound(h_gap: float, eta: float, d: int, n: int,
                         alpha: float = 1.0, B: float = 1.0) -> float:
    """d * h_gap/eta + eta * B^2 * n / (2 alpha): the d per-class copies'
    bounds summed, for costs of dual norm <= B; EWA is h_gap = KL, B = alpha = 1."""
    if eta <= 0 or alpha <= 0 or B < 0 or d < 1 or n < 1:
        raise ValidationError("need eta > 0, alpha > 0, B >= 0, d >= 1, n >= 1")
    return d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
