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
``ftrl_step`` projects by ``project_simplex``, in such a count too: the thresholds
are the accumulate of the descending sort, minus 1, divided by the ranks 1..W,
and the last one below its sorted entry is itself subtracted from the point.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ValidationError


@functools.cache
def _ranks(W: int) -> np.ndarray:
    """The read-only ranks 1.0, ..., W that divide a projection's sums."""
    k = np.arange(1.0, W + 1)
    k.flags.writeable = False
    return k


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the simplex via sort-and-threshold, in a numpy
    call count that does not grow with W; an empty point, or one too large for
    it (a non-finite entry or sum, say), is a ValidationError.

    With u the entries in descending order, theta_k = (u_1 + ... + u_k - 1) / k:
    the accumulate of u, minus 1, divided by the ranks.  rho is the last k with
    u_k > theta_k, and the play is max(v - theta_rho, 0).
    """
    v = np.asarray(v, dtype=float)
    u = v.copy()
    u.sort()
    W = len(u)
    # NaN sorts to the back of u, as +inf does, and -inf to the front
    if W and math.isfinite(u[0]) and math.isfinite(u[-1]):
        u = u[::-1]
        theta = np.add.accumulate(u)
        theta -= 1.0
        theta /= _ranks(W)
        # for finite values u_k - theta_k > 0 exactly when u_k > theta_k
        (above,) = (u > theta).nonzero()
        if len(above) and math.isfinite(theta[-1]):
            p = v - theta[above[-1]]
            return np.maximum(p, 0.0, out=p)
    raise ValidationError("cannot project an empty, non-finite or overflowing "
                          "point onto the simplex")


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
        if not 0 < eta < math.inf:  # NaN fails it
            raise ValidationError("eta must be positive and finite")
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
    if not 0 < eta < math.inf or alpha <= 0 or B < 0 or d < 1 or n < 1:
        raise ValidationError("need 0 < eta < inf, alpha > 0, B >= 0, d >= 1, n >= 1")
    return d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
