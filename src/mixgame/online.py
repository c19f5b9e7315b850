"""Online learners over the probability simplex and their regret-bound formulas.

Two learners are provided, one per play rule: exponential weights, which is
follow-the-regularized-leader with the negative-entropy regularizer, and
follow-the-regularized-leader with the prior-centered half-squared-norm
regularizer.  Each is delay-tolerant as d independent copies, one per residue
class of rounds, held as one (d, W) array of per-class cost sums; a play is a
function of its class's sum, ``ewa_step`` or ``ftrl_step``.  A prior and every
play are (W,) probability arrays; EWA tilts the prior's log, taken once.
``ewa_step`` takes one sum or a sum per round, and sums over hypotheses in index
order; it is also the softmax of every Gibbs posterior.
"""

from __future__ import annotations

import functools
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
        css = np.cumsum(u) - 1.0
        (above,) = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)
        if len(above) and math.isfinite(css[-1]):
            rho = int(above[-1]) + 1
            return np.maximum(v - css[rho - 1] / rho, 0.0)
    raise ValidationError("cannot project a non-finite or overflowing point "
                          "onto the simplex")


def ewa_step(prior_log: np.ndarray, eta: float, S: np.ndarray) -> np.ndarray:
    """The exponential-weights play softmax(prior_log - eta * S) of a (W,) cost
    sum S, or one play per row of an (n, W) S; both give the same bits, as the
    max and the normalizer reduce over hypotheses in index order in any layout."""
    lw = (prior_log - eta * S).T  # hypotheses lead: (W,) or (W, n)
    p = np.exp(lw - functools.reduce(np.maximum, lw))
    return (p / functools.reduce(np.add, p)).T


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
        self._sums = np.zeros((d, len(self.prior)))
        self._acted = self._observed = 0

    def _next_sum(self) -> np.ndarray:
        row = self._acted % len(self._sums)
        self._acted += 1
        return self._sums[row]

    def _add(self, cost) -> None:
        self._sums[self._observed % len(self._sums)] += cost
        self._observed += 1


class EWA(_ClassSums):
    """Exponential weights; plays the ``ewa_step`` of its class's cost sum."""

    def act(self) -> np.ndarray:
        return ewa_step(self.prior_log, self.eta, self._next_sum())

    def observe(self, cost: np.ndarray) -> None:
        self._add(cost)


class FTRL(_ClassSums):
    """Squared-norm FTRL; plays the ``ftrl_step`` of its class's cost sum."""

    def act(self) -> np.ndarray:
        return ftrl_step(self.prior, self.eta, self._next_sum())

    def observe(self, cost: np.ndarray) -> None:
        self._add(cost)


# online.algorithm -> its learner, built from (prior, eta, d)
LEARNERS = {"ewa": EWA, "ftrl-sqnorm": FTRL}


def make_learner(algorithm: str, prior: np.ndarray, eta: float,
                 d: int = 1):
    """Build the delay-d learner of a config triple."""
    if algorithm not in LEARNERS:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    return LEARNERS[algorithm](prior, eta, d)


def delayed_regret_bound(h_gap: float, eta: float, d: int, n: int,
                         alpha: float = 1.0, B: float = 1.0) -> float:
    """d * h_gap/eta + eta * B^2 * n / (2 alpha): the d per-class copies'
    bounds summed, for costs of dual norm <= B; EWA is h_gap = KL, B = alpha = 1."""
    if eta <= 0 or alpha <= 0 or B < 0 or d < 1 or n < 1:
        raise ValidationError("need eta > 0, alpha > 0, B >= 0, d >= 1, n >= 1")
    return d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
