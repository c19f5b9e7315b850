"""Online learners over the probability simplex and their regret-bound formulas.

Two base algorithms are provided, one per play rule: exponential weights
(multiplicative updates in log space), which is follow-the-regularized-leader
with the negative-entropy regularizer, and follow-the-regularized-leader with
the prior-centered half-squared-norm regularizer.  A round-robin wrapper turns
any base learner into a delay-tolerant one by running d independent
instances, one per residue class of rounds.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ValidationError
from .learner import PosteriorDist, _logsumexp


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


def ftrl_step(prior: PosteriorDist, cumulative_cost: np.ndarray,
              eta: float) -> PosteriorDist:
    """The FTRL point after the given cumulative cost vector.

    The regularizer is prior-centered, h(P) = 0.5 * ||P - P_1||^2, so the
    point is the simplex projection of P_1 - eta * cost and its zero-cost
    argmin is the prior.  The negative-entropy point is ``EWA``'s play.
    """
    if eta <= 0:
        raise ValidationError("eta must be positive")
    c = np.asarray(cumulative_cost, dtype=float)
    return PosteriorDist.from_probs(project_simplex(prior.probs - eta * c))


class EWA:
    """Exponential weights learner; observe() applies one multiplicative update."""

    def __init__(self, prior: PosteriorDist, eta: float):
        if eta <= 0:
            raise ValidationError("eta must be positive")
        self.eta = eta
        self._log_weights = prior.log_weights.copy()

    def act(self) -> PosteriorDist:
        return PosteriorDist(self._log_weights)

    def observe(self, cost: np.ndarray) -> None:
        lw = self._log_weights - self.eta * np.asarray(cost, float)
        self._log_weights = lw - _logsumexp(lw)


class FTRL:
    """Squared-norm follow-the-regularized-leader; keeps the cumulative
    observed cost and plays its ``ftrl_step``."""

    def __init__(self, prior: PosteriorDist, eta: float):
        if eta <= 0:
            raise ValidationError("eta must be positive")
        self.prior = prior
        self.eta = eta
        self._cum = np.zeros(len(prior))

    def act(self) -> PosteriorDist:
        return ftrl_step(self.prior, self._cum, self.eta)

    def observe(self, cost: np.ndarray) -> None:
        self._cum = self._cum + np.asarray(cost, float)


class DelayedLearner:
    """Round-robin reduction: d base instances, instance (t-1) mod d acts at round t.

    Costs arrive in round order; cost of round s is routed to its owning
    instance (s-1) mod d.  With d = 1 this is the base learner verbatim.
    """

    def __init__(self, base_factory: Callable[[], object], d: int):
        if d < 1:
            raise ValidationError("delay must be at least 1")
        self.d = d
        self.instances = [base_factory() for _ in range(d)]
        self._acted = 0
        self._observed = 0

    def act(self) -> PosteriorDist:
        inst = self.instances[self._acted % self.d]
        self._acted += 1
        return inst.act()

    def observe(self, cost: np.ndarray) -> None:
        self.instances[self._observed % self.d].observe(cost)
        self._observed += 1


# online.algorithm -> its base learner, built from (prior, eta)
LEARNERS = {"ewa": EWA, "ftrl-sqnorm": FTRL}


def make_learner(algorithm: str, prior: PosteriorDist, eta: float,
                 d: int = 1):
    """Build the round-robin wrapped learner of a config triple."""
    if algorithm not in LEARNERS:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    return DelayedLearner(lambda: LEARNERS[algorithm](prior, eta), d)


def delayed_regret_bound(h_gap: float, eta: float, d: int, n: int,
                         alpha: float = 1.0, B: float = 1.0) -> float:
    """d * h_gap/eta + eta * B^2 * n / (2 alpha): the d round-robin instances'
    bounds summed, for costs of dual norm <= B; EWA is h_gap = KL, B = alpha = 1."""
    if eta <= 0 or alpha <= 0 or B < 0 or d < 1 or n < 1:
        raise ValidationError("need eta > 0, alpha > 0, B >= 0, d >= 1, n >= 1")
    return d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
