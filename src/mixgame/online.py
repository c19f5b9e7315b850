"""Online learners over the probability simplex and their regret-bound formulas.

Two base algorithms are provided: exponential weights (multiplicative
updates in log space) and follow-the-regularized-leader with either a
negative-entropy or a prior-centered half-squared-norm regularizer.  A
round-robin wrapper turns any base learner into a delay-tolerant one by
running d independent instances, one per residue class of rounds.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError
from .learner import PosteriorDist, _logsumexp


def ewa_step(current: PosteriorDist, cost: np.ndarray, eta: float) -> PosteriorDist:
    """One multiplicative-weights update: weights *= exp(-eta * cost)."""
    if eta <= 0:
        raise ValidationError("eta must be positive")
    return PosteriorDist(current.log_weights - eta * np.asarray(cost, float))


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the simplex via sort-and-threshold."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, len(v) + 1)
    cond = u - css / k > 0
    rho = int(np.max(np.nonzero(cond)[0])) + 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def ftrl_step(prior: PosteriorDist, cumulative_cost: np.ndarray, eta: float,
              reg: str = "negative-entropy") -> PosteriorDist:
    """The FTRL point after the given cumulative cost vector.

    Negative entropy has the closed-form Gibbs solution; the squared-norm
    regularizer is prior-centered (h(P) = 0.5 * ||P - P_1||^2), so its
    zero-cost argmin is the prior, matching the entropy convention.  ``reg``
    names the regularizer: "negative-entropy" or "half-squared-norm".
    """
    if eta <= 0:
        raise ValidationError("eta must be positive")
    c = np.asarray(cumulative_cost, dtype=float)
    if reg == "negative-entropy":
        return PosteriorDist(prior.log_weights - eta * c)
    if reg == "half-squared-norm":
        return PosteriorDist.from_probs(project_simplex(prior.probs - eta * c))
    raise ValidationError(f"unknown regularizer kind {reg!r}")


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
    """Follow-the-regularized-leader; keeps the cumulative observed cost."""

    def __init__(self, prior: PosteriorDist, eta: float,
                 reg: str = "negative-entropy"):
        if eta <= 0:
            raise ValidationError("eta must be positive")
        self.prior = prior
        self.eta = eta
        self.reg = reg
        self._cum = np.zeros(len(prior))

    def act(self) -> PosteriorDist:
        return ftrl_step(self.prior, self._cum, self.eta, self.reg)

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


def make_learner(algorithm: str, prior: PosteriorDist, eta: float,
                 d: int = 1):
    """Build a (possibly round-robin wrapped) learner from a config triple."""
    factories = {
        "ewa": lambda: EWA(prior, eta),
        "ftrl-entropy": lambda: FTRL(prior, eta, "negative-entropy"),
        "ftrl-sqnorm": lambda: FTRL(prior, eta, "half-squared-norm"),
    }
    if algorithm not in factories:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    if d == 1:
        return factories[algorithm]()
    return DelayedLearner(factories[algorithm], d)


def regret_bound(h_gap: float, eta: float, alpha: float,
                 dual_norm_sq_sum: float) -> float:
    """Regret bound (h(P*) - h(P_1))/eta + (eta/2 alpha) * sum of squared dual norms;
    exponential weights is the case h_gap = KL, alpha = 1, sup norms."""
    if eta <= 0 or alpha <= 0:
        raise ValidationError("need eta > 0 and alpha > 0")
    return h_gap / eta + eta / (2.0 * alpha) * dual_norm_sq_sum


def delayed_regret_bound(h_gap: float, eta: float, d: int, n: int,
                         alpha: float = 1.0, B: float = 1.0) -> float:
    """d * h_gap/eta + eta * B^2 * n / (2 alpha): the d round-robin instances'
    bounds summed, for costs of dual norm <= B; EWA is h_gap = KL, B = alpha = 1."""
    if eta <= 0 or alpha <= 0 or B < 0 or d < 1 or n < 1:
        raise ValidationError("need eta > 0, alpha > 0, B >= 0, d >= 1, n >= 1")
    return d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
