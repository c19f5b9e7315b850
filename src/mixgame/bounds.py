"""Closed-form generalization bounds, delay tuning rules, and the delay sweep.

Every bound is assembled into a BoundReport with the three-term structure
regret_term + phi_term + deviation_term = total.  Logarithms are natural
throughout: the geometric mixing law is C*exp(-d/tau), so the tuned delay
ceil(tau * ln n) guarantees phi_d <= C/n only with natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .game import decompose, run_game
from .learner import HypothesisSpace, PosteriorDist, gibbs_posterior, kl_divergence
from .online import delayed_ewa_bound, make_learner
from .process import ProcessModel, exact_phi, sample_path


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its components, their sum, and a provenance tag."""

    n: int
    d: int
    delta: float
    regret_term: float
    phi_term: float
    deviation_term: float
    tag: str
    total: float = field(init=False)

    def __post_init__(self):
        if self.phi_term < 0 or self.deviation_term < 0:
            raise ValidationError("phi and deviation terms must be non-negative")
        object.__setattr__(
            self, "total", self.regret_term + self.phi_term + self.deviation_term)

    def to_dict(self) -> dict:
        return {"n": self.n, "d": self.d, "delta": self.delta,
                "regret_term": self.regret_term, "phi_term": self.phi_term,
                "deviation_term": self.deviation_term, "total": self.total,
                "tag": self.tag}


@dataclass(frozen=True)
class EtaGrid:
    """Halving grid eta_0 * 2^-k with the confidence split uniformly across it."""

    etas: np.ndarray
    delta_each: float

    def __post_init__(self):
        e = np.asarray(self.etas, dtype=float)
        if len(e) < 1 or np.any(np.diff(e) >= 0):
            raise ValidationError("eta grid must be non-empty and strictly decreasing")
        object.__setattr__(self, "etas", e)


def make_eta_grid(eta0: float, n: int, delta: float, K: int | None = None) -> EtaGrid:
    if K is None:
        K = max(1, math.ceil(math.log2(n)))
    etas = eta0 * 0.5 ** np.arange(K)
    return EtaGrid(etas=etas, delta_each=delta / K)


def deviation_term(d: int, n: int, delta: float) -> float:
    """sqrt(2 d ln(1/delta) / n), the blocked Hoeffding-Azuma deviation."""
    if not 0 < delta < 1:
        raise ValidationError("delta must lie in (0, 1)")
    if not 1 <= d <= n:
        raise ValidationError("need 1 <= d <= n")
    return math.sqrt(2.0 * d * math.log(1.0 / delta) / n)


def blocking_tail_bound(phi_d: float, d: int, n: int, delta: float) -> float:
    """High-probability bound on the martingale term: phi_d + deviation."""
    return phi_d + deviation_term(d, n, delta)


def delay_bound(regret_value: float, phi_d: float, d: int, n: int, delta: float,
                tag: str = "delay") -> BoundReport:
    """Assemble regret/n + phi_d + deviation; regret_value is cumulative regret.

    The caller chooses whether regret_value is a realized regret or an
    a-priori bound, and should tag the report accordingly.
    """
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret_value / n,
                       phi_term=phi_d, deviation_term=deviation_term(d, n, delta),
                       tag=tag)


def tune_delay_geometric(tau: float, n: int) -> int:
    """ceil(tau * ln n), clamped to [1, n]; guarantees C e^{-d/tau} <= C/n."""
    if tau <= 0 or n < 1:
        raise ValidationError("need tau > 0 and n >= 1")
    return min(max(1, math.ceil(tau * math.log(n))), n)


def tune_delay_algebraic(C: float, r: float, n: int) -> int:
    """ceil((C^2 n)^(1/(1+2r))), clamped to [1, n]."""
    if C <= 0 or r <= 0 or n < 1:
        raise ValidationError("need C > 0, r > 0, n >= 1")
    return min(max(1, math.ceil((C * C * n) ** (1.0 / (1.0 + 2.0 * r)))), n)


def _geometric_deviation(tau: float, n: int, delta: float) -> float:
    return math.sqrt(2.0 * (tau * math.log(n) + 1.0) * math.log(1.0 / delta) / n)


def geometric_bound(regret_value: float, C: float, tau: float, n: int,
                    delta: float) -> BoundReport:
    """Tuned-delay bound for geometric mixing: regret/n + C/n + deviation."""
    d = tune_delay_geometric(tau, n)
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret_value / n,
                       phi_term=C / n,
                       deviation_term=_geometric_deviation(tau, n, delta),
                       tag="geometric")


def algebraic_bound(regret_value: float, C: float, r: float, n: int,
                    delta: float) -> BoundReport:
    """Tuned-delay bound for algebraic mixing.

    The main term C * (1 + sqrt(ln(1/delta))) * n^(-r/(1+2r)) is split into
    its delta-free part (phi_term) and its confidence part (deviation_term).
    The exponent -r/(1+2r) is the simplified form of -2r/(2(1+2r)).
    """
    d = tune_delay_algebraic(C, r, n)
    main = C * n ** (-r / (1.0 + 2.0 * r))
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret_value / n,
                       phi_term=main,
                       deviation_term=main * math.sqrt(math.log(1.0 / delta)),
                       tag="algebraic")


def algebraic_main_term(C: float, r: float, n: int, delta: float) -> float:
    return C * (1.0 + math.sqrt(math.log(1.0 / delta))) * n ** (-r / (1.0 + 2.0 * r))


def ewa_geometric_bound(kl: float, eta: float, C: float, tau: float, n: int,
                        delta: float) -> BoundReport:
    """Geometric-mixing bound with the wrapped-EWA regret composite.

    The regret term is (d * KL/eta + eta * n / 2) / n at d = ceil(tau ln n),
    the exact sum of the d per-instance EWA bounds.
    """
    if kl < 0 or eta <= 0:
        raise ValidationError("need kl >= 0 and eta > 0")
    d = tune_delay_geometric(tau, n)
    regret = delayed_ewa_bound(kl, eta, d, n)
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret / n,
                       phi_term=C / n,
                       deviation_term=_geometric_deviation(tau, n, delta),
                       tag="ewa-geometric")


def ftrl_geometric_bound(h_gap: float, eta: float, alpha: float, B: float,
                         C: float, tau: float, n: int, delta: float) -> BoundReport:
    """Geometric-mixing bound for wrapped FTRL with dual-norm cost bound B."""
    if eta <= 0 or alpha <= 0 or B < 0:
        raise ValidationError("need eta > 0, alpha > 0, B >= 0")
    d = tune_delay_geometric(tau, n)
    regret = d * h_gap / eta + eta * B * B * n / (2.0 * alpha)
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret / n,
                       phi_term=C / n,
                       deviation_term=_geometric_deviation(tau, n, delta),
                       tag="ftrl-geometric")


def eta_grid_bound(base_bound, grid: EtaGrid) -> float:
    """min over the grid of base_bound(eta, delta/K): the union-bound tuning."""
    values = [base_bound(float(eta), grid.delta_each) for eta in grid.etas]
    if not values:
        raise ValidationError("empty eta grid")
    return min(values)


def sweep_delay(model: ProcessModel, space: HypothesisSpace, n: int, delta: float,
                d_grid, eta: float, beta: float, seed: int,
                algorithm: str = "ewa") -> list[dict]:
    """Evaluate the delay trade-off along a grid of delays.

    One path is sampled once; for each d the wrapped learner replays the
    same data.  The regret term is the a-priori wrapped-EWA composite with
    the realized posterior's KL, so the total bound is smooth in d; the
    empirical generalization gap is recorded alongside.
    """
    path = sample_path(model, n, seed)
    prior = PosteriorDist.uniform(space.n_hypotheses)
    comparator = gibbs_posterior(space, path, beta, prior)
    kl = kl_divergence(comparator, prior)
    rows = []
    for d in d_grid:
        d = int(d)
        if not 1 <= d <= n:
            raise ValidationError("d_grid entries must lie in [1, n]")
        phi = exact_phi(model, space.loss_table, d)
        learner = make_learner(algorithm, prior, eta, d=d)
        trace = run_game(model, space, path, learner, d)
        parts = decompose(trace, comparator)
        regret_term = delayed_ewa_bound(kl, eta, d, n) / n
        dev = deviation_term(d, n, delta)
        rows.append({
            "d": d,
            "phi_term": phi,
            "deviation_term": dev,
            "regret_term": regret_term,
            "total_bound": regret_term + phi + dev,
            "empirical_gen": parts["gen"],
        })
    return rows
