"""Closed-form generalization bounds, delay tuning rules, and the delay sweep.

Every bound is assembled into a BoundReport with the three-term structure
regret_term + phi_term + deviation_term = total.  ``delay_bound`` takes
phi_d at a given delay; ``tuned_bound`` tunes the delay to a MixingProfile
through a table keyed by the profile kind.  Logarithms are natural
throughout: the geometric mixing law is C*exp(-d/tau), so the tuned delay
ceil(tau * ln n) guarantees phi_d <= C/n only with natural logs.  When that
delay is clamped to n, the geometric row is ``delay_bound`` at d = n.

The algebraic row is the paper's rate C (1 + sqrt(ln(1/delta))) n^(-r/(1+2r)),
split into a delta-free phi part and a confidence part; it is not a bound at
its own tuned delay (at C=1, r=1, n=1000, delta=0.05 the confidence part is
0.173, deviation_term(10) is 0.245).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .errors import ValidationError
from .game import decompose, run_game
from .learner import HypothesisSpace, PosteriorDist, kl_divergence
from .online import delayed_regret_bound, make_learner
from .process import MixingProfile, ProcessModel, SamplePath, exact_phi


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
        return asdict(self)


def deviation_term(d: int, n: int, delta: float) -> float:
    """sqrt(2 d ln(1/delta) / n), the blocked Hoeffding-Azuma deviation."""
    if not 0 < delta < 1:
        raise ValidationError("delta must lie in (0, 1)")
    if not 1 <= d <= n:
        raise ValidationError("need 1 <= d <= n")
    return math.sqrt(2.0 * d * math.log(1.0 / delta) / n)


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


def _tuned_geometric(profile: MixingProfile, n: int, delta: float):
    d = tune_delay_geometric(profile.tau, n)
    tau_log_n = profile.tau * math.log(n)
    if d < tau_log_n:
        # clamped to n: C/n no longer bounds C e^{-d/tau}, so pay the bound at d
        return d, profile.phi(d), deviation_term(d, n, delta)
    # d <= tau ln n + 1, so this bounds deviation_term(d)
    dev = math.sqrt(2.0 * (tau_log_n + 1.0) * math.log(1.0 / delta) / n)
    return d, profile.C / n, dev


def _tuned_algebraic(profile: MixingProfile, n: int, delta: float):
    d = tune_delay_algebraic(profile.C, profile.r, n)
    main = profile.C * n ** (-profile.r / (1.0 + 2.0 * profile.r))
    return d, main, main * math.sqrt(math.log(1.0 / delta))


# MixingProfile.kind -> (delay, phi_term, deviation_term) at the tuned delay
_TUNED = {"geometric": _tuned_geometric, "algebraic": _tuned_algebraic}


def tuned_bound(profile: MixingProfile, n: int, delta: float,
                regret: Callable[[int], float], tag_prefix: str = "") -> BoundReport:
    """regret(d)/n + phi_term + deviation_term at the delay d tuned to the profile.

    ``regret`` maps d to a cumulative regret; the tag is ``tag_prefix`` + kind.
    """
    if profile.kind not in _TUNED:
        raise ValidationError(f"no tuned bound for profile kind {profile.kind!r}")
    d, phi, dev = _TUNED[profile.kind](profile, n, delta)
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret(d) / n,
                       phi_term=phi, deviation_term=dev,
                       tag=tag_prefix + profile.kind)


def sweep_delay(model: ProcessModel, space: HypothesisSpace, path: SamplePath,
                comparator: PosteriorDist, delta: float, d_grid, eta: float,
                algorithm: str = "ewa") -> list[dict]:
    """Evaluate the delay trade-off along a grid of delays.

    For each d the wrapped learner replays the same path.  The regret term
    is the a-priori wrapped-EWA composite with the comparator's KL to the
    uniform prior, so the total bound is smooth in d; the comparator's
    empirical generalization gap is recorded alongside.
    """
    n = len(path)
    prior = PosteriorDist.uniform(space.n_hypotheses)
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
        rep = delay_bound(delayed_regret_bound(kl, eta, d, n), phi, d, n, delta)
        rows.append({
            "d": d,
            "phi_term": phi,
            "deviation_term": rep.deviation_term,
            "regret_term": rep.regret_term,
            "total_bound": rep.total,
            "empirical_gen": parts["gen"],
        })
    return rows
