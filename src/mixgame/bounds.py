"""Closed-form generalization bounds at a delay, tuned to a profile, and swept.

Every bound is assembled into a BoundReport with the three-term structure
regret_term + phi_term + deviation_term = total.  ``delay_bound`` takes
phi_d at a given delay; ``tuned_bound`` is ``delay_bound`` at the delay a
MixingProfile tunes, paying the profile's own phi_d there, with the regret
read at that delay (``online.delayed_regret_bound`` holds at every d).
``sweep_delay`` assembles one row per grid delay around the game gaps that
``experiments.delay_sweep`` plays; no function here plays a game.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

from .errors import ValidationError
from .online import delayed_regret_bound
from .process import MixingProfile, ProcessModel, exact_phi


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: a provenance tag, its components and their sum."""

    tag: str
    n: int
    d: int
    delta: float
    regret_term: float
    phi_term: float
    deviation_term: float
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
    # 1/delta overflows for a subnormal delta; -ln(delta) everywhere would move
    # the last bit of ln(1/delta) at other deltas, 0.1 among them
    subnormal = delta * sys.float_info.max <= 1
    log_inv = -math.log(delta) if subnormal else math.log(1.0 / delta)
    return math.sqrt(2.0 * d * log_inv / n)


def delay_bound(regret_value: float, phi_d: float, d: int, n: int, delta: float,
                tag: str = "delay") -> BoundReport:
    """Assemble regret/n + phi_d + deviation; regret_value is cumulative regret.

    The caller chooses whether regret_value is a realized regret or an
    a-priori bound, and should tag the report accordingly.
    """
    return BoundReport(n=n, d=d, delta=delta, regret_term=regret_value / n,
                       phi_term=phi_d, deviation_term=deviation_term(d, n, delta),
                       tag=tag)


def tuned_bound(profile: MixingProfile, n: int, delta: float,
                regret: Callable[[int], float], tag_prefix: str = "") -> BoundReport:
    """``delay_bound`` at d = ``profile.tuned_delay(n)``, phi_d = ``profile.phi(d)``.

    ``regret`` maps d to a cumulative regret; the tag is ``tag_prefix`` + kind.
    """
    d = profile.tuned_delay(n)
    return delay_bound(regret(d), profile.phi(d), d, n, delta,
                       tag=tag_prefix + profile.kind)


def sweep_delay(model: ProcessModel, loss_table, n: int, delta: float, d_grid,
                eta: float, kl: float, gens) -> list[dict]:
    """The delay trade-off's rows along a grid of delays, in closed form.

    Row d pays phi_d of ``loss_table``, the deviation term and the a-priori
    wrapped-EWA composite at the comparator's ``kl`` to the uniform prior, so
    the total bound is smooth in d; ``gens`` holds each delay's game gap.
    """
    rows = []
    for d, gen in zip(d_grid, gens):
        phi = exact_phi(model, loss_table, d)
        rep = delay_bound(delayed_regret_bound(kl, eta, d, n), phi, d, n, delta)
        rows.append({"d": d, "phi_term": phi, "deviation_term": rep.deviation_term,
                     "regret_term": rep.regret_term, "total_bound": rep.total,
                     "empirical_gen": gen})
    return rows
