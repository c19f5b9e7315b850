"""Closed-form generalization bounds at a delay, tuned to a profile, and swept.

Every bound is assembled into a BoundReport with the three-term structure
regret_term + phi_term + deviation_term = total.  ``delay_bound`` takes
phi_d at a given delay; ``tuned_bound`` is ``delay_bound`` at the delay a
MixingProfile tunes (``MixingProfile.tuned_delay``), paying the profile's
own phi_d and the deviation term there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

from .dynamic import limit_test_losses
from .errors import ValidationError
from .game import decompose, play_costs
from .learner import HypothesisSpace, PosteriorDist, kl_divergence
from .online import delayed_regret_bound, make_learner
from .process import MixingProfile, ProcessModel, exact_phi


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


def tuned_bound(profile: MixingProfile, n: int, delta: float,
                regret: Callable[[int], float], tag_prefix: str = "") -> BoundReport:
    """``delay_bound`` at d = ``profile.tuned_delay(n)``, phi_d = ``profile.phi(d)``.

    ``regret`` maps d to a cumulative regret; the tag is ``tag_prefix`` + kind.
    """
    d = profile.tuned_delay(n)
    return delay_bound(regret(d), profile.phi(d), d, n, delta,
                       tag=tag_prefix + profile.kind)


def sweep_delay(model: ProcessModel, space: HypothesisSpace, loss_rows,
                comparator: PosteriorDist, delta: float, d_grid, eta: float,
                algorithm: str = "ewa") -> list[dict]:
    """Evaluate the delay trade-off along a grid of delays.

    For each d the wrapped learner replays a path's (n, W) loss rows against
    the limit, built once.  The regret term is the a-priori wrapped-EWA
    composite with the comparator's KL to the uniform prior, so the total
    bound is smooth in d; the comparator's gap is recorded alongside.
    """
    n = len(loss_rows)
    prior = PosteriorDist.uniform(space.n_hypotheses)
    kl = kl_divergence(comparator, prior)
    limit = limit_test_losses(space, model)[0]
    rows = []
    for d in d_grid:
        d = int(d)
        phi = exact_phi(model, space.loss_table, d)
        learner = make_learner(algorithm, prior, eta, d=d)
        parts = decompose(play_costs(loss_rows, limit, learner, d), comparator)
        rep = delay_bound(delayed_regret_bound(kl, eta, d, n), phi, d, n, delta)
        rows.append({"d": d, "phi_term": phi, "deviation_term": rep.deviation_term,
                     "regret_term": rep.regret_term, "total_bound": rep.total,
                     "empirical_gen": parts["gen"]})
    return rows
