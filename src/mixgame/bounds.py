"""Closed-form generalization bounds at a delay, and swept along a grid.

Every bound is one row dict with the three-term structure
regret_term + phi_term + deviation_term = total, built by ``delay_bound`` from
phi_d at a given delay.  A tuned row is ``delay_bound`` at d =
``profile.tuned_delay(n)`` with phi_d = ``profile.phi(d)`` and the regret read
at that d (``online.delayed_regret_bound`` holds at every d).
``sweep_delay`` assembles one row per grid delay around the game gaps that
``experiments.delay_sweep`` plays; no function here plays a game.
"""

from __future__ import annotations

import math
import sys

from .errors import ValidationError
from .online import delayed_regret_bound
from .process import ProcessModel, exact_phi


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
                tag: str = "delay") -> dict:
    """The bound row of regret/n + phi_d + deviation; regret_value is the
    cumulative regret.

    The caller chooses whether regret_value is a realized regret or an
    a-priori bound, and should tag the row accordingly.
    """
    deviation = deviation_term(d, n, delta)  # checks 1 <= d <= n, so n >= 1
    if not math.isfinite(regret_value):
        raise ValidationError("regret_value must be finite")
    if not phi_d >= 0:  # NaN fails too
        raise ValidationError("phi_d must be non-negative")
    regret_term = regret_value / n
    return {"tag": tag, "n": n, "d": d, "delta": delta, "regret_term": regret_term,
            "phi_term": phi_d, "deviation_term": deviation,
            "total": regret_term + phi_d + deviation}


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
        row = delay_bound(delayed_regret_bound(kl, eta, d, n), phi, d, n, delta)
        rows.append({"d": d, "phi_term": phi, "deviation_term": row["deviation_term"],
                     "regret_term": row["regret_term"], "total_bound": row["total"],
                     "empirical_gen": gen})
    return rows
