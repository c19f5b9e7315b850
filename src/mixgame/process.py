"""Finite-state stationary data processes with exactly computable mixing.

Everything here is exact linear algebra on row-stochastic matrices: the
stationary law comes from matrix powers, d-step conditional laws from
``transition**d``, and phi_d of a loss class is the worst-case gap between
the stationary and the d-step conditional expected loss: ``exact_phi`` takes
one matrix power, and ``phi_table`` steps the conditional expectations one
transition per d and checks its last entry against ``exact_phi``.
``window_expectations`` reduces a loss on L-symbol blocks to a static table,
on which ``exact_phi`` reads a memory-m table.  ``sample_path`` bisects one path
and walks only the steps whose uniform moves some state, on a table built once
per model; each symbol is then read from the walked states at the running
count of moving steps.  ``_walk_lockstep`` walks many rows (the Monte-Carlo
phi's) with one numpy step per symbol for all of them.

``DECAY_LAWS`` holds each phi_d decay law a ``MixingProfile`` can carry:
its rate field, its phi_d, the abscissa its log-linear fit regresses
log(phi_d) on, and its closed-form tuned delay.  Logarithms are natural, so
the geometric delay tau * ln n guarantees C e^{-d/tau} <= C/n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (INT_CEILING, ConfigSection, ConsistencyError, ModelError,
                     ValidationError, build_field)

_ROW_SUM_TOL = 1e-9
_STATIONARY_TOL = 1e-12
_MAX_SQUARINGS = 200
_PHI_DRIFT_TOL = 1e-12
PHI_FLOOR = 1e-15  # a phi_d at or below it is the rounding noise of a zero gap
_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(master_seed: int, k: int) -> int:
    """Derive the RNG seed of replicate ``k`` from the master seed."""
    return (master_seed ^ _splitmix64(k + 1)) & _MASK64


@dataclass(frozen=True, eq=False)
class ProcessModel:
    """A stationary finite-state Markov source.

    ``transition`` is row-stochastic, ``stationary`` is its unique
    invariant law.  Immutable after construction; share freely.
    """

    transition: np.ndarray
    stationary: np.ndarray

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def _walk_table(self) -> tuple:
        """The transition rows and the start row, each summed without its last
        entry, as an ndarray and as lists, and the [lo, hi) of ``_walk_moves``.
        The stationary law is the row of a start state S, so the walk from S
        draws Z_0 by the same inverse-CDF step as every later symbol."""
        cum = np.cumsum(np.vstack([self.transition, self.stationary]), axis=1)[:, :-1]
        # Python floats: a numpy scalar costs more per comparison with u
        lo = max(cum[:-1].diagonal(-1).tolist(), default=-math.inf)
        hi = min(cum[:-1].diagonal().tolist(), default=math.inf)
        return cum, cum.tolist(), lo, hi


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A realization of a model, symbols drawn from the stationary start."""

    symbols: np.ndarray


class DecayLaw(NamedTuple):
    """One phi_d decay law, in terms of the profile's C and rate."""

    rate: str                         # the MixingProfile field holding the rate
    phi: Callable                     # (C, rate, d) -> phi_d
    abscissa: Callable                # d -> the regressor of log(phi_d)
    rate_from_slope: Callable         # fitted slope of log(phi_d) -> rate
    delay: Callable                   # (C, rate, n) -> tuned delay, unrounded


DECAY_LAWS = {
    "geometric": DecayLaw(
        "tau", lambda C, tau, d: C * np.exp(-d / tau), lambda d: d,
        lambda slope: -1.0 / slope, lambda C, tau, n: tau * math.log(n)),
    "algebraic": DecayLaw(
        "r", lambda C, r, d: C * d ** (-r), np.log, lambda slope: -slope,
        lambda C, r, n: (C * C * n) ** (1.0 / (1.0 + 2.0 * r))),
}


@dataclass(frozen=True)
class MixingProfile:
    """A phi_d decay law of ``DECAY_LAWS``: C*exp(-d/tau) or C*d**-r."""

    kind: str  # a DECAY_LAWS key
    C: float | None = None
    tau: float | None = None
    r: float | None = None
    fit_residual: float = 0.0

    def __post_init__(self):
        if self.kind not in DECAY_LAWS:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        for name in ("C", DECAY_LAWS[self.kind].rate):
            value = getattr(self, name)
            if not (value is not None and 0 < value < math.inf):  # NaN fails it
                raise ValidationError(f"a {self.kind} profile needs a finite "
                                      f"{name} > 0, not {value!r}")

    @property
    def rate(self) -> float:
        return getattr(self, DECAY_LAWS[self.kind].rate)

    def phi(self, d) -> np.ndarray | float:
        with np.errstate(over="ignore"):  # d / tau past float max: exp(-inf) is 0
            out = DECAY_LAWS[self.kind].phi(self.C, self.rate,
                                            np.asarray(d, dtype=float))
        return float(out) if out.ndim == 0 else out

    def tuned_delay(self, n: int) -> int:
        """The law's closed-form delay, clamped to [1, n] and then rounded up.

        Clamping first keeps an infinite delay (tau * ln n overflowing) at n.
        """
        if not n >= 1:
            raise ValidationError("n must be at least 1")
        delay = DECAY_LAWS[self.kind].delay(self.C, self.rate, n)
        return math.ceil(min(max(delay, 1), n))


def build_markov(transition) -> ProcessModel:
    """Validate a row-stochastic matrix and compute its unique stationary law.

    Convergence is established by repeated squaring of the transition
    matrix: all rows of the power must collapse onto a single vector.
    Reducible or periodic chains never collapse and raise ModelError.  Once
    they agree, one more (quadratic) squaring leaves only rounding.
    """
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError("transition matrix must be square")
    if not np.all(P >= 0):
        raise ValidationError("transition matrix entries must be non-negative")
    if not np.max(np.abs(P.sum(axis=1) - 1.0)) <= _ROW_SUM_TOL:
        raise ValidationError("transition matrix rows must sum to 1")

    B = P.copy()
    for _ in range(_MAX_SQUARINGS):
        converged = np.max(B.max(axis=0) - B.min(axis=0)) < _STATIONARY_TOL
        B = B @ B
        # renormalize rows to damp floating-point drift over many squarings
        B /= B.sum(axis=1, keepdims=True)
        if converged:
            break
    else:
        raise ModelError("power iteration did not converge: the chain has "
                         "no unique stationary distribution")
    pi = B.mean(axis=0)
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise ModelError("stationary vector fails the invariance check")
    return ProcessModel(transition=P, stationary=pi)


def two_state_chain(p: float, q: float) -> ProcessModel:
    """The two-state chain with flip probabilities p (from 0) and q (from 1)."""
    return build_markov([[1 - p, p], [q, 1 - q]])


def sample_path(model: ProcessModel, n: int, seed: int) -> SamplePath:
    """Draw a length-n stationary path; deterministic in (model, n, seed).  A step
    whose uniform maps every state to itself is skipped (see ``_walk_moves``)."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    return SamplePath(symbols=_walk_moves(model, np.random.default_rng(seed).random(n)))


def _walk_moves(model: ProcessModel, u: np.ndarray) -> np.ndarray:
    """``_walk_chain`` of ``model._walk_table`` from its start row, walking only
    the steps that can move; the symbols are the same.  From state s,
    ``bisect_right`` on the table stays at s exactly when cum[s][s-1] <= x <
    cum[s][s] (state 0 has no lower bound, state S-1 no upper one).  So a
    uniform in [lo, hi) = [max_s cum[s][s-1], min_s cum[s][s]) maps every state
    to itself, and its step is skipped: the state carries.  Step 0 leaves the
    start row and is always walked; where [lo, hi) is empty, every step is."""
    _, rows, lo, hi = model._walk_table
    moves = ~((lo <= u) & (u < hi))
    moves[0] = True
    walked = np.fromiter(_walk_chain(rows, model.n_states, u[moves]), np.int64)
    # step t carries the state of the last walked step at or before it
    index = np.add.accumulate(moves, dtype=np.intp)
    index -= 1
    return walked[index]


def _walk_chain(cum_rows: list[list[float]], s: int, u: np.ndarray) -> list[int]:
    """States visited from state ``s``, one inverse-CDF step per uniform in ``u``.

    ``cum_rows`` lists each transition row's cumsum without its last entry.
    Each step is ``searchsorted(cumsum(row), x, side="right")`` clipped to the
    last state, at a fraction of the cost of a numpy call: ``bisect`` runs on
    Python lists, and searching a row without its last entry does the clipping
    (the last state takes every ``x`` at or beyond the second-to-last
    cumulative sum, whatever rounding left in the row sum).
    """
    states = []
    for x in u.tolist():
        s = bisect_right(cum_rows[s], x)
        states.append(s)
    return states


def _walk_lockstep(cum: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_walk_chain`` of each row of ``u`` from its start in ``s``, one numpy
    step per column for all rows: the (R, k) states.  ``cum`` is the ndarray of
    its rows.  Counting the entries above x is ``bisect_right`` also on the
    all-NaN row of a reversed state of zero mass, where ``bisect`` goes right."""
    out = np.empty(u.shape[::-1], dtype=np.int64)
    for k, x in enumerate(u.T):
        s = out[k] = cum.shape[1] - (cum[s] > x[:, None]).sum(axis=1)
    return out.T


def window_expectations(model: ProcessModel, table) -> np.ndarray:
    """F[w, s] = E[table[w, Z_1, ..., Z_L] | Z_1 = s] for a (W,) + (S,)*L table.

    The symbol axes are contracted from the last one back, each against one
    transition from the axis before it; F is a static W x S loss table.
    """
    T = np.asarray(table, dtype=float)
    P = model.transition
    while T.ndim > 2:
        # T[..., i, :] @ P[i, :] for every state i of the second-to-last axis
        T = (T[..., None, :] @ P[:, :, None])[..., 0, 0]
    return T


def exact_phi(model: ProcessModel, loss_table, d: int) -> float:
    """phi_d = max over (w, s) of L(w) - E[loss | Z_{t-d}=s], clamped at zero, of a
    (W,) + (S,)*m table at d >= m ((S,) or (W, S) is m = 1): the static gap of its
    window table at the lag d - m + 1 from Z_{t-d} to the window's first symbol."""
    m = max(1, np.ndim(loss_table) - 1)
    if d < m:
        raise ValidationError(f"exact phi_d of a memory-{m} table needs d >= {m}")
    if d > INT_CEILING:
        raise ValidationError(f"d exceeds the matrix-power budget {INT_CEILING}")
    F = window_expectations(model, loss_table)
    cond = np.linalg.matrix_power(model.transition, d - m + 1) @ F.T  # (states, W)
    return max(0.0, float(np.max(F @ model.stationary - cond)))


def phi_table(model: ProcessModel, loss_table, d_max: int) -> np.ndarray:
    """A static table's phi_d, d = 1..d_max (empty if d_max < 1), one transition per d.

    The conditional expectations follow ``C_d = P @ C_{d-1}`` from
    ``C_0 = L.T``, at 2*S^2*W flops per d rather than a matrix power each.
    Stepping rounds d times where repeated squaring rounds about log2(d)
    times, so the stepped phi_dmax is checked against ``exact_phi`` and a
    drift beyond 1e-12 raises ConsistencyError, as does a rise from one d to
    the next (rows of P @ C are means of rows of C, so phi_d cannot rise).
    """
    L = np.asarray(loss_table, dtype=float)
    if L.ndim > 2:
        raise ValidationError(f"a memory-{L.ndim - 1} table is not static; use exact_phi")
    if d_max < 1:
        return np.empty(0)
    reference = exact_phi(model, L, d_max)  # also enforces the d budget
    test = L @ model.stationary  # (W,)
    cond = L.T  # (states, W)
    table = np.empty(d_max)
    for d in range(d_max):
        cond = model.transition @ cond
        table[d] = max(0.0, float(np.max(test - cond)))
    drift = abs(table[-1] - reference)
    if drift > _PHI_DRIFT_TOL:
        raise ConsistencyError(
            f"phi table drifted from the matrix-power value at d_max={d_max}: "
            f"stepped {table[-1]:.17g}, exact {reference:.17g}, drift {drift:.3e}")
    if np.any(np.diff(table) > _PHI_DRIFT_TOL):
        raise ConsistencyError("phi table rises with d")
    return table


def fit_mixing_profile(phi_values, kind: str) -> MixingProfile:
    """Least-squares fit of a ``DECAY_LAWS`` law to a phi table, in the log domain.

    log(phi_d) is regressed on the law's abscissa (d for geometric, log d
    for algebraic).  Entries must be positive (an all-zero i.i.d. table
    cannot be fit) and must decay.
    """
    if kind not in DECAY_LAWS:
        raise ValidationError(f"unknown fit kind {kind!r}")
    law = DECAY_LAWS[kind]
    phi = np.asarray(phi_values, dtype=float)
    if len(phi) < 3:
        raise ValidationError("need at least 3 table entries to fit")
    if np.any(phi <= 0):
        raise ValidationError("cannot log-fit a table with non-positive entries")
    if np.any(np.diff(phi) > 1e-12):
        raise ValidationError("phi table must be non-increasing")
    x = law.abscissa(np.arange(1, len(phi) + 1, dtype=float))
    y = np.log(phi)
    slope, intercept = np.polyfit(x, y, 1)
    # a constant table's fitted slope is rounding noise of either sign
    if not (phi[-1] < phi[0] and slope < 0):
        raise ValidationError(f"table does not decay; {kind} fit undefined")
    fit = intercept + slope * x
    return MixingProfile(kind, C=float(np.exp(intercept)),
                         fit_residual=float(np.max(np.abs(fit - y))),
                         **{law.rate: float(law.rate_from_slope(slope))})


def model_from_json(doc: dict) -> ProcessModel:
    """Load a model from the schema {"transition": [[...]]}; other keys are ignored."""
    transition = ConfigSection(doc, "process")["transition"]
    return build_field("process.transition", build_markov, transition)
