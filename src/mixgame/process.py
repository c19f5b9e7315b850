"""Finite-state stationary data processes with exactly computable mixing.

Everything here is exact linear algebra on row-stochastic matrices: the
stationary law comes from matrix powers, d-step conditional laws from
``transition**d``, and phi_d of a loss class is the worst-case gap between
the stationary and the d-step conditional expected loss.  ``phi_table``
steps the conditional expectations one transition per d and checks its last
entry against the matrix-power value.  ``window_expectations`` reduces a
loss on L-symbol blocks to a static table, one transition per symbol, and
``product_chain`` runs independent chains side by side as one chain.

``DECAY_LAWS`` holds each phi_d decay law a ``MixingProfile`` can carry:
its rate field, its phi_d, the abscissa its log-linear fit regresses
log(phi_d) on, and its closed-form tuned delay.  Logarithms are natural, so
the geometric delay tau * ln n guarantees C e^{-d/tau} <= C/n.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import (INT_CEILING, ConfigSection, ConsistencyError, ModelError,
                     SizeError, ValidationError, build_field)

_ROW_SUM_TOL = 1e-9
_STATIONARY_TOL = 1e-12
_MAX_SQUARINGS = 200
_PRODUCT_STATE_CAP = 10**4
_PHI_DRIFT_TOL = 1e-12
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


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A realization of a model, symbols drawn from the stationary start."""

    symbols: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)


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
        out = DECAY_LAWS[self.kind].phi(self.C, self.rate, np.asarray(d, dtype=float))
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
    Reducible or periodic chains never collapse and raise ModelError.
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
        spread = np.max(B.max(axis=0) - B.min(axis=0))
        if spread < _STATIONARY_TOL:
            break
        B = B @ B
        # renormalize rows to damp floating-point drift over many squarings
        B /= B.sum(axis=1, keepdims=True)
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


def product_chain(models) -> ProcessModel:
    """Independent chains run side by side, the first as the slowest index.

    State (s_1, ..., s_K) is the row-major index into the np.kron of the
    transition matrices, and the np.kron of the stationary laws is invariant.
    """
    size = math.prod(m.n_states for m in models)
    if size > _PRODUCT_STATE_CAP:
        raise SizeError(f"product state count {size} exceeds cap {_PRODUCT_STATE_CAP}")
    return ProcessModel(
        transition=reduce(np.kron, [m.transition for m in models], np.ones((1, 1))),
        stationary=reduce(np.kron, [m.stationary for m in models], np.ones(1)))


def sample_path(model: ProcessModel, n: int, seed: int) -> SamplePath:
    """Draw a length-n stationary path; deterministic in (model, n, seed)."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    cum_pi = np.cumsum(model.stationary)
    s = min(int(np.searchsorted(cum_pi, u[0], side="right")), model.n_states - 1)
    walk = _walk_chain(np.cumsum(model.transition, axis=1), s, u[1:])
    symbols = np.array([s] + walk, dtype=np.int64)
    return SamplePath(symbols=symbols)


def _walk_chain(cum_rows: np.ndarray, s: int, u: np.ndarray) -> list[int]:
    """States visited from state ``s``, one inverse-CDF step per uniform in ``u``.

    Each step equals ``searchsorted(cum_rows[s], x, side="right")`` clipped
    to the last state, at a fraction of the cost of a numpy call: ``bisect``
    runs on Python lists, and searching a row without its last entry does
    the clipping (the last state takes every ``x`` at or beyond the
    second-to-last cumulative sum, whatever rounding left in the row sum).
    """
    rows = cum_rows[:, :-1].tolist()
    states = []
    for x in u.tolist():
        s = bisect_right(rows[s], x)
        states.append(s)
    return states


def conditional_loss_expectations(model: ProcessModel, loss_table,
                                  d: int) -> np.ndarray:
    """E[loss(w, Z_t) | Z_{t-d} = s] for every (s, w), via the d-th matrix power."""
    if d < 1:
        raise ValidationError("d must be at least 1")
    if d > INT_CEILING:
        raise ValidationError(f"d exceeds the matrix-power budget {INT_CEILING}")
    L = np.asarray(loss_table, dtype=float)
    Pd = np.linalg.matrix_power(model.transition, d)
    return Pd @ L.T  # (states, W)


def window_expectations(model: ProcessModel, table) -> np.ndarray:
    """F[s, w] = E[table[w, Z_1, ..., Z_L] | Z_1 = s] for a (W,) + (S,)*L table.

    The symbol axes are contracted from the last one back, each against one
    transition from the axis before it; F.T is a static W x S loss table.
    """
    T = np.asarray(table, dtype=float)
    P = model.transition
    while T.ndim > 2:
        # T[..., i, :] @ P[i, :] for every state i of the second-to-last axis
        T = (T[..., None, :] @ P[:, :, None])[..., 0, 0]
    return T.T


def phi_gaps(model: ProcessModel, loss_table, d: int) -> tuple[float, float]:
    """Both one-sided gaps at lag d, unclamped: the max over (s, w) of
    E[loss | Z_{t-d}=s] - L(w), and of its mirror, the side phi_d takes."""
    L = np.asarray(loss_table, dtype=float)
    diff = conditional_loss_expectations(model, L, d) - L @ model.stationary
    return float(np.max(diff)), float(np.max(-diff))


def exact_phi(model: ProcessModel, loss_table, d: int) -> float:
    """phi_d = max over (w, s) of L(w) - E[loss | Z_{t-d}=s], clamped at zero."""
    return max(0.0, phi_gaps(model, loss_table, d)[1])


def phi_table(model: ProcessModel, loss_table, d_max: int) -> np.ndarray:
    """phi_d for d = 1..d_max (empty when d_max < 1), one transition per d.

    The conditional expectations follow ``C_d = P @ C_{d-1}`` from
    ``C_0 = L.T``, at 2*S^2*W flops per d rather than a matrix power each.
    Stepping rounds d times where repeated squaring rounds about log2(d)
    times, so the stepped phi_dmax is checked against ``exact_phi`` and a
    drift beyond 1e-12 raises ConsistencyError.
    """
    if d_max < 1:
        return np.empty(0)
    L = np.asarray(loss_table, dtype=float)
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
