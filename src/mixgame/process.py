"""Finite-state stationary data processes with exactly computable mixing.

Everything here is exact linear algebra on row-stochastic matrices: the
stationary law comes from matrix powers, d-step conditional laws from
``transition**d``, and the mixing coefficient of a loss class is the
worst-case gap between the stationary expected loss and the d-step
conditional expected loss.  The table phi_1..phi_dmax steps the
conditional expectations one transition per d instead, and checks its last
entry against the matrix-power value.  ``window_expectations`` reduces a
loss on L-symbol blocks to a static table, one transition per symbol.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (ConsistencyError, ModelError, SizeError, ValidationError,
                     config_value)

_ROW_SUM_TOL = 1e-9
_STATIONARY_TOL = 1e-12
_MAX_SQUARINGS = 200
_MATRIX_POWER_CAP = 10**9
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


@dataclass(frozen=True)
class ProcessModel:
    """A stationary finite-state Markov source.

    ``transition`` is row-stochastic, ``stationary`` is its unique
    invariant law.  Immutable after construction; share freely.
    """

    transition: np.ndarray
    stationary: np.ndarray
    kind: str = "plain-markov"
    alpha: float | None = None

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class SamplePath:
    """A seeded realization of a model, symbols drawn from the stationary start."""

    symbols: np.ndarray
    seed: int
    model: ProcessModel

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class ContaminationSpec:
    """I.i.d. clean losses plus an additive mixing noise chain scaled by alpha."""

    base_probs: np.ndarray
    noise_model: ProcessModel
    noise_values: np.ndarray
    alpha: float

    def __post_init__(self):
        p = np.asarray(self.base_probs, dtype=float)
        if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > _ROW_SUM_TOL:
            raise ValidationError("base_probs must be a probability vector")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if len(self.noise_values) != self.noise_model.n_states:
            raise ValidationError("need one noise value per noise state")


@dataclass(frozen=True)
class MixingProfile:
    """A phi_d decay law: geometric C*exp(-d/tau) or algebraic C*d**-r."""

    kind: str  # "geometric" | "algebraic"
    C: float | None = None
    tau: float | None = None
    r: float | None = None
    fit_residual: float = 0.0

    def phi(self, d) -> np.ndarray | float:
        d = np.asarray(d, dtype=float)
        if self.kind == "geometric":
            out = self.C * np.exp(-d / self.tau)
        elif self.kind == "algebraic":
            out = self.C * d ** (-self.r)
        else:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        return float(out) if out.ndim == 0 else out


def build_markov(transition, kind: str = "plain-markov",
                 alpha: float | None = None) -> ProcessModel:
    """Validate a row-stochastic matrix and compute its unique stationary law.

    Convergence is established by repeated squaring of the transition
    matrix: all rows of the power must collapse onto a single vector.
    Reducible or periodic chains never collapse and raise ModelError.
    """
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError("transition matrix must be square")
    if np.any(P < 0):
        raise ValidationError("transition matrix entries must be non-negative")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
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
    return ProcessModel(transition=P, stationary=pi, kind=kind, alpha=alpha)


def build_iid(probs) -> ProcessModel:
    """An i.i.d. source, i.e. a chain whose every row is the marginal."""
    p = np.asarray(probs, dtype=float)
    return build_markov(np.tile(p, (len(p), 1)))


def two_state_chain(p: float, q: float) -> ProcessModel:
    """The two-state chain with flip probabilities p (from 0) and q (from 1)."""
    return build_markov([[1 - p, p], [q, 1 - q]])


def build_contaminated(spec: ContaminationSpec, base_losses,
                       state_cap: int = _PRODUCT_STATE_CAP):
    """Product chain over (clean symbol, noise state) with composite losses.

    The composite loss is ``clip(l0(w, z') + alpha * eps, 0, 1)``.  Returns
    the product ProcessModel together with the composite W x (mc*ne) loss
    table; wrap the table in a HypothesisSpace to use it downstream.
    """
    l0 = np.asarray(base_losses, dtype=float)
    mc = len(spec.base_probs)
    ne = spec.noise_model.n_states
    if l0.ndim != 2 or l0.shape[1] != mc:
        raise ValidationError("base loss table must be W x len(base_probs)")
    if mc * ne > state_cap:
        raise SizeError(f"product state count {mc * ne} exceeds cap {state_cap}")

    iid_block = np.tile(np.asarray(spec.base_probs, float), (mc, 1))
    transition = np.kron(iid_block, spec.noise_model.transition)
    stationary = np.kron(np.asarray(spec.base_probs, float),
                         spec.noise_model.stationary)
    model = ProcessModel(transition=transition, stationary=stationary,
                         kind="contaminated", alpha=spec.alpha)

    vals = np.asarray(spec.noise_values, dtype=float)
    table = np.repeat(l0, ne, axis=1) + spec.alpha * np.tile(vals, mc)
    return model, np.clip(table, 0.0, 1.0)


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
    return SamplePath(symbols=symbols, seed=seed, model=model)


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
    if d > _MATRIX_POWER_CAP:
        raise ValidationError(f"d exceeds the matrix-power budget {_MATRIX_POWER_CAP}")
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


def exact_phi(model: ProcessModel, loss_table, d: int) -> float:
    """phi_d = max over (w, s) of L(w) - E[loss | Z_{t-d}=s], clamped at zero."""
    L = np.asarray(loss_table, dtype=float)
    test = L @ model.stationary  # (W,)
    cond = conditional_loss_expectations(model, L, d)  # (states, W)
    return max(0.0, float(np.max(test[None, :] - cond)))


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
    """Least-squares fit of a decay law to a phi table, in the log domain.

    Geometric regresses log(phi_d) on d, algebraic regresses log(phi_d) on
    log(d).  Entries must be positive (an all-zero i.i.d. table cannot be fit).
    """
    phi = np.asarray(phi_values, dtype=float)
    if len(phi) < 3:
        raise ValidationError("need at least 3 table entries to fit")
    if np.any(phi <= 0):
        raise ValidationError("cannot log-fit a table with non-positive entries")
    if np.any(np.diff(phi) > 1e-12):
        raise ValidationError("phi table must be non-increasing")
    d = np.arange(1, len(phi) + 1, dtype=float)
    y = np.log(phi)
    if kind == "geometric":
        slope, intercept = np.polyfit(d, y, 1)
        if slope >= 0:
            raise ValidationError("table does not decay; geometric fit undefined")
        C, tau = float(np.exp(intercept)), float(-1.0 / slope)
        fit = intercept + slope * d
        return MixingProfile(kind="geometric", C=C, tau=tau,
                             fit_residual=float(np.max(np.abs(fit - y))))
    if kind == "algebraic":
        slope, intercept = np.polyfit(np.log(d), y, 1)
        C, r = float(np.exp(intercept)), float(-slope)
        fit = intercept + slope * np.log(d)
        return MixingProfile(kind="algebraic", C=C, r=r,
                             fit_residual=float(np.max(np.abs(fit - y))))
    raise ValidationError(f"unknown fit kind {kind!r}")


def model_from_json(doc: str | dict) -> ProcessModel:
    """Load a model from the JSON document schema.

    Schema: {"states": [...], "transition": [[...]], "kind": "plain-markov"
    | "contaminated", "alpha": x}.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    transition = config_value(doc.get("transition"), "process.transition", list)
    kind = doc.get("kind", "plain-markov")
    if kind not in ("plain-markov", "contaminated"):
        raise ValidationError(f"unknown model kind {kind!r}")
    return build_markov(transition, kind=kind, alpha=doc.get("alpha"))
