"""Sequence-dependent losses: bounded memory or geometric discounting.

A dynamic loss reads a whole data prefix instead of a single symbol.  The
module computes, exactly where enumeration is feasible:

* the limiting test loss (expected loss of a long stationary prefix),
* forgetting coefficients B_d (worst change from altering symbols older
  than d steps),
* block mixing coefficients beta_d (conditional-expectation gap between a
  length-d block and an independent stationary copy, given the past at
  lag 2d),
* the dynamic mixing coefficient phi_d of the induced cost sequence,

and verifies that phi_d is dominated by the composite 2*B_{floor(d/2)} +
beta_{floor(d/2)} built from the two profiles.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import SizeError, ValidationError
from .game import GameTrace, play_costs
from .process import ProcessModel, SamplePath, _walk_chain

_ENUM_CAP = 10**6


class MemoryTableLoss:
    """Loss that reads the last m symbols; a table indexed by that window.

    Prefixes shorter than m are left-padded with their own first symbol, so
    the loss is defined on sequences of every length.
    """

    kind = "memory-table"

    def __init__(self, m: int, table):
        table = np.asarray(table, dtype=float)
        if m < 1 or table.ndim != m + 1:
            raise ValidationError("table must have shape (W,) + (A,)*m")
        if np.any(table < 0) or np.any(table > 1):
            raise ValidationError("loss values must lie in [0, 1]")
        if len(set(table.shape[1:])) > 1:
            raise ValidationError("all symbol axes must share the alphabet size")
        self.m = m
        self.table = table
        self.n_hypotheses = table.shape[0]
        self.alphabet = table.shape[1]

    def window(self, prefix) -> tuple:
        prefix = np.asarray(prefix)
        if len(prefix) == 0:
            raise ValidationError("prefix must be non-empty")
        pad = [int(prefix[0])] * max(0, self.m - len(prefix))
        return tuple(pad + [int(z) for z in prefix[-self.m:]])

    def values(self, prefix) -> np.ndarray:
        """Loss of every hypothesis on the given prefix."""
        return self.table[(slice(None),) + self.window(prefix)]

    def loss_rows(self, symbols) -> np.ndarray:
        """(n, W) losses of the running prefixes, vectorized over rounds."""
        symbols = np.asarray(symbols)
        n = len(symbols)
        t = np.arange(n)
        cols = tuple(symbols[np.maximum(t - self.m + 1 + j, 0)] for j in range(self.m))
        return self.table[(slice(None),) + cols].T


class DiscountedLoss:
    """Geometrically discounted running loss, clipped to [0, 1].

    value(w, prefix) = clip(scale * sum_k gamma^k g(w, z_{t-k}), 0, 1) with
    g a per-symbol table in [0, 1].
    """

    kind = "discounted"

    def __init__(self, gamma: float, scale: float, g_table):
        if not 0 < gamma < 1:
            raise ValidationError("gamma must lie in (0, 1)")
        if scale <= 0:
            raise ValidationError("scale must be positive")
        g = np.asarray(g_table, dtype=float)
        if g.ndim != 2 or np.any(g < 0) or np.any(g > 1):
            raise ValidationError("g_table must be W x A with entries in [0, 1]")
        self.gamma = gamma
        self.scale = scale
        self.g = g
        self.n_hypotheses = g.shape[0]
        self.alphabet = g.shape[1]

    def values(self, prefix) -> np.ndarray:
        prefix = np.asarray(prefix)
        if len(prefix) == 0:
            raise ValidationError("prefix must be non-empty")
        weights = self.gamma ** np.arange(len(prefix))[::-1]
        raw = self.scale * (self.g[:, prefix] @ weights)
        return np.clip(raw, 0.0, 1.0)

    def loss_rows(self, symbols) -> np.ndarray:
        symbols = np.asarray(symbols)
        G = self.g[:, symbols]  # (W, n)
        out = np.empty_like(G)
        acc = np.zeros(G.shape[0])
        for t in range(G.shape[1]):
            acc = G[:, t] + self.gamma * acc
            out[:, t] = acc
        return np.clip(self.scale * out.T, 0.0, 1.0)

    def tail_envelope(self, d: int) -> float:
        """Upper bound on the influence of symbols older than d steps."""
        span = float(np.max(self.g.max(axis=1) - self.g.min(axis=1)))
        return self.scale * span * self.gamma**d / (1.0 - self.gamma)


def loss_from_json(doc: str | dict):
    """Load a dynamic loss from its JSON schema."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    schemas = {"memory-table": (MemoryTableLoss, ("m", "table")),
               "discounted": (DiscountedLoss, ("gamma", "scale", "g_table"))}
    if kind not in schemas:
        raise ValidationError(f"unknown dynamic loss kind {kind!r}")
    cls, keys = schemas[kind]
    for key in keys:
        if key not in doc:
            raise ValidationError(f"config field 'loss.{key}': missing")
    return cls(*(doc[key] for key in keys))


def _check_cap(alphabet: int, length: int, cap: int = _ENUM_CAP) -> None:
    if alphabet**length > cap:
        raise SizeError(f"enumeration of {alphabet}^{length} blocks exceeds "
                        f"cap {cap}; use the Monte Carlo fallback")


def _block_expectations(dl, model: ProcessModel, start_dist: np.ndarray,
                        length: int) -> np.ndarray:
    """E[loss(w, block)] for a block drawn with the given start distribution.

    Blocks shorter than a memory loss's m are evaluated padded, like any
    short prefix.
    """
    _check_cap(dl.alphabet, length)
    joint = np.asarray(start_dist, dtype=float)
    for _ in range(length - 1):
        joint = joint[..., :, None] * model.transition
    joint = joint.reshape(-1)
    if isinstance(dl, MemoryTableLoss) and length >= dl.m:
        # only the last m symbols matter: marginalize the head
        joint = joint.reshape((dl.alphabet ** (length - dl.m), -1)).sum(axis=0)
        return dl.table.reshape(dl.n_hypotheses, -1) @ joint
    vals = np.empty((dl.alphabet**length, dl.n_hypotheses))
    for i, block in enumerate(itertools.product(range(dl.alphabet), repeat=length)):
        vals[i] = dl.values(np.asarray(block))
    return vals.T @ joint


def limit_test_losses(dl, model: ProcessModel, horizon: int | None = None,
                      cap: int = _ENUM_CAP) -> tuple[np.ndarray, float]:
    """Limiting test loss of every hypothesis, with a truncation-error bound.

    Memory losses are exact at any horizon >= m (error 0); discounted
    losses are truncated at the horizon with error <= the tail envelope.
    """
    if isinstance(dl, MemoryTableLoss):
        if horizon is not None and horizon < dl.m:
            raise ValidationError("horizon must cover the loss memory")
        return _block_expectations(dl, model, model.stationary, dl.m), 0.0
    if horizon is None:
        horizon = max(1, math.floor(math.log(cap) / math.log(dl.alphabet)))
    _check_cap(dl.alphabet, horizon, cap)
    vals = _block_expectations(dl, model, model.stationary, horizon)
    return vals, dl.tail_envelope(horizon)


def forgetting_profile(dl, d_max: int) -> np.ndarray:
    """B_d for d = 1..d_max: worst loss change from disagreeing beyond lag d.

    Memory losses get the exact profile from the loss table (zero at and
    beyond m); discounted losses get the analytic geometric envelope.
    """
    if isinstance(dl, DiscountedLoss):
        return np.array([dl.tail_envelope(d) for d in range(1, d_max + 1)])
    A, m, W = dl.alphabet, dl.m, dl.n_hypotheses
    out = np.zeros(d_max)
    for d in range(1, min(m, d_max + 1)):
        # a padded prefix shorter than m is itself an m-window, so the losses
        # of all prefixes ending in one length-d suffix are the table entries
        # over the m - d leading symbol axes
        by_suffix = dl.table.reshape(W, A ** (m - d), A ** d)
        out[d - 1] = np.max(by_suffix.max(axis=1) - by_suffix.min(axis=1))
    return out


def exact_block_beta(model: ProcessModel, dl, d: int,
                     cap: int = _ENUM_CAP) -> float:
    """Block mixing coefficient at lag d, exact via transition powers.

    Compares the expected loss of an independent stationary length-d block
    against the conditional law of the realized block given the state 2d
    rounds before the block's end, maximized over hypotheses and states.
    """
    if d < 1:
        raise ValidationError("d must be at least 1")
    # only the last eff symbols of the block matter
    eff = min(dl.m, d) if isinstance(dl, MemoryTableLoss) else d
    _check_cap(dl.alphabet, eff, cap)
    steps_to_suffix = 2 * d - eff + 1  # from Z_{t-2d} to the first used symbol
    stat = _block_expectations(dl, model, model.stationary, eff)  # (W,)
    P_lag = np.linalg.matrix_power(model.transition, steps_to_suffix)
    gaps = [stat - _block_expectations(dl, model, row, eff) for row in P_lag]
    return max(0.0, float(np.max(gaps)))


def block_mixing_profile(model: ProcessModel, dl, d_max: int) -> np.ndarray:
    return np.array([exact_block_beta(model, dl, d) for d in range(1, d_max + 1)])


def dynamic_conditional_expectations(model: ProcessModel, dl: MemoryTableLoss,
                                     d: int) -> np.ndarray:
    """E[loss(w, Z_t, ..., Z_1) | Z_{t-d} = s] for every (s, w); needs d >= m."""
    if d < dl.m:
        raise ValidationError("exact evaluation needs d >= m; use the MC fallback")
    P_lag = np.linalg.matrix_power(model.transition, d - dl.m + 1)
    return np.stack([_block_expectations(dl, model, row, dl.m) for row in P_lag])


def dynamic_phi_gaps(model: ProcessModel, dl: MemoryTableLoss,
                     d: int) -> tuple[float, float]:
    """Both one-sided gaps of the dynamic cost sequence at lag d, unclamped.

    The first is the max over (w, s) of conditional expected loss minus the
    limit loss, the dynamic mixing convention.  The second, the mirror, is
    the max of limit loss minus conditional expected loss: the static
    convention, the side the blocked martingale argument consumes and the
    side the composite 2*B + beta bound actually dominates.  On symmetric
    instances the two coincide.
    """
    limit, _ = limit_test_losses(dl, model)
    diff = dynamic_conditional_expectations(model, dl, d) - limit[None, :]
    return float(np.max(diff)), float(np.max(-diff))


def dynamic_phi(model: ProcessModel, dl: MemoryTableLoss, d: int) -> float:
    """Mixing coefficient of the dynamic cost sequence, clamped at zero."""
    return max(0.0, dynamic_phi_gaps(model, dl, d)[0])


def dynamic_phi_mc(model: ProcessModel, dl, d: int, n_samples: int, seed: int,
                   history: int = 64) -> tuple[float, float]:
    """Monte Carlo estimate of the dynamic phi_d for losses without exact paths.

    For each conditioning state the stationary history before the state is
    sampled through the time-reversed chain, then the chain runs d steps
    forward; the estimate is the worst conditional mean minus the limit loss.
    """
    limit, _ = limit_test_losses(dl, model)
    pi = model.stationary
    reverse = (model.transition * pi[None, :]).T / pi[:, None]
    reverse = reverse / reverse.sum(axis=1, keepdims=True)
    rev_model = ProcessModel(transition=reverse, stationary=pi)
    rng = np.random.default_rng(seed)
    worst_gap, worst_se = -np.inf, 0.0
    for s in range(model.n_states):
        means = np.empty((n_samples, dl.n_hypotheses))
        for i in range(n_samples):
            back = _walk(rev_model, s, history, rng)[::-1]
            fwd = _walk(model, s, d, rng)
            prefix = np.concatenate([back, [s], fwd])
            means[i] = dl.values(prefix)
        gap = means.mean(axis=0) - limit
        j = int(np.argmax(gap))
        if gap[j] > worst_gap:
            worst_gap = float(gap[j])
            worst_se = float(means[:, j].std(ddof=1) / math.sqrt(n_samples))
    return max(0.0, worst_gap), worst_se


def _walk(model: ProcessModel, start: int, steps: int, rng) -> np.ndarray:
    # one rng.random(steps) draws the same stream as steps rng.random() calls
    cum = np.cumsum(model.transition, axis=1)
    return np.array(_walk_chain(cum, start, rng.random(steps)), dtype=np.int64)


def composite_phi_check(model: ProcessModel, dl, d_grid,
                        tol: float = 1e-9) -> list[dict]:
    """Check phi_d <= 2*B_{d'} + beta_{d'} with d' = floor(d/2) along a grid.

    The even-d reduction uses d' = d/2 exactly; for odd d the floor keeps
    2*d' <= d, so the block coefficient conditions on a finer sigma-algebra
    than the gap it must dominate (the ceiling would not).  Both one-sided
    gaps are evaluated exactly: the (loss minus limit) convention of the
    dynamic mixing definition and its mirror (limit minus loss), which is
    the side the derivation dominates.
    """
    rows = []
    d_grid = [int(d) for d in d_grid]
    if min(d_grid) < 2:
        raise ValidationError("composite check needs d >= 2")
    B = forgetting_profile(dl, max(d // 2 for d in d_grid))
    for d in d_grid:
        dh = d // 2
        lhs, mirror = (max(0.0, gap) for gap in dynamic_phi_gaps(model, dl, d))
        beta = exact_block_beta(model, dl, dh)
        rhs = 2.0 * B[dh - 1] + beta
        rows.append({"d": d, "d_half": dh, "phi_dynamic": lhs,
                     "phi_mirror": mirror,
                     "forgetting_2B": 2.0 * B[dh - 1], "block_beta": beta,
                     "rhs": rhs, "ok": lhs <= rhs + tol,
                     "ok_mirror": mirror <= rhs + tol})
    return rows


def run_dynamic_game(model: ProcessModel, dl, path: SamplePath, learner,
                     d: int) -> GameTrace:
    """Play the generalization game with sequence-dependent costs.

    Costs are loss(w, Z_t, ..., Z_1) minus the limiting test loss; the trace
    contract matches the static game, so decompose() applies unchanged.
    """
    limit, _ = limit_test_losses(dl, model)
    rows = dl.loss_rows(path.symbols)
    costs = rows - limit[None, :]
    return play_costs(costs, learner, d, symbols=path.symbols,
                      loss_rows=rows, test_loss_vec=limit)
