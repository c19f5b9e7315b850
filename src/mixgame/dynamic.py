"""Sequence-dependent losses: bounded memory or geometric discounting.

A dynamic loss reads a whole data prefix instead of a single symbol.  Each
exact quantity reduces it to a static W x S table: ``block_table(L)`` is the
loss on every length-L block, ``process.window_expectations`` turns it into
F[s, w] = E[loss(w, block) | block starts in s], and the static kernels act
on F.T.  That gives the limiting test loss F.T @ pi, the block mixing
coefficients beta_d (conditional-expectation gap between a length-d block
and an independent stationary copy, given the past at lag 2d) and the
dynamic mixing coefficient phi_d of the induced cost sequence.  Forgetting
coefficients B_d (worst change from altering symbols older than d steps)
come from the loss itself, and phi_d is checked against the composite
2*B_{floor(d/2)} + beta_{floor(d/2)} built from the two profiles.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SizeError, ValidationError, config_value
from .game import GameTrace, play_costs
from .process import (ProcessModel, SamplePath, _walk_chain,
                      conditional_loss_expectations, exact_phi,
                      window_expectations)

_ENUM_CAP = 10**6


class _BlockLoss:
    """What the dynamic losses share: their value on one prefix or on all blocks."""

    def values(self, prefix) -> np.ndarray:
        """Loss of every hypothesis on the given prefix."""
        prefix = np.asarray(prefix)
        if len(prefix) == 0:
            raise ValidationError("prefix must be non-empty")
        return self._on_prefixes(prefix)

    def block_table(self, L: int, cap: int = _ENUM_CAP) -> np.ndarray:
        """(W,) + (A,)*L tensor of the loss on every length-L prefix."""
        if self.alphabet**L > cap:
            raise SizeError(f"enumeration of {self.alphabet}^{L} blocks exceeds "
                            f"cap {cap}; use the Monte Carlo fallback")
        shape = (self.alphabet,) * L
        # a memory loss leaves unit axes for the head of a block longer than m
        table = self._on_prefixes(np.indices(shape, sparse=True))
        return np.broadcast_to(table, (self.n_hypotheses,) + shape)


class MemoryTableLoss(_BlockLoss):
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

    def _on_prefixes(self, z) -> np.ndarray:
        # z[j] holds symbol j of every prefix; a short window pads with z[0]
        cols = tuple(z[max(0, j)] for j in range(len(z) - self.m, len(z)))
        return self.table[(slice(None),) + cols]

    def loss_rows(self, symbols) -> np.ndarray:
        """(n, W) losses of the running prefixes, vectorized over rounds."""
        symbols = np.asarray(symbols)
        t = np.arange(len(symbols))
        cols = tuple(symbols[np.maximum(t - self.m + 1 + j, 0)] for j in range(self.m))
        return self.table[(slice(None),) + cols].T


class DiscountedLoss(_BlockLoss):
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

    def _on_prefixes(self, z) -> np.ndarray:
        weights = self.gamma ** np.arange(len(z))[::-1]
        raw = sum(w * self.g[:, zj] for w, zj in zip(weights, z))
        return np.clip(self.scale * raw, 0.0, 1.0)

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
    """Load a dynamic loss from its JSON schema; config_value reads each field."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    kind = doc.get("kind")
    schemas = {"memory-table": (MemoryTableLoss, {"m": int, "table": list}),
               "discounted": (DiscountedLoss,
                              {"gamma": float, "scale": float, "g_table": list})}
    if not isinstance(kind, str) or kind not in schemas:
        raise ValidationError(f"unknown dynamic loss kind {kind!r}")
    cls, fields = schemas[kind]
    return cls(*(config_value(doc.get(key), f"loss.{key}", as_kind)
                 for key, as_kind in fields.items()))


def limit_test_losses(dl, model: ProcessModel, horizon: int | None = None,
                      cap: int = _ENUM_CAP) -> tuple[np.ndarray, float]:
    """Limiting test loss of every hypothesis, with a truncation-error bound.

    Memory losses are exact at any horizon >= m (error 0); discounted
    losses are truncated at the horizon with error <= the tail envelope.
    """
    if isinstance(dl, MemoryTableLoss):
        if horizon is not None and horizon < dl.m:
            raise ValidationError("horizon must cover the loss memory")
        horizon, err = dl.m, 0.0
    else:
        if horizon is None:
            horizon = max(1, math.floor(math.log(cap) / math.log(dl.alphabet)))
        err = dl.tail_envelope(horizon)
    F = window_expectations(model, dl.block_table(horizon, cap))
    return F.T @ model.stationary, err


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


def exact_block_beta(model: ProcessModel, dl, d: int) -> float:
    """Block mixing coefficient at lag d: the static phi of the block's window table.

    Compares the expected loss of an independent stationary length-d block
    against the conditional law of the realized block given the state 2d
    rounds before the block's end, maximized over hypotheses and states.
    """
    if d < 1:
        raise ValidationError("d must be at least 1")
    # only the last eff symbols of the block matter
    eff = min(dl.m, d) if isinstance(dl, MemoryTableLoss) else d
    F = window_expectations(model, dl.block_table(eff))
    # 2d - eff + 1 steps from Z_{t-2d} to the first used symbol
    return exact_phi(model, F.T, 2 * d - eff + 1)


def block_mixing_profile(model: ProcessModel, dl, d_max: int) -> np.ndarray:
    return np.array([exact_block_beta(model, dl, d) for d in range(1, d_max + 1)])


def _memory_windows(model: ProcessModel, dl: MemoryTableLoss,
                    d: int) -> tuple[np.ndarray, int]:
    """The window table F.T and the lag from Z_{t-d} to the window's first symbol."""
    if d < dl.m:
        raise ValidationError("exact evaluation needs d >= m; use the MC fallback")
    return window_expectations(model, dl.block_table(dl.m)).T, d - dl.m + 1


def dynamic_conditional_expectations(model: ProcessModel, dl: MemoryTableLoss,
                                     d: int) -> np.ndarray:
    """E[loss(w, Z_t, ..., Z_1) | Z_{t-d} = s] for every (s, w); needs d >= m."""
    return conditional_loss_expectations(model, *_memory_windows(model, dl, d))


def dynamic_phi_gaps(model: ProcessModel, dl: MemoryTableLoss,
                     d: int) -> tuple[float, float]:
    """Both one-sided gaps of the dynamic cost sequence at lag d, unclamped.

    The first is the max over (w, s) of conditional expected loss minus the
    limit loss.  The second, the mirror, is limit minus conditional: the
    static convention, the side ``dynamic_phi`` and the bound on M_n take,
    and the side the composite 2*B + beta dominates.  On symmetric instances
    the two coincide.
    """
    table, lag = _memory_windows(model, dl, d)
    diff = conditional_loss_expectations(model, table, lag) - table @ model.stationary
    return float(np.max(diff)), float(np.max(-diff))


def dynamic_phi(model: ProcessModel, dl: MemoryTableLoss, d: int) -> float:
    """phi_d of the dynamic cost sequence: the mirror gap, clamped at zero."""
    return exact_phi(model, *_memory_windows(model, dl, d))


def dynamic_phi_mc(model: ProcessModel, dl, d: int, n_samples: int, seed: int,
                   history: int = 64) -> tuple[float, float]:
    """Monte Carlo estimate of the dynamic phi_d for losses without exact paths.

    For each conditioning state the stationary history before the state is
    sampled through the time-reversed chain, then the chain runs d steps
    forward; the estimate is the worst limit loss minus conditional mean, the
    side ``dynamic_phi`` takes.
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
        gap = limit - means.mean(axis=0)
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
    gaps of ``dynamic_phi_gaps`` are evaluated exactly.
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


def run_dynamic_game(dl, path: SamplePath, learner, d: int,
                     limit: np.ndarray) -> GameTrace:
    """Play the generalization game with sequence-dependent costs.

    Costs are loss(w, Z_t, ..., Z_1) minus ``limit``, the limiting test loss
    (``limit_test_losses``, one per run); the trace contract matches the
    static game, so decompose() applies unchanged.
    """
    rows = dl.loss_rows(path.symbols)
    costs = rows - limit[None, :]
    return play_costs(costs, learner, d, symbols=path.symbols,
                      loss_rows=rows, test_loss_vec=limit)
