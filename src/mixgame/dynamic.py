"""Sequence-dependent losses: bounded memory or geometric discounting.

A dynamic loss reads a whole data prefix instead of a single symbol: a
``learner.HypothesisSpace`` table of memory m (a static table is m = 1), or
the discounted loss defined here.  Each exact quantity reduces it to a
static W x S table: ``block_table(L)`` is the loss on every length-L block
(a memory-m table is its own length-m block table),
``process.window_expectations`` turns it into the W x S table
F[w, s] = E[loss(w, block) | block starts in s], and the static kernels act
on F.  That gives the limiting test loss F @ pi, the block mixing
coefficients beta_d (conditional-expectation gap between a length-d block
and an independent stationary copy, given the past at lag 2d) and the
dynamic mixing coefficient phi_d of the induced cost sequence.  Every loss
gives its forgetting coefficient B_d (worst change from altering symbols
older than d steps) as ``loss.forgetting(d)``, so the limit of the length-h
block table is within B_h, and phi_d is checked against the composite
2*B_{floor(d/2)} + beta_{floor(d/2)}.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigSection, ValidationError, build_field
from .game import GameTrace, play_costs
from .learner import _ENUM_CAP, HypothesisSpace, _BlockLoss
from .process import (ProcessModel, SamplePath, _walk_chain, exact_phi,
                      window_expectations)

_COMPOSITE_TOL = 1e-9
_MC_HISTORY = 64  # stationary symbols sampled before each conditioning state


class DiscountedLoss(_BlockLoss):
    """Geometrically discounted running loss, clipped to [0, 1].

    value(w, prefix) = clip(scale * sum_k gamma^k g(w, z_{t-k}), 0, 1) with
    g a per-symbol table in [0, 1].
    """

    def __init__(self, gamma: float, scale: float, g_table):
        if not 0 < gamma < 1:
            raise ValidationError("gamma must lie in (0, 1)")
        if not scale > 0:
            raise ValidationError("scale must be positive")
        g = np.asarray(g_table, dtype=float)
        if g.ndim != 2 or not np.all((0 <= g) & (g <= 1)):
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

    def forgetting(self, d: int) -> float:
        """B_d bounded by the geometric tail of the symbols older than d steps,
        which also bounds dropping them (the length-d block table), as 0 <= g."""
        return self.scale * float(self.g.max()) * self.gamma**d / (1.0 - self.gamma)


def _memory_table(m: int, table) -> HypothesisSpace:
    loss = HypothesisSpace(table)
    if loss.m != m:
        raise ValidationError(f"table must have shape (W,) + (A,)*{m}")
    return loss


# loss.kind -> (builder, its loss.* field keys in argument order, the table
# last: the builder's error names it, as the reader checked every scalar); a
# loss with no kind is a static {"losses": ...} table, the memory-1 case
LOSS_SCHEMAS = {
    None: (functools.partial(_memory_table, 1), ("losses",)),
    "memory-table": (_memory_table, ("m", "table")),
    "discounted": (DiscountedLoss, ("gamma", "scale", "g_table")),
}


def loss_from_json(doc: dict):
    """Build a loss from its ``LOSS_SCHEMAS`` entry and its read fields."""
    fields = ConfigSection(doc, "loss")
    build, keys = LOSS_SCHEMAS[fields.get("kind")]
    return build_field(f"loss.{keys[-1]}", build, *(fields[key] for key in keys))


def limit_test_losses(dl, model: ProcessModel, horizon: int | None = None,
                      cap: int = _ENUM_CAP) -> tuple[np.ndarray, float]:
    """Limiting test loss of every hypothesis, within ``dl.forgetting(horizon)``.

    The limit of the length-h block table, which differs from the loss by at
    most B_h.  The default horizon is ``dl.horizon(cap)``: the memory m of a
    table loss, which is exact there (B_m = 0), and the longest block within
    the cap otherwise.
    """
    if horizon is None:
        horizon = dl.horizon(cap)
    F = window_expectations(model, dl.block_table(horizon, cap))
    return F @ model.stationary, dl.forgetting(horizon)


def exact_block_beta(model: ProcessModel, dl, d: int) -> float:
    """Block mixing coefficient at lag d: the static phi of the block's window table.

    Compares the expected loss of an independent stationary length-d block
    against the conditional law of the realized block given the state 2d
    rounds before the block's end, maximized over hypotheses and states.
    """
    if d < 1:
        raise ValidationError("d must be at least 1")
    # only the last eff symbols of the block matter
    eff = min(dl.m, d) if isinstance(dl, HypothesisSpace) else d
    F = window_expectations(model, dl.block_table(eff))
    # 2d - eff + 1 steps from Z_{t-2d} to the first used symbol
    return exact_phi(model, F, 2 * d - eff + 1)


def dynamic_phi(model: ProcessModel, dl: HypothesisSpace, d: int) -> float:
    """phi_d of the dynamic cost sequence, exact for d >= m.

    ``exact_phi`` of the window table F at the lag d - m + 1 from Z_{t-d} to
    the window's first symbol; F contracts the loss table itself, so a
    static table (m = 1) gives its static phi_d bit for bit.
    """
    if d < dl.m:
        raise ValidationError("exact evaluation needs d >= m; use the MC fallback")
    return exact_phi(model, window_expectations(model, dl.loss_table), d - dl.m + 1)


def dynamic_phi_mc(model: ProcessModel, dl, d: int, n_samples: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the dynamic phi_d for losses without exact paths.

    Per conditioning state, one draw of ``n_samples`` rows of uniforms walks
    each row ``_MC_HISTORY`` symbols back through the time-reversed chain and
    d forward, and one ``values`` call scores the prefixes; the estimate is the
    worst limit loss minus conditional mean, as in ``dynamic_phi``, with its
    standard error.
    """
    limit, _ = limit_test_losses(dl, model)
    pi = model.stationary
    reverse = (model.transition * pi[None, :]).T / pi[:, None]
    rev_cum = np.cumsum(reverse / reverse.sum(axis=1, keepdims=True), axis=1)
    cum = np.cumsum(model.transition, axis=1)
    rng = np.random.default_rng(seed)
    worst_gap, worst_se = -np.inf, 0.0
    for s in range(model.n_states):
        u = rng.random((n_samples, _MC_HISTORY + d))
        prefixes = np.array([_walk_chain(rev_cum, s, row[:_MC_HISTORY])[::-1] + [s]
                             + _walk_chain(cum, s, row[_MC_HISTORY:]) for row in u])
        # C order: the mean sums the samples one row at a time, not pairwise
        losses = np.ascontiguousarray(dl.values(prefixes.T).T)
        gap = limit - losses.mean(axis=0)
        j = int(np.argmax(gap))
        if gap[j] > worst_gap:
            worst_gap = float(gap[j])
            worst_se = float(losses[:, j].std(ddof=1) / math.sqrt(n_samples))
    return max(0.0, worst_gap), worst_se


def composite_phi_check(model: ProcessModel, dl, d_grid) -> list[dict]:
    """Check phi_d <= 2*B_{d'} + beta_{d'} with d' = floor(d/2) along a grid.

    The even-d reduction uses d' = d/2 exactly; for odd d the floor keeps
    2*d' <= d, so the block coefficient conditions on a finer sigma-algebra
    than the gap it must dominate (the ceiling would not).  phi_d is the
    exact ``dynamic_phi``, so every d must be at least 2 and at least the
    loss memory m.
    """
    rows = []
    d_grid = [int(d) for d in d_grid]
    if min(d_grid) < max(2, dl.m):
        raise ValidationError(f"composite check needs every d >= max(2, m), m = {dl.m}")
    for d in d_grid:
        dh = d // 2
        phi = dynamic_phi(model, dl, d)
        beta, two_b = exact_block_beta(model, dl, dh), 2.0 * dl.forgetting(dh)
        rhs = two_b + beta
        rows.append({"d": d, "d_half": dh, "phi_dynamic": phi,
                     "forgetting_2B": two_b, "block_beta": beta,
                     "rhs": rhs, "ok": phi <= rhs + _COMPOSITE_TOL})
    return rows


def run_dynamic_game(dl, path: SamplePath, learner, d: int,
                     limit: np.ndarray) -> GameTrace:
    """Play the generalization game with sequence-dependent costs.

    Costs are loss(w, Z_t, ..., Z_1) minus ``limit``, the limiting test loss
    (``limit_test_losses``, one per run); the trace contract matches the
    static game, so decompose() applies unchanged.
    """
    return play_costs(dl.loss_rows(path.symbols), limit, learner, d)
