"""Finite hypothesis spaces, their loss tables, and randomized statistical learners.

A ``HypothesisSpace`` is the one table loss: its table has a hypothesis axis
and m symbol axes, and reads the last m symbols (m = 1 is a static table).
The statistical learners read a path's (n, W) ``loss_rows``, as the game does.

All posterior arithmetic happens in natural-log space with logsumexp
normalization so that inverse temperatures up to ~1e8 stay finite.  The
normalizer ``_logsumexp`` is plain numpy that repeats, step by step, the
arithmetic of SciPy's ``logsumexp`` (the property tests compare the two bit
for bit) at about a tenth of its per-call cost, which the online learners
pay once per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError, ValidationError

_ENUM_CAP = 10**6


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D float array, -inf when ``a`` is empty.

    The largest entries are taken out of the sum and counted, so that ``s``
    sums terms of at most 1 and ``log1p(s / m) + log(m) + a_max`` stays
    accurate.  A non-finite maximum or result falls back to the direct
    formula, whose infinities and NaNs follow ``exp`` and ``log``.
    """
    a_max = a.max(initial=-np.inf)
    if math.isfinite(a_max):
        top = a == a_max
        m = np.count_nonzero(top)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
        if s != 0:
            s /= m
        out = np.log1p(s) + np.log(m) + a_max
        if math.isfinite(out):
            return out
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.log(np.exp(a).sum())


class _BlockLoss:
    """What every loss shares: its value on one prefix or on all blocks.

    A loss gives ``n_hypotheses``, ``alphabet``, ``loss_rows(symbols)`` (the
    (n, W) losses of the running prefixes of a path) and ``_on_prefixes(z)``,
    the losses of the prefixes whose symbol j is ``z[j]``.
    """

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
        # fancy indexing leaves the hypothesis axis innermost; a C-ordered table
        # contracts to the bits of the loss table a memory-m loss already is
        table = np.ascontiguousarray(self._on_prefixes(np.indices(shape, sparse=True)))
        # a memory loss leaves unit axes for the head of a block longer than m
        return np.broadcast_to(table, (self.n_hypotheses,) + shape)


@dataclass(frozen=True, eq=False)
class HypothesisSpace(_BlockLoss):
    """A finite hypothesis set with a (W,) + (A,)*m loss table, entries in [0, 1].

    ``loss_table[w, z_{t-m+1}, ..., z_t]`` is the loss of w at round t, so
    the memory m is the number of symbol axes; a static W x A table is
    m = 1.  Prefixes shorter than m are left-padded with their own first
    symbol, so the loss is defined on sequences of every length.
    """

    loss_table: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.loss_table, dtype=float)
        if L.ndim < 2 or len(set(L.shape[1:])) > 1:
            raise ValidationError("loss table must have shape (W,) + (A,)*m")
        if not np.all((0 <= L) & (L <= 1)):
            raise ValidationError("loss table entries must lie in [0, 1]")
        object.__setattr__(self, "loss_table", L)

    @property
    def m(self) -> int:
        return self.loss_table.ndim - 1

    @property
    def n_hypotheses(self) -> int:
        return self.loss_table.shape[0]

    @property
    def alphabet(self) -> int:
        return self.loss_table.shape[1]

    def _on_prefixes(self, z) -> np.ndarray:
        # z[j] holds symbol j of every prefix; a short window pads with z[0]
        cols = tuple(z[max(0, j)] for j in range(len(z) - self.m, len(z)))
        return self.loss_table[(slice(None),) + cols]

    def loss_rows(self, symbols) -> np.ndarray:
        """(n, W) losses of the running prefixes, vectorized over rounds."""
        symbols = np.asarray(symbols)
        n = len(symbols)
        # round t reads symbols t-m+1 .. t; the first m-1 rounds pad with symbol 0
        padded = np.concatenate([np.repeat(symbols[:1], self.m - 1), symbols])
        cols = tuple(padded[j:j + n] for j in range(self.m))
        return self.loss_table[(slice(None),) + cols].T


@dataclass(frozen=True, eq=False)
class PosteriorDist:
    """A distribution over hypotheses stored as normalized log-weights."""

    log_weights: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        norm = _logsumexp(lw)
        # one scalar check, not a scan: NaN, +inf or all -inf log-weights
        # (the empty vector too) leave no finite normalizer
        if not math.isfinite(norm):
            raise ValidationError(f"log-weights have no finite normalizer ({norm})")
        object.__setattr__(self, "log_weights", lw - norm)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def __len__(self) -> int:
        return len(self.log_weights)

    @staticmethod
    def from_probs(p) -> "PosteriorDist":
        p = np.asarray(p, dtype=float)
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-8):
            raise ValidationError("not a probability vector")
        with np.errstate(divide="ignore"):
            return PosteriorDist(np.log(p))

    @staticmethod
    def uniform(W: int) -> "PosteriorDist":
        return PosteriorDist(np.zeros(W))

    @staticmethod
    def dirac(w: int, W: int) -> "PosteriorDist":
        lw = np.full(W, -np.inf)
        lw[w] = 0.0
        return PosteriorDist(lw)


def gibbs_posterior(loss_rows: np.ndarray, beta: float) -> PosteriorDist:
    """Gibbs tilt of the uniform prior: log-weights -beta * n * mean loss row."""
    if beta < 0:
        raise ValidationError("beta must be non-negative")
    n, W = loss_rows.shape
    return PosteriorDist(PosteriorDist.uniform(W).log_weights
                         - beta * n * loss_rows.mean(axis=0))


def erm(loss_rows: np.ndarray) -> PosteriorDist:
    """Dirac on the minimizer of the mean loss row; ties broken by lowest index."""
    return PosteriorDist.dirac(int(np.argmin(loss_rows.mean(axis=0))),
                               loss_rows.shape[1])


def kl_divergence(p: PosteriorDist, q: PosteriorDist) -> float:
    """KL(p || q) with the 0*log(0) = 0 convention; inf if p escapes q's support."""
    pp = p.probs
    mask = pp > 0
    if np.any(np.isinf(q.log_weights[mask])):
        return float("inf")
    return float(np.sum(pp[mask] * (p.log_weights[mask] - q.log_weights[mask])))
