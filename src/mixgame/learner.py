"""Finite hypothesis spaces, their loss tables, and randomized statistical learners.

A ``HypothesisSpace`` is the one table loss: its table has a hypothesis axis
and m symbol axes, and reads the last m symbols (m = 1 is a static table);
its forgetting coefficient B_d is exact from the table, 0 from d = m on.
The statistical learners read the mean of (n, W) ``loss_rows`` (``_round_mean``).

All posterior arithmetic happens in natural-log space with logsumexp
normalization so that inverse temperatures up to ~1e8 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError, ValidationError

_ENUM_CAP = 10**6
# numpy's limit on array axes; a length-L block table has L + 1 of them and
# ``window_expectations`` contracts it through one more
_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-D float array, -inf when ``a`` is empty.

    A finite top term is shifted out and its exact 1 added by ``log1p``, so
    tiny terms are not absorbed into it; else the direct formula is taken.
    """
    if a.size and math.isfinite(a[top := a.argmax()]):  # a NaN is the argmax
        rest = np.exp(a - a[top])
        rest[top] = 0.0
        return a[top] + np.log1p(rest.sum())
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.log(np.exp(a).sum())


class _BlockLoss:
    """What every loss shares: its value on one prefix or on all blocks.

    A loss gives ``n_hypotheses``, ``alphabet``, ``loss_rows(symbols)`` (the
    (n, W) losses of the running prefixes of a path), ``_on_prefixes(z)``,
    the losses of the prefixes whose symbol j is ``z[j]``, and its forgetting
    coefficient B_d, ``forgetting(d)``: ``block_table(d)`` is within B_d of it.
    """

    def horizon(self, cap: int = _ENUM_CAP) -> int:
        """The default block length of the limit: the longest within ``cap``
        and numpy's axis limit, the only limit on a one-symbol alphabet."""
        longest = math.log(cap) / math.log(self.alphabet) if self.alphabet > 1 else math.inf
        return max(1, math.floor(min(_MAX_AXES - 2, longest)))

    def values(self, prefix) -> np.ndarray:
        """Loss of every hypothesis on the given prefix, a (W,) vector; on an
        (L, k) block of k length-L prefixes, one per column, a (W, k) array."""
        prefix = np.asarray(prefix)
        if len(prefix) == 0:
            raise ValidationError("prefix must be non-empty")
        return self._on_prefixes(prefix)

    def block_table(self, L: int, cap: int = _ENUM_CAP) -> np.ndarray:
        """(W,) + (A,)*L tensor of the loss on every length-L prefix."""
        if L > self.horizon(cap) and self.alphabet**L > cap:
            raise SizeError(f"enumeration of {self.alphabet}^{L} blocks exceeds "
                            f"cap {cap} past the horizon {self.horizon(cap)}")
        if L + 2 > _MAX_AXES:
            raise SizeError(f"a block of length L = {L} needs {L + 2} array axes; "
                            f"numpy allows {_MAX_AXES}")
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
        if L.ndim + 1 > _MAX_AXES:
            raise ValidationError(f"a memory-{L.ndim - 1} table needs {L.ndim + 1} "
                                  f"array axes; numpy allows {_MAX_AXES}")
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

    def horizon(self, cap: int = _ENUM_CAP) -> int:
        """The memory m: the table is its own length-m block table."""
        return self.m

    def forgetting(self, d: int) -> float:
        """B_d from the table: its widest spread over the m - d oldest axes."""
        A, m, W = self.alphabet, self.m, self.n_hypotheses
        if d >= m:
            return 0.0
        # a padded prefix shorter than m is itself an m-window, so the losses
        # of all prefixes ending in one length-d suffix are the table entries
        # over the m - d leading symbol axes
        by_suffix = self.loss_table.reshape(W, A ** (m - d), A ** d)
        return float(np.max(by_suffix.max(axis=1) - by_suffix.min(axis=1)))

    def _on_prefixes(self, z) -> np.ndarray:
        # z[j] holds symbol j of every prefix; a short window pads with z[0]
        cols = tuple(z[max(0, j)] for j in range(len(z) - self.m, len(z)))
        return self.loss_table[(slice(None),) + cols]

    def loss_rows(self, symbols) -> np.ndarray:
        """(n, W) losses of the running prefixes, vectorized over rounds."""
        symbols = np.asarray(symbols)
        # round t reads the m-window ending at z_t of the symbols left-padded
        # with m - 1 copies of z_0, the padding rule of _on_prefixes
        padded = np.concatenate([np.repeat(symbols[:1], self.m - 1), symbols])
        return self._on_prefixes([padded[j:j + len(symbols)] for j in range(self.m)]).T


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


def _round_mean(rows: np.ndarray) -> np.ndarray:
    """The (W,) mean of (n, W) rows with the bits of a C-ordered ``mean(axis=0)`` in
    any layout: summed in round order, and pairwise for a single hypothesis."""
    if rows.shape[1] == 1:  # numpy sums one column pairwise in every layout
        return rows.mean(axis=0)
    return np.cumsum(rows, axis=0)[-1] / len(rows)


def gibbs_posterior(loss_rows: np.ndarray, beta: float) -> PosteriorDist:
    """Gibbs tilt of the uniform prior: log-weights -beta * n * mean loss row."""
    if beta < 0:
        raise ValidationError("beta must be non-negative")
    n, W = loss_rows.shape
    return PosteriorDist(PosteriorDist.uniform(W).log_weights
                         - beta * n * _round_mean(loss_rows))


def erm(loss_rows: np.ndarray) -> PosteriorDist:
    """Dirac on the minimizer of the mean loss row; ties broken by lowest index."""
    return PosteriorDist.dirac(int(np.argmin(_round_mean(loss_rows))),
                               loss_rows.shape[1])


def kl_divergence(p: PosteriorDist, q: PosteriorDist) -> float:
    """KL(p || q) with the 0*log(0) = 0 convention; inf if p escapes q's support."""
    pp = p.probs
    mask = pp > 0
    if np.any(np.isinf(q.log_weights[mask])):
        return float("inf")
    return float(np.sum(pp[mask] * (p.log_weights[mask] - q.log_weights[mask])))
