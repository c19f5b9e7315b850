"""Finite hypothesis spaces, their loss tables, and randomized statistical learners.

A ``HypothesisSpace`` is the one table loss: its table has a hypothesis axis
and m symbol axes, and reads the last m symbols (m = 1 is a static table);
its forgetting coefficient B_d is exact from the table, 0 from d = m on.
Its losses on any set of windows are one ``take`` from the (A^m, W) view of
the table at each window's row-major index, built by Horner's rule; they come
back hypothesis-innermost, as fancy indexing laid them out, so the (n, W) loss
rows are C-ordered.
Priors, comparators and plays are (W,) probability arrays.  The statistical
learners read a game's (W,) mean loss row (``_round_mean`` of its loss rows):
Gibbs is the ``online.ewa_step`` play of the uniform prior after n rounds of
that row, so one shifted softmax computes every posterior; ERM is one-hot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError, ValidationError
from .online import ewa_step

_ENUM_CAP = 10**6
# numpy's limit on array axes; a length-L block table has L + 1 of them and
# ``window_expectations`` contracts it through one more
_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def _symbols(symbols, A: int) -> np.ndarray:
    """The symbols as an array, refused unless each lies in range(A): the
    window index of a table loss would read another window's row."""
    symbols = np.asarray(symbols)
    if symbols.size and not (0 <= symbols.min() and symbols.max() < A):
        raise ValidationError(f"symbols must lie in range({A})")
    return symbols


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
        """Loss of every hypothesis on the given prefix of symbols in range(A), a
        (W,) vector; on an (L, k) block of k length-L prefixes, one per column,
        a (W, k) array."""
        prefix = _symbols(prefix, self.alphabet)
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
        flat = z[max(0, len(z) - self.m)]
        for j in range(len(z) - self.m + 1, len(z)):
            flat = flat * self.alphabet + z[max(0, j)]
        rows = self.loss_table.reshape(self.n_hypotheses, -1).T.take(flat, axis=0)
        # the hypothesis axis to the front, where fancy indexing put it: innermost
        return rows.transpose(-1, *range(rows.ndim - 1))

    def loss_rows(self, symbols) -> np.ndarray:
        """(n, W) losses of the running prefixes of a path's symbols, each in
        range(A), vectorized over rounds; a C-ordered array, the hypothesis
        innermost."""
        symbols = _symbols(symbols, self.alphabet)
        # round t reads the m-window ending at z_t of the symbols left-padded with
        # m - 1 copies of z_0, the padding rule of _on_prefixes; only the windows
        # that reach back past z_0 are copies
        shifted = [np.concatenate([np.repeat(symbols[:1], k), symbols])[:len(symbols)]
                   for k in range(self.m - 1, 0, -1)]
        return self._on_prefixes([*shifted, symbols]).T


def _round_mean(rows: np.ndarray) -> np.ndarray:
    """The (W,) mean of (n, W) rows with the bits of a C-ordered ``mean(axis=0)`` in
    any layout: summed in round order, and pairwise for a single hypothesis."""
    if rows.shape[1] == 1:  # numpy sums one column pairwise in every layout
        return rows.mean(axis=0)
    return np.cumsum(rows, axis=0)[-1] / len(rows)


def uniform_prior(W: int) -> np.ndarray:
    """The uniform distribution on W hypotheses, built so that its ``np.log``, the
    log prior that EWA and Gibbs tilt, is -log1p(W - 1) in every entry."""
    return np.exp(np.full(W, -np.log1p(W - 1)))


@functools.cache
def _uniform_log_prior(W: int) -> np.ndarray:
    """The read-only ``np.log`` of ``uniform_prior(W)``, the log prior Gibbs tilts."""
    log_prior = np.log(uniform_prior(W))
    log_prior.flags.writeable = False
    return log_prior


def gibbs_posterior(mean_row: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Gibbs tilt of the uniform prior by n rounds of the (W,) mean loss row: the
    EWA play ``ewa_step(log prior, beta * n, mean_row)``; a non-finite play is a
    ValidationError."""
    if beta < 0:
        raise ValidationError("beta must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        play = ewa_step(_uniform_log_prior(len(mean_row)), beta * n, mean_row)
    if not np.isfinite(play).all():
        raise ValidationError(f"the Gibbs play is not finite: beta * n = {beta * n:g} "
                              "overflows, or a mean loss is not finite")
    return play


def erm(mean_row: np.ndarray) -> np.ndarray:
    """One-hot at the minimizer of the (W,) mean loss row; ties broken by lowest index."""
    return (np.arange(len(mean_row)) == np.argmin(mean_row)).astype(float)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) of (W,) probability arrays with the 0*log(0) = 0 convention;
    inf if p escapes q's support, where the log of q's 0 is -inf."""
    mask = p > 0
    with np.errstate(divide="ignore"):
        return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
