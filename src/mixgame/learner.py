"""Finite hypothesis spaces, exact losses, and randomized statistical learners.

All posterior arithmetic happens in natural-log space with logsumexp
normalization so that inverse temperatures up to ~1e8 stay finite.  The
normalizer ``_logsumexp`` is plain numpy that repeats, step by step, the
arithmetic of SciPy's ``logsumexp`` (the property tests compare the two bit
for bit) at about a tenth of its per-call cost, which the online learners
pay once per round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, build_field, config_value
from .process import ProcessModel, SamplePath


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


@dataclass(frozen=True)
class HypothesisSpace:
    """A finite hypothesis set with a W x m loss table, entries in [0, 1]."""

    loss_table: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.loss_table, dtype=float)
        if L.ndim != 2:
            raise ValidationError("loss table must be two-dimensional (W x m)")
        if not np.all((0 <= L) & (L <= 1)):
            raise ValidationError("loss table entries must lie in [0, 1]")
        object.__setattr__(self, "loss_table", L)

    @property
    def n_hypotheses(self) -> int:
        return self.loss_table.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.loss_table.shape[1]


@dataclass(frozen=True)
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


def test_losses(space: HypothesisSpace, model: ProcessModel) -> np.ndarray:
    """Exact test loss of every hypothesis under the stationary marginal."""
    return space.loss_table @ model.stationary


def empirical_losses(space: HypothesisSpace, path: SamplePath) -> np.ndarray:
    """Training loss of every hypothesis: mean of its losses along the path."""
    return space.loss_table[:, path.symbols].mean(axis=1)


def gibbs_posterior(space: HypothesisSpace, path: SamplePath, beta: float,
                    prior: PosteriorDist | None = None) -> PosteriorDist:
    """Gibbs tilt of the prior: log-weights -beta * n * empirical loss."""
    if beta < 0:
        raise ValidationError("beta must be non-negative")
    if prior is None:
        prior = PosteriorDist.uniform(space.n_hypotheses)
    n = len(path)
    return PosteriorDist(prior.log_weights - beta * n * empirical_losses(space, path))


def erm(space: HypothesisSpace, path: SamplePath) -> PosteriorDist:
    """Dirac on the empirical minimizer; ties broken by lowest index."""
    emp = empirical_losses(space, path)
    return PosteriorDist.dirac(int(np.argmin(emp)), space.n_hypotheses)


def exact_generalization_error(posterior: PosteriorDist, space: HypothesisSpace,
                               path: SamplePath, model: ProcessModel) -> float:
    """Posterior-averaged gap between test and training loss, no sampling."""
    gap = test_losses(space, model) - empirical_losses(space, path)
    return float(posterior.probs @ gap)


def kl_divergence(p: PosteriorDist, q: PosteriorDist) -> float:
    """KL(p || q) with the 0*log(0) = 0 convention; inf if p escapes q's support."""
    pp = p.probs
    mask = pp > 0
    if np.any(np.isinf(q.log_weights[mask])):
        return float("inf")
    return float(np.sum(pp[mask] * (p.log_weights[mask] - q.log_weights[mask])))


def space_from_json(doc: str | dict) -> HypothesisSpace:
    """Load a loss table from {"losses": [[...]]}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    losses = config_value(doc.get("losses"), "loss.losses", list)
    return build_field("loss.losses", HypothesisSpace, losses)
