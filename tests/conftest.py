import functools
import itertools
import math

import numpy as np
import pytest

from mixgame import (HypothesisSpace, MixingProfile, ProcessModel, SizeError,
                     build_markov, delay_bound, two_state_chain)

PRODUCT_STATE_CAP = 10**4


def build_iid(probs):
    """An i.i.d. source, i.e. a chain whose every row is the marginal."""
    p = np.asarray(probs, dtype=float)
    return build_markov(np.tile(p, (len(p), 1)))


def product_chain(models) -> ProcessModel:
    """Independent chains run side by side, the first as the slowest index.

    State (s_1, ..., s_K) is the row-major index into the np.kron of the
    transition matrices, and the np.kron of the stationary laws is invariant.
    """
    size = math.prod(m.n_states for m in models)
    if size > PRODUCT_STATE_CAP:
        raise SizeError(f"product state count {size} exceeds cap {PRODUCT_STATE_CAP}")
    return ProcessModel(
        transition=functools.reduce(np.kron, [m.transition for m in models],
                                    np.ones((1, 1))),
        stationary=functools.reduce(np.kron, [m.stationary for m in models],
                                    np.ones(1)))


def instance_regrets(trace, comparator, d):
    """Per-residue-class regrets; their sum is the total regret exactly."""
    diff = trace.posteriors - comparator[None, :]
    per_round = np.sum(diff * trace.costs, axis=1)
    return np.array([per_round[i::d].sum() for i in range(d)])


def regret_bound(h_gap, eta, alpha, dual_norm_sq_sum):
    """Regret bound (h(P*) - h(P_1))/eta + (eta/2 alpha) * sum of squared dual norms;
    exponential weights is the case h_gap = KL, alpha = 1, sup norms."""
    return h_gap / eta + eta / (2.0 * alpha) * dual_norm_sq_sum


# chains with a state of zero stationary mass: their reversed chain has an
# all-NaN row there (0/0), which the Monte-Carlo phi conditions on
TRANSIENT_CHAINS = ([[0.0, 1.0], [0.0, 1.0]],
                    [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])


def random_chain(rng, n_states=2, smoothing=0.05):
    """A random aperiodic, irreducible transition matrix."""
    T = rng.random((n_states, n_states)) + smoothing
    return build_markov(T / T.sum(axis=1, keepdims=True))


def limit_test_losses_mc(dl, model, horizon, n_samples, seed):
    """Monte Carlo estimate of a dynamic loss's limiting test loss, with
    standard errors: n_samples stationary length-horizon paths, all drawn
    from one generator, one inverse-CDF step per symbol for all paths at once.
    """
    rng = np.random.default_rng(seed)
    cum = np.cumsum(model.transition, axis=1)[:, :-1]
    paths = np.empty((n_samples, horizon), dtype=np.int64)
    paths[:, 0] = np.searchsorted(np.cumsum(model.stationary)[:-1],
                                  rng.random(n_samples), side="right")
    for t in range(1, horizon):
        u = rng.random(n_samples)
        paths[:, t] = (u[:, None] >= cum[paths[:, t - 1]]).sum(axis=1)
    # a loss reads a whole path, so evaluate each distinct path once
    distinct, inverse = np.unique(paths, axis=0, return_inverse=True)
    values = np.array([dl.values(p) for p in distinct])
    samples = values[inverse.reshape(-1)]
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(n_samples)


def enumerated_block_expectations(dl, model, start, length):
    """E[loss(w, block)] for a length-`length` block whose first symbol is
    drawn from each row of `start` (or from the vector `start`), by calling
    dl.values on every block and weighting it by its probability under the
    chain: one row of (W,) expectations per start law.
    """
    joint = np.atleast_2d(np.asarray(start, dtype=float))
    for _ in range(length - 1):
        joint = joint[..., None] * model.transition
    joint = joint.reshape(len(joint), -1)
    blocks = itertools.product(range(dl.alphabet), repeat=length)
    values = np.array([dl.values(np.asarray(block)) for block in blocks])
    out = joint @ values
    return out if np.ndim(start) == 2 else out[0]


def random_space(rng, n_hypotheses, n_symbols):
    return HypothesisSpace(rng.random((n_hypotheses, n_symbols)))


@pytest.fixture
def symmetric_quarter_chain():
    """Two-state chain with flip probability 0.25 on both sides."""
    return two_state_chain(0.25, 0.25)


@pytest.fixture
def indicator_space():
    """Hypothesis w predicts state w; loss is the indicator of a miss."""
    return HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))


def algebraic_rate_sandwich(C, r, n, delta):
    """(low, ratio, high): the zero-regret algebraic tuned bound over the rate
    C^{1/(1+2r)} (1 + sqrt(2 ln(1/delta))) n^{-r/(1+2r)}, and the ends
    (1+1/x)^{-r} and sqrt(1+1/x) it lies between at x = (C^2 n)^{1/(1+2r)}.

    At d = x both terms equal their rate parts; the tuned d lies in [x, x+1)
    when no clamp applies, which lowers phi_d by at most (1+1/x)^{-r} and
    raises the deviation by at most sqrt(1+1/x).
    """
    profile = MixingProfile("algebraic", C=C, r=r)
    d = profile.tuned_delay(n)
    row = delay_bound(0.0, profile.phi(d), d, n, delta, tag=profile.kind)
    e = 1.0 / (1.0 + 2.0 * r)
    x = (C * C * n) ** e
    assert x <= row["d"] < x + 1 and row["d"] < n  # no clamp
    rate = C**e * (1.0 + math.sqrt(2.0 * math.log(1.0 / delta))) * n ** (-r * e)
    return (1.0 + 1.0 / x) ** -r, row["total"] / rate, math.sqrt(1.0 + 1.0 / x)
