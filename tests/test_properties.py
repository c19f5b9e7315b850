"""Property-based checks for the numerical kernels."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from mixgame import (EWA, MixingProfile, PosteriorDist, delay_bound,
                     delayed_regret_bound, kl_divergence, project_simplex,
                     tuned_bound, two_state_chain)
from mixgame import phi_table
from mixgame.learner import _logsumexp


finite_vectors = arrays(np.float64, st.integers(2, 6),
                        elements=st.floats(-5, 5))

# log-weights: small and huge magnitudes, repeated values (ties at the max),
# and -inf entries such as the log of a zero probability
log_weight_vectors = arrays(
    np.float64, st.integers(1, 40),
    elements=st.one_of(st.floats(-50, 50), st.floats(-1e300, 1e300),
                       st.sampled_from([-np.inf, 0.0, 1.0, 700.0])))


@settings(max_examples=200, deadline=None)
@given(finite_vectors)
def test_projection_is_idempotent_and_feasible(y):
    p = project_simplex(y)
    assert p.min() >= -1e-12
    assert abs(p.sum() - 1.0) < 1e-9
    np.testing.assert_allclose(project_simplex(p), p, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(finite_vectors, st.floats(0.01, 5.0))
def test_ewa_step_preserves_the_simplex(cost, eta):
    learner = EWA(PosteriorDist.uniform(len(cost)), eta)
    learner.observe(cost)
    p = learner.act().probs
    assert abs(p.sum() - 1.0) < 1e-9 and p.min() >= 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31))
def test_kl_is_nonnegative_and_zero_only_at_equality(w, seed):
    rng = np.random.default_rng(seed)
    p = PosteriorDist.from_probs(rng.dirichlet(np.ones(w)))
    q = PosteriorDist.from_probs(rng.dirichlet(np.ones(w)))
    assert kl_divergence(p, q) >= -1e-12
    assert abs(kl_divergence(p, p)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(0, 2**31))
def test_phi_decays_on_two_state_chains(p, q, seed):
    model = two_state_chain(p, q)
    losses = np.random.default_rng(seed).random((3, 2))
    table = phi_table(model, losses, 10)
    assert np.all(table >= 0)
    assert np.all(np.diff(table) <= 1e-12)


@settings(max_examples=500, deadline=None)
@given(log_weight_vectors)
@example(np.full(3, -np.inf))
@example(np.array([-np.inf]))
@example(np.array([2.0, 2.0, -np.inf, 2.0]))
@example(np.array([1e300, -1e300, 1e300]))
@example(np.array([np.inf, 0.0]))
@example(np.array([np.nan, 0.0]))
def test_logsumexp_matches_scipy_bit_for_bit(a):
    with np.errstate(all="ignore"):
        expected = logsumexp(a)
    assert np.float64(_logsumexp(a)).tobytes() == np.float64(expected).tobytes()


# a tuned bound's regret: a line in d, or the wrapped-EWA composite
regrets = st.one_of(
    st.builds(lambda a, b: lambda d: a + b * d,
              st.floats(0, 1e3), st.floats(0, 1e3)),
    st.builds(lambda kl, eta, n: lambda d: delayed_regret_bound(kl, eta, d, n),
              st.floats(0, 10), st.floats(1e-3, 10), st.integers(1, 10**6)))
profiles = st.one_of(
    st.builds(lambda C, tau: MixingProfile("geometric", C=C, tau=tau),
              st.floats(1e-6, 1e6), st.floats(1e-3, 1e308)),
    st.builds(lambda C, r: MixingProfile("algebraic", C=C, r=r),
              st.floats(1e-6, 1e200), st.floats(1e-3, 10)))


@settings(max_examples=300, deadline=None)
@given(profiles, st.integers(1, 10**12), st.floats(1e-12, 1 - 1e-12), regrets)
def test_tuned_rows_are_delay_bounds_at_the_tuned_delay(profile, n, delta, regret):
    rep = tuned_bound(profile, n, delta, regret)
    d = profile.tuned_delay(n)
    assert rep == delay_bound(regret(d), profile.phi(d), d, n, delta,
                              tag=profile.kind)
    tau_log_n = math.inf if profile.tau is None else profile.tau * math.log(n)
    if tau_log_n <= n:
        # unclamped, d = ceil(tau ln n) makes C e^{-d/tau} <= C/n and
        # d <= tau ln n + 1; at d = n the C/n guarantee does not hold
        closed = profile.C / n + math.sqrt(
            2.0 * (tau_log_n + 1.0) * math.log(1.0 / delta) / n)
        assert rep.phi_term + rep.deviation_term <= closed
