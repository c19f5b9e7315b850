"""Property-based checks for the numerical kernels."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixgame import (EWA, MixingProfile, delay_bound, delayed_regret_bound,
                     gibbs_posterior, kl_divergence, project_simplex,
                     tuned_bound, two_state_chain, uniform_prior)
from mixgame import phi_table


finite_vectors = arrays(np.float64, st.integers(2, 6),
                        elements=st.floats(-5, 5))


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
    learner = EWA(uniform_prior(len(cost)), eta)
    learner.observe(cost)
    p = learner.act()
    assert abs(p.sum() - 1.0) < 1e-9 and p.min() >= 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31))
def test_kl_is_nonnegative_and_zero_only_at_equality(w, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(w))
    q = rng.dirichlet(np.ones(w))
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


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 59), elements=st.floats(0, 1)),
       st.integers(1, 2000), st.floats(1e-3, 1e3))
def test_gibbs_posterior_is_within_a_w_term_sums_error(mean, n, beta):
    # the reference takes the same float log-weights, then the exact sum of
    # their shifted exps; a W-term sum in index order is within (W + 2) eps
    W = len(mean)
    lw = np.full(W, -np.log1p(W - 1)) - beta * n * mean
    weights = [math.exp(x - lw.max()) for x in lw]
    ref = np.array(weights) / math.fsum(weights)
    got = gibbs_posterior(mean, n, beta)
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= (W + 2) * eps * np.maximum(ref, tiny))


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
