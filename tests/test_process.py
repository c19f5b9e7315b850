import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from mixgame import (ConsistencyError, MixingProfile, ModelError, ProcessModel,
                     SizeError, ValidationError, build_markov, exact_phi,
                     fit_mixing_profile, model_from_json, phi_table,
                     replicate_seed, sample_path, two_state_chain)
from mixgame.cli import main
from mixgame.errors import INT_CEILING
from mixgame.experiments import config_from_dict, mixing_table
from mixgame.process import _walk_chain, _walk_lockstep, _walk_moves

from conftest import TRANSIENT_CHAINS, build_iid, product_chain, random_chain


def test_stationary_law_frozen():
    model = build_markov(np.array([[0.9, 0.1], [0.3, 0.7]]))
    np.testing.assert_allclose(model.stationary, [0.75, 0.25], atol=1e-12)


def test_stationary_law_of_a_fast_chain_is_exact_to_rounding():
    # the rows of P^(2^k) agree to 1e-12 while pi is still off by 3e-13;
    # one more squaring leaves only rounding, so phi_d falls to the floor
    # and the geometric fit sees the eigenvalue -0.03, tau = -1/ln 0.03
    model = two_state_chain(0.96, 0.01)
    pi = model.stationary
    assert np.max(np.abs(pi @ model.transition - pi)) <= 1e-15
    doc = {"process": {"transition": model.transition.tolist()},
           "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
           "online": {"algorithm": "ewa", "eta": 0.3, "delay": "auto-geometric"},
           "experiment": {"n": 1000}}
    cfg = config_from_dict(doc)
    assert cfg.delay == 2
    tau = mixing_table(cfg)["fits"]["geometric"]["tau"]
    assert tau == pytest.approx(-1 / np.log(0.03), abs=1e-3)


def test_stationary_is_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_chain(rng, n_states=rng.integers(2, 6))
        pi = model.stationary
        np.testing.assert_allclose(pi @ model.transition, pi, atol=1e-10)
        assert pi.min() >= 0 and abs(pi.sum() - 1) < 1e-12


def test_build_markov_rejects_bad_rows():
    with pytest.raises(ValidationError):
        build_markov([[0.5, 0.4], [0.3, 0.7]])
    with pytest.raises(ValidationError):
        build_markov([[1.1, -0.1], [0.3, 0.7]])


def test_build_markov_rejects_reducible_and_periodic():
    with pytest.raises(ModelError):
        build_markov([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError):
        build_markov([[0.0, 1.0], [1.0, 0.0]])


def test_iid_model_has_zero_phi():
    model = build_iid([0.2, 0.5, 0.3])
    losses = np.random.default_rng(0).random((4, 3))
    for d in (1, 3, 7):
        assert exact_phi(model, losses, d) == pytest.approx(0.0, abs=1e-14)


def test_two_state_phi_closed_form(symmetric_quarter_chain, indicator_space):
    # flip chain with eigenvalue 1 - p - q = 0.5 and indicator losses
    for d in range(1, 16):
        phi = exact_phi(symmetric_quarter_chain, indicator_space.loss_table, d)
        assert phi == pytest.approx(0.5 * 0.5**d, abs=1e-12)


def test_phi_table_matches_pointwise(symmetric_quarter_chain, indicator_space):
    table = phi_table(symmetric_quarter_chain, indicator_space.loss_table, 8)
    expected = [exact_phi(symmetric_quarter_chain,
                          indicator_space.loss_table, d)
                for d in range(1, 9)]
    np.testing.assert_allclose(table, expected, atol=0)


def test_stepped_phi_table_matches_matrix_powers():
    rng = np.random.default_rng(17)
    lazy = build_markov(0.5 * np.eye(30) + 0.5 * random_chain(rng, 30).transition)
    cases = [(random_chain(rng, 200), rng.random((50, 200)), 200),
             (lazy, rng.random((10, 30)), 400)]
    for model, losses, d_max in cases:
        table = phi_table(model, losses, d_max)
        expected = [exact_phi(model, losses, d) for d in range(1, d_max + 1)]
        assert table.shape == (d_max,)
        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)
    assert phi_table(model, losses, 0).shape == (0,)


def test_phi_table_drift_is_a_consistency_error(tmp_path, monkeypatch):
    import mixgame.process as process
    exact = process.exact_phi
    monkeypatch.setattr(process, "exact_phi",
                        lambda model, losses, d: exact(model, losses, d) + 1e-9)
    model = two_state_chain(0.25, 0.25)
    with pytest.raises(ConsistencyError, match="d_max=8"):
        phi_table(model, [[0.0, 1.0], [1.0, 0.0]], 8)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": {"transition": model.transition.tolist()},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "experiment": {"n": 50, "d_max": 8}}))
    assert main(["mixing", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 3


def test_a_rising_phi_table_is_a_consistency_error():
    # 0.5 * I is no transition matrix: the conditional loss 0.5**d falls, so
    # phi_d = 1 - 0.5**d rises while the stepped and matrix-power tables agree
    halving = ProcessModel(transition=0.5 * np.eye(2), stationary=np.full(2, 0.5))
    with pytest.raises(ConsistencyError, match="rise"):
        phi_table(halving, np.ones((1, 2)), 4)


def test_phi_nonincreasing_on_two_state_chains():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = two_state_chain(rng.uniform(0.05, 0.95),
                                rng.uniform(0.05, 0.95))
        losses = rng.random((3, 2))
        table = phi_table(model, losses, 12)
        assert np.all(np.diff(table) <= 1e-12)


def test_phi_gap_unclamped_vs_exact_phi():
    rng = np.random.default_rng(3)
    model = random_chain(rng, 3)
    losses = rng.random((2, 3))
    for d in (1, 2, 5):
        cond = np.linalg.matrix_power(model.transition, d) @ losses.T
        gap = float(np.max(losses @ model.stationary - cond))
        assert exact_phi(model, losses, d) == max(0.0, gap)


def brute_force_phi(model, table, d):
    """phi_d by enumeration: every path of d steps from Z_{t-d} = s, weighted
    by its product of transitions, pays the loss of its last m symbols; the
    limit weights every window by its stationary law."""
    W, S, m = table.shape[0], model.n_states, table.ndim - 1
    P, pi = model.transition, model.stationary

    def prob(z):
        return math.prod(P[a, b] for a, b in zip(z, z[1:]))

    limit = [math.fsum(pi[z[0]] * prob(z) * table[(w,) + z]
                       for z in itertools.product(range(S), repeat=m))
             for w in range(W)]
    paths = list(itertools.product(range(S), repeat=d))
    return max(0.0, max(
        limit[w] - math.fsum(prob((s,) + z) * table[(w,) + z[d - m:]] for z in paths)
        for w in range(W) for s in range(S)))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("S, W", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_exact_phi_of_a_memory_table_matches_path_enumeration(m, S, W):
    rng = np.random.default_rng(100 * m + 10 * S + W)
    model = random_chain(rng, S)
    table = rng.random((W,) + (S,) * m)
    for d in range(m, 2 * m + 1):
        assert exact_phi(model, table, d) == pytest.approx(
            brute_force_phi(model, table, d), rel=0, abs=1e-15)


def test_exact_phi_of_the_memory2_ci_config_frozen():
    # the phi_d column that `mixgame simulate` writes for this config at d = 2
    model = build_markov([[0.8, 0.2], [0.3, 0.7]])
    table = [[[0.4, 0.6], [0.5, 0.5]], [[0.5, 0.45], [0.55, 0.5]]]
    assert exact_phi(model, table, 2) == 0.012000000000000011


def test_static_kernels_refuse_a_memory_table():
    model = two_state_chain(0.25, 0.25)
    table = np.full((2, 2, 2), 0.5)
    with pytest.raises(ValidationError, match="needs d >= 2"):
        exact_phi(model, table, 1)
    for d in (4, 0):
        with pytest.raises(ValidationError, match="memory-2 table is not static"):
            phi_table(model, table, d)


def test_d_past_the_matrix_power_budget_is_refused_before_any_power(monkeypatch):
    def no_power(*args):
        raise AssertionError("a matrix power ran")

    monkeypatch.setattr(np.linalg, "matrix_power", no_power)
    model = two_state_chain(0.25, 0.25)
    for kernel in (exact_phi, phi_table):
        with pytest.raises(ValidationError,
                           match=f"d exceeds the matrix-power budget {INT_CEILING}"):
            kernel(model, np.eye(2), INT_CEILING + 1)


def test_conditional_expectations_converge_to_test_loss():
    # phi_d of a table and of its complement, whose gaps are the table's
    # negated, both vanish: every E[loss | Z_{t-d} = s] is the test loss
    rng = np.random.default_rng(5)
    model = random_chain(rng, 3)
    losses = rng.random((2, 3))
    assert exact_phi(model, losses, 200) <= 1e-12
    assert exact_phi(model, 1.0 - losses, 200) <= 1e-12


def test_sample_path_deterministic_and_stationary():
    model = two_state_chain(0.3, 0.2)
    a = sample_path(model, 500, seed=42)
    b = sample_path(model, 500, seed=42)
    np.testing.assert_array_equal(a.symbols, b.symbols)
    long = sample_path(model, 200_000, seed=1)
    freq = np.bincount(long.symbols, minlength=2) / long.symbols.size
    np.testing.assert_allclose(freq, model.stationary, atol=0.01)


# sha256 prefixes of the symbols, recorded with the per-step searchsorted
# sampler that the bisect walk replaced
FROZEN_PATH_DIGESTS = {2: "e51abd003841de18", 3: "df3c72a560c3e456",
                       4: "2c908c33d2a2d813", 16: "cc65ec79de948234",
                       200: "7e254f0ae999af4c"}


@pytest.mark.parametrize("n_states", sorted(FROZEN_PATH_DIGESTS))
def test_sample_path_frozen(n_states):
    model = random_chain(np.random.default_rng(n_states), n_states)
    h = hashlib.sha256()
    for n in (1, 2, 7, 2000):
        for seed in (0, 7, replicate_seed(5, 3)):
            h.update(sample_path(model, n, seed).symbols.astype("<i8").tobytes())
    assert h.hexdigest()[:16] == FROZEN_PATH_DIGESTS[n_states]


def _lazy_chain(n_states, stay=0.9):
    """A random chain that stays put with probability at least ``stay``."""
    rest = random_chain(np.random.default_rng(n_states), n_states).transition
    return build_markov(stay * np.eye(n_states) + (1 - stay) * rest)


# chains on which some uniforms map every state to itself, so sample_path
# skips their steps, and their path digests, recorded while every step was
# still walked
SKIP_CHAINS = {"flip 0.05": lambda: two_state_chain(0.05, 0.05),
               "flip 0.2": lambda: two_state_chain(0.2, 0.2),
               "0.3/0.2": lambda: two_state_chain(0.3, 0.2),
               "lazy 4": lambda: _lazy_chain(4),
               "lazy 200": lambda: _lazy_chain(200)}
FROZEN_SKIP_DIGESTS = {"flip 0.05": "3f8da039c6bcbff5", "flip 0.2": "eb51b6b2c4b6c75f",
                       "0.3/0.2": "e14882211a154b36", "lazy 4": "50224bbf8f5e983d",
                       "lazy 200": "a2f93652c428de5f"}


def _identity_interval(model):
    """[max_s cum[s][s-1], min_s cum[s][s]), with the row cumsums written out."""
    cum = [list(itertools.accumulate(row)) for row in model.transition.tolist()]
    S = model.n_states
    lo = max((cum[s][s - 1] for s in range(1, S)), default=-math.inf)
    hi = min((cum[s][s] for s in range(S - 1)), default=math.inf)
    return lo, hi


@pytest.mark.parametrize("name", sorted(FROZEN_SKIP_DIGESTS))
def test_sample_path_frozen_where_steps_are_skipped(name):
    model = SKIP_CHAINS[name]()
    lo, hi = _identity_interval(model)
    assert lo < hi  # the skip engages
    h = hashlib.sha256()
    for n in (1, 2, 7, 2000):
        for seed in (0, 7, replicate_seed(5, 3)):
            h.update(sample_path(model, n, seed).symbols.astype("<i8").tobytes())
    assert h.hexdigest()[:16] == FROZEN_SKIP_DIGESTS[name]


def _walk_families():
    rng = np.random.default_rng(13)
    yield from (random_chain(rng, S) for S in (2, 3, 4, 16, 200))
    yield from (_lazy_chain(S, stay) for S in (4, 30, 200) for stay in (0.5, 0.9, 0.99))
    yield from (build_iid(p) for p in ([0.5, 0.5], [0.15, 0.25, 0.6], [1.0]))
    yield build_markov([[0.0, 1.0, 0.0], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
    yield build_markov([[0.9, 0.1, 0.0], [0.0, 1e-3, 1 - 1e-3], [0.05, 0.0, 0.95]])
    yield from (two_state_chain(p, q) for p, q in
                ((0.05, 0.05), (0.2, 0.2), (0.3, 0.2), (0.5, 0.5), (0.6, 0.5),
                 (1.0, 0.3), (0.96, 0.01)))


def test_sample_path_equals_the_full_walk():
    skipping = 0
    for model in _walk_families():
        start = np.vstack([model.transition, model.stationary])
        cum = np.cumsum(start, axis=1)[:, :-1].tolist()
        lo, hi = _identity_interval(model)
        skipping += lo < hi
        for n in (1, 2, 7, 2000):
            for seed in (0, 3):
                u = np.random.default_rng(seed).random(n)
                full = _walk_chain(cum, model.n_states, u)
                symbols = sample_path(model, n, seed).symbols
                assert symbols.dtype == np.int64
                assert np.array_equal(symbols, full)
    assert skipping >= 10


@pytest.mark.parametrize("name", sorted(SKIP_CHAINS))
def test_skipping_walk_on_the_edges_of_the_identity_interval(name, monkeypatch):
    import mixgame.process as process
    model = SKIP_CHAINS[name]()
    lo, hi = _identity_interval(model)
    cum = np.cumsum(np.vstack([model.transition, model.stationary]), axis=1)[:, :-1]
    edges = [0.0, lo, np.nextafter(lo, 0), np.nextafter(hi, 0), hi, 1.0,
             np.nextafter(1.0, 2), 1.5]
    walked = []
    monkeypatch.setattr(process, "_walk_chain", lambda rows, s, u: walked.append(
        len(u)) or _walk_chain(rows, s, u))
    rng = np.random.default_rng(len(name))
    for _ in range(20):
        u = rng.permutation(np.concatenate([edges * 5, rng.random(60)]))
        full = _walk_chain(cum.tolist(), model.n_states, u)
        assert np.array_equal(_walk_moves(model, u), full)
        # step 0 and every uniform outside [lo, hi) is walked, and no other
        assert walked.pop() == 1 + sum(not lo <= x < hi for x in u[1:])
    assert model._walk_table[2:] == (lo, hi)


def test_sample_path_builds_its_walk_table_once_per_model(monkeypatch):
    import mixgame.process as process
    model = two_state_chain(0.3, 0.2)
    walked = []
    monkeypatch.setattr(process, "_walk_chain", lambda rows, s, u: walked.append(
        rows) or _walk_chain(rows, s, u))
    first = sample_path(model, 50, seed=0)
    table = model._walk_table
    second = sample_path(model, 50, seed=0)
    # the second call walks the very list the first one built
    assert model._walk_table is table and walked[0] is walked[1] is table[1]
    assert np.array_equal(first.symbols, second.symbols)
    # a model with the same matrices builds its own table, with the same entries
    twin = two_state_chain(0.3, 0.2)
    assert twin._walk_table is not table and twin._walk_table[1] == table[1]


def test_walk_chain_matches_clipped_searchsorted():
    rng = np.random.default_rng(4)
    for n_states in (1, 2, 3, 5):
        cum = np.cumsum(rng.random((n_states, n_states)), axis=1)
        cum /= cum[:, -1:] * rng.uniform(0.9, 1.1, (n_states, 1))  # row ends off 1
        # uniforms on, between and beyond the cumulative sums
        u = np.concatenate([cum.ravel(), rng.random(200), [0.0, 1.0, 1.2]])
        s, expected = 0, []
        for x in u:
            s = min(int(np.searchsorted(cum[s], x, side="right")), n_states - 1)
            expected.append(s)
        assert _walk_chain(cum[:, :-1].tolist(), 0, u) == expected


def _lockstep_tables():
    """Cumulative rows without their last entry, of forward and reversed
    chains, as the Monte-Carlo phi builds them."""
    models = list(_walk_families()) + [build_markov(P) for P in TRANSIENT_CHAINS]
    for model in models:
        yield np.cumsum(model.transition, axis=1)[:, :-1]
        pi = model.stationary
        with np.errstate(invalid="ignore"):
            reverse = (model.transition * pi[None, :]).T / pi[:, None]
            yield np.cumsum(reverse / reverse.sum(axis=1, keepdims=True), axis=1)[:, :-1]


def _crafted_uniforms(rng, cum, starts, k):
    """Uniforms that meet each row's walk at its current state's row: an entry
    (a tie), the float just below one, 0, 1 - 2**-53, or a random draw."""
    u = rng.random((len(starts), k))
    rows = cum.tolist()
    finite = [[x for x in row if not math.isnan(x)] for row in rows]
    for r, s in enumerate(starts):
        for j, pick in enumerate(rng.integers(6, size=k).tolist()):
            if pick < 2 and finite[s]:
                x = finite[s][rng.integers(len(finite[s]))]
                u[r, j] = x if pick == 0 else np.nextafter(x, 0)
            elif pick in (2, 3):
                u[r, j] = (0.0, 1 - 2**-53)[pick - 2]
            s = _walk_chain(rows, s, u[r, j:j + 1])[0]
    return u


def test_lockstep_walk_equals_each_row_walked_alone():
    rng = np.random.default_rng(21)
    nan_rows = 0
    for cum in _lockstep_tables():
        S = len(cum)
        nan_rows += int(np.isnan(cum).any(axis=1).sum())
        starts = np.repeat(np.arange(S), max(1, 40 // S))
        for u in (rng.random((len(starts), 30)), _crafted_uniforms(rng, cum, starts, 30),
                  rng.random((len(starts), 0))):
            walked = _walk_lockstep(cum, starts, u)
            assert walked.dtype == np.int64 and walked.shape == u.shape
            rows = cum.tolist()
            for s, row, states in zip(starts.tolist(), u, walked):
                assert states.tolist() == _walk_chain(rows, s, row)
    assert nan_rows == 2


def test_replicate_seed_is_injective_over_small_range():
    seeds = {replicate_seed(123, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert replicate_seed(123, 5) == replicate_seed(123, 5)


def test_product_chain_is_the_kronecker_product_below_its_size_cap():
    a, b = two_state_chain(0.3, 0.2), build_iid([0.6, 0.4])
    model = product_chain([a, b])
    np.testing.assert_array_equal(model.transition,
                                  np.kron(a.transition, b.transition))
    # state (i, j) is index 2 i + j, and the product law is the invariant one
    np.testing.assert_allclose(model.stationary.reshape(2, 2),
                               np.outer(a.stationary, b.stationary), atol=1e-15)
    np.testing.assert_allclose(build_markov(model.transition).stationary,
                               model.stationary, atol=1e-12)
    with pytest.raises(SizeError):
        product_chain([a] * 14)  # 2**14 states, refused before any product


def test_mixing_profile_fit_recovers_geometric_law():
    d = np.arange(1, 21)
    prof = fit_mixing_profile(0.7 * np.exp(-d / 3.5), "geometric")
    assert prof.C == pytest.approx(0.7, abs=1e-9)
    assert prof.tau == pytest.approx(3.5, abs=1e-9)
    assert prof.fit_residual < 1e-12


def test_mixing_profile_fit_recovers_algebraic_law():
    d = np.arange(1, 21)
    prof = fit_mixing_profile(0.4 * d**-1.5, "algebraic")
    assert prof.C == pytest.approx(0.4, abs=1e-9)
    assert prof.r == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("kind, fields", [
    ("exponential", {"C": 1.0, "tau": 2.0}),
    ("geometric", {"C": 1.0}),
    ("algebraic", {"C": 1.0, "tau": 2.0}),
    ("geometric", {"tau": 2.0}),
    ("geometric", {"C": 0.0, "tau": 2.0}),
    ("algebraic", {"C": 1.0, "r": -0.5}),
    ("geometric", {"C": float("nan"), "tau": 2.0}),
    ("algebraic", {"C": 1.0, "r": float("nan")}),
    ("geometric", {"C": 1.0, "tau": float("inf")}),
])
def test_mixing_profile_rejects_bad_kind_and_fields(kind, fields):
    # NaN fails every check, so tuned_delay never reaches math.ceil(nan)
    with pytest.raises(ValidationError):
        MixingProfile(kind, **fields).tuned_delay(100)


@pytest.mark.parametrize("kind", ["geometric", "algebraic"])
def test_fit_rejects_a_non_decaying_table_for_both_kinds(kind):
    # a constant table's fitted slope is rounding noise of either sign
    for table in ([0.5] * 5, [0.3] * 3, [0.5] * 30):
        with pytest.raises(ValidationError, match="does not decay"):
            fit_mixing_profile(table, kind)


def test_mixing_profile_phi_evaluation():
    geo = MixingProfile(kind="geometric", C=1.0, tau=2.0)
    assert geo.phi(4) == pytest.approx(np.exp(-2.0))
    alg = MixingProfile(kind="algebraic", C=1.0, r=2.0)
    assert alg.phi(4) == pytest.approx(1 / 16)


def test_model_from_json_roundtrip_and_errors():
    # keys other than "transition" are ignored
    doc = {"states": [0, 1], "kind": "plain-markov",
           "transition": [[0.9, 0.1], [0.3, 0.7]]}
    model = model_from_json(doc)
    np.testing.assert_allclose(model.stationary, [0.75, 0.25], atol=1e-12)
    with pytest.raises(ValidationError):
        model_from_json({"kind": "plain-markov"})
