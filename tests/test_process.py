import hashlib
import json

import numpy as np
import pytest

from mixgame import (ConsistencyError, MixingProfile, ModelError, SizeError,
                     ValidationError, build_markov,
                     conditional_loss_expectations, exact_phi,
                     fit_mixing_profile, model_from_json, phi_gaps,
                     phi_table, product_chain, replicate_seed, sample_path,
                     two_state_chain)
from mixgame.cli import main
from mixgame.process import _walk_chain

from conftest import build_iid, random_chain


def test_stationary_law_frozen():
    model = build_markov(np.array([[0.9, 0.1], [0.3, 0.7]]))
    np.testing.assert_allclose(model.stationary, [0.75, 0.25], atol=1e-12)


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
        cond = conditional_loss_expectations(model, losses, d)
        gap = float(np.max(losses @ model.stationary - cond))
        assert exact_phi(model, losses, d) == max(0.0, gap)
        # phi_gaps gives both sides unclamped; the mirror is the one above
        assert phi_gaps(model, losses, d) == (
            float(np.max(cond - losses @ model.stationary)), gap)


def test_conditional_expectations_converge_to_test_loss():
    rng = np.random.default_rng(5)
    model = random_chain(rng, 3)
    losses = rng.random((2, 3))
    cond = conditional_loss_expectations(model, losses, 200)
    np.testing.assert_allclose(cond, np.tile(losses @ model.stationary, (3, 1)),
                               atol=1e-12)


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
        assert _walk_chain(cum, 0, u) == expected


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
