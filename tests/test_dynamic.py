import hashlib
import itertools

import numpy as np
import pytest

from mixgame import (EWA, DiscountedLoss, HypothesisSpace, SizeError,
                     ValidationError, build_markov, composite_phi_check,
                     decompose, dynamic_phi_mc, exact_block_beta,
                     exact_phi, limit_test_losses, loss_from_json,
                     run_dynamic_game, sample_path, two_state_chain,
                     uniform_prior, window_expectations)
from mixgame.learner import _ENUM_CAP, _MAX_AXES
from mixgame.dynamic import _MC_HISTORY
from mixgame.process import _walk_chain

from conftest import (TRANSIENT_CHAINS, enumerated_block_expectations,
                      limit_test_losses_mc, random_chain)


def xor_loss():
    """Memory-2 loss: hypothesis 0 pays the XOR of the last two symbols,
    hypothesis 1 pays its complement."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return HypothesisSpace(np.stack([x, 1.0 - x]))


def test_memory_window_left_pads_with_first_symbol():
    dl = xor_loss()
    rows = dl.loss_rows(np.array([1, 1, 0]))
    # round 1 sees the padded window (1, 1): XOR = 0
    np.testing.assert_allclose(rows, [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])


def test_memory_loss_rows_read_every_padded_prefix():
    # paths shorter than the memory included
    rng = np.random.default_rng(19)
    for m in range(1, 5):
        dl = HypothesisSpace(rng.random((3,) + (3,) * m))
        for n in range(1, m + 3):
            z = rng.integers(0, 3, n)
            assert np.array_equal(dl.loss_rows(z),
                                  [dl.values(z[:t + 1]) for t in range(n)])


def test_xor_limit_loss_on_symmetric_chain():
    model = two_state_chain(0.25, 0.25)
    limits, err = limit_test_losses(xor_loss(), model)
    np.testing.assert_allclose(limits, [0.25, 0.75], atol=1e-12)
    assert err == 0.0  # exact at the memory horizon


def test_limit_loss_matches_monte_carlo():
    model = two_state_chain(0.1, 0.3)
    limits, _ = limit_test_losses(xor_loss(), model)
    mc, stderr = limit_test_losses_mc(xor_loss(), model, horizon=2,
                                      n_samples=200_000, seed=0)
    np.testing.assert_allclose(limits, mc, atol=0.01)
    assert np.all(stderr < 0.005)


def forgetting_profile(dl, d_max):
    return [dl.forgetting(d) for d in range(1, d_max + 1)]


def test_forgetting_profile_memory_loss():
    np.testing.assert_allclose(forgetting_profile(xor_loss(), 5),
                               [1.0, 0.0, 0.0, 0.0, 0.0], atol=0)


def test_forgetting_profile_discounted_envelope():
    dl = DiscountedLoss(gamma=0.5, scale=0.25,
                        g_table=np.array([[0.0, 1.0], [1.0, 0.0]]))
    prof = forgetting_profile(dl, 4)
    expected = [0.25 * 0.5**d / 0.5 for d in range(1, 5)]
    np.testing.assert_allclose(prof, expected, atol=1e-12)
    assert dl.forgetting(3) == pytest.approx(0.25 * 0.5**3 / 0.5, abs=1e-15)


def test_block_beta_memory1_equals_static_gap_at_double_lag():
    model = two_state_chain(0.1, 0.3)
    table = np.array([[0.0, 1.0], [0.7, 0.2]])
    dl = HypothesisSpace(table)
    for d in (1, 2, 3, 4):
        beta = exact_block_beta(model, dl, d)
        assert beta == pytest.approx(exact_phi(model, table, 2 * d),
                                     abs=1e-12)


def test_dynamic_phi_memory1_reduces_to_static():
    model = two_state_chain(0.1, 0.3)
    table = np.array([[0.0, 1.0], [0.7, 0.2]])
    dl = HypothesisSpace(table)
    for d in (1, 2, 5):
        # limit minus conditional, the static convention
        static_gap = table @ model.stationary - np.linalg.matrix_power(
            model.transition, d) @ table.T
        assert exact_phi(model, dl.loss_table, d) == pytest.approx(
            max(0.0, float(np.max(static_gap))), abs=1e-12)


def assert_kernels_match_enumeration(model, dl, L):
    """block_table, window_expectations and the horizon-L limit loss and block
    beta against dl.values on every block, weighted by the chain law."""
    S, W = model.n_states, dl.n_hypotheses
    blocks = [np.asarray(b) for b in itertools.product(range(S), repeat=L)]
    values = np.array([dl.values(b) for b in blocks])
    # loss_rows reads the same prefix through its own (running) path
    np.testing.assert_allclose(
        values, [dl.loss_rows(b)[-1] for b in blocks], rtol=0, atol=1e-12)
    table = dl.block_table(L)
    assert table.shape == (W,) + (S,) * L
    np.testing.assert_allclose(table.reshape(W, -1).T, values, rtol=0, atol=1e-12)
    lag = L + 1  # from Z_{t-2d} to the block's first symbol at d = L
    starts = np.vstack([np.eye(S), model.stationary,
                        np.linalg.matrix_power(model.transition, lag)])
    expected = enumerated_block_expectations(dl, model, starts, L)
    F, stat, cond = expected[:S], expected[S], expected[S + 1:]
    np.testing.assert_allclose(window_expectations(model, table), F.T,
                               rtol=0, atol=1e-12)
    limit, err = limit_test_losses(dl, model, L)
    np.testing.assert_allclose(limit, stat, rtol=0, atol=1e-12)
    assert err == dl.forgetting(L)
    beta = max(0.0, float(np.max(stat - cond)))
    assert exact_block_beta(model, dl, L) == pytest.approx(beta, abs=1e-12)


@pytest.mark.parametrize("A", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_memory_kernels_match_block_enumeration(A, m):
    rng = np.random.default_rng(10 * A + m)
    model = random_chain(rng, A)
    dl = HypothesisSpace(rng.random((2,) + (A,) * m))
    # blocks shorter than m are padded; a longer block ignores its head
    for L in range(1, m + 2):
        assert_kernels_match_enumeration(model, dl, L)
    # beta past the memory: the last m symbols at lag 2d - m + 1
    d = m + 1
    stat, *cond = enumerated_block_expectations(
        dl, model, np.vstack([model.stationary, np.linalg.matrix_power(
            model.transition, 2 * d - m + 1)]), m)
    assert exact_block_beta(model, dl, d) == pytest.approx(
        max(0.0, float(np.max(stat - np.array(cond)))), abs=1e-12)


def test_a_table_truncated_below_its_memory_is_within_b_h_of_its_limit():
    # the length-h block table pads the m - h oldest symbols, which moves
    # the loss by at most B_h, and so its limit
    rng = np.random.default_rng(18)
    for _ in range(40):
        A, m = rng.integers(2, 4), rng.integers(2, 4)
        model = random_chain(rng, A)
        dl = HypothesisSpace(rng.random((3,) + (A,) * m))
        exact, zero = limit_test_losses(dl, model)
        assert zero == 0.0
        for h in range(1, m):
            limit, err = limit_test_losses(dl, model, h)
            assert err == dl.forgetting(h) > 0
            assert np.max(np.abs(limit - exact)) <= err


def test_a_truncated_discounted_limit_is_within_b_h_of_its_limit():
    # nothing clips (scale * max g / (1 - gamma) = 0.45), so the exact limit
    # is scale * (g @ pi) / (1 - gamma); the length-h block table drops the
    # symbols older than h, which moves the loss by up to scale * max g *
    # gamma^h / (1 - gamma), more than the span of g alone allows
    model = two_state_chain(0.3, 0.2)
    dl = DiscountedLoss(0.9, 0.05, [[0.5, 0.6], [0.7, 0.9]])
    exact = 0.05 * (dl.g @ model.stationary) / 0.1
    for h in (2, 5, 8, None):
        limit, err = limit_test_losses(dl, model, h)
        assert np.max(np.abs(limit - exact)) <= err


@pytest.mark.parametrize("A", [2, 3, 5])
def test_discounted_kernels_match_block_enumeration(A):
    rng = np.random.default_rng(40 + A)
    model = random_chain(rng, A)
    # scale * max g / (1 - gamma) > 1, so long blocks clip
    dl = DiscountedLoss(gamma=0.7, scale=0.4, g_table=rng.random((2, A)))
    for L in range(1, 7):
        assert_kernels_match_enumeration(model, dl, L)


def test_memory3_profiles_and_gaps_frozen():
    # values recorded from the per-block enumeration; beta_1 and beta_2 are
    # blocks shorter than the memory, evaluated padded
    rng = np.random.default_rng(2406)
    model = random_chain(rng, 3)
    dl = HypothesisSpace(rng.random((2, 3, 3, 3)))
    np.testing.assert_allclose(forgetting_profile(dl, 4),
                               [0.9632516545620537, 0.8842924169736586,
                                0.0, 0.0], atol=1e-12)
    betas = [exact_block_beta(model, dl, d) for d in range(1, 5)]
    np.testing.assert_allclose(betas,
                               [0.02209981812500511, 0.003676051773563449,
                                0.0005049366003819777, 4.639548880269739e-05],
                               atol=1e-12)
    np.testing.assert_allclose([exact_phi(model, dl.loss_table, d)
                                for d in range(3, 7)],
                               [0.028467634992647872, 0.006025898217227987,
                                0.0019657404595180283, 0.0005049366003819777],
                               atol=1e-12)


def test_dynamic_phi_is_zero_on_symmetric_xor():
    # the conditional flip probability is constant on a symmetric chain,
    # so the conditional and limiting losses coincide
    model = two_state_chain(0.25, 0.25)
    for d in (2, 3, 6):
        assert exact_phi(model, xor_loss().loss_table, d) == pytest.approx(
            0.0, abs=1e-12)


def test_dynamic_phi_decays_geometrically_on_asymmetric_chain():
    model = two_state_chain(0.1, 0.3)  # second eigenvalue 0.6
    vals = [exact_phi(model, xor_loss().loss_table, d) for d in range(2, 9)]
    ratios = np.diff(np.log(vals))
    np.testing.assert_allclose(ratios, np.log(0.6), atol=1e-9)


def test_dynamic_phi_mc_agrees_with_exact():
    model = two_state_chain(0.1, 0.3)
    exact = exact_phi(model, xor_loss().loss_table, 3)
    mc, stderr = dynamic_phi_mc(model, xor_loss(), 3,
                                limit_test_losses(xor_loss(), model)[0],
                                n_samples=5000, seed=1)
    assert abs(mc - exact) < max(5 * stderr, 0.02)


def test_dynamic_phi_mc_frozen():
    # (value, stderr) recorded when each sample drew and scored its own prefix
    model = build_markov([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
    table = HypothesisSpace(np.random.default_rng(3).random((4, 3, 3, 3)))
    assert dynamic_phi_mc(model, table, 2, limit_test_losses(table, model)[0],
                          n_samples=40, seed=11) == (
        0.1683084831271821, 0.03242617222656627)
    disc = DiscountedLoss(0.6, 0.4, np.random.default_rng(5).random((3, 3)))
    assert dynamic_phi_mc(model, disc, 2, limit_test_losses(disc, model)[0],
                          n_samples=40, seed=12) == (
        0.05920915114335967, 0.012505641162745888)


def per_row_phi_mc(model, dl, d, limit, n_samples, seed):
    """``dynamic_phi_mc`` with each row walked alone by ``_walk_chain``: per
    conditioning state one draw of ``n_samples`` rows, each walked
    ``_MC_HISTORY`` symbols back through the reversed chain and d forward."""
    pi = model.stationary
    reverse = (model.transition * pi[None, :]).T / pi[:, None]
    rev_cum = np.cumsum(reverse / reverse.sum(axis=1, keepdims=True), axis=1)
    rev_cum = rev_cum[:, :-1].tolist()
    cum = np.cumsum(model.transition, axis=1)[:, :-1].tolist()
    rng = np.random.default_rng(seed)
    worst_gap, worst_se = -np.inf, 0.0
    for s in range(model.n_states):
        u = rng.random((n_samples, _MC_HISTORY + d))
        prefixes = np.array([_walk_chain(rev_cum, s, row[:_MC_HISTORY])[::-1] + [s]
                             + _walk_chain(cum, s, row[_MC_HISTORY:]) for row in u])
        losses = np.ascontiguousarray(dl.values(prefixes.T).T)
        gap = limit - losses.mean(axis=0)
        j = int(np.argmax(gap))
        if gap[j] > worst_gap:
            worst_gap = float(gap[j])
            worst_se = float(losses[:, j].std(ddof=1) / np.sqrt(n_samples))
    return max(0.0, worst_gap), worst_se


MC_MODEL = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]
# cases at d = 1 whose loss reads the reversed walk (a memory-3 table reads one
# reversed symbol, a discounted loss all of them): chain, loss, loss seed, MC
# seed and (value, stderr), recorded with the per-row walks; the last two
# chains have a state of zero stationary mass, whose reversed row is 0/0 (NaN)
MC_REVERSED_CASES = {
    "memory-3": (MC_MODEL, lambda rng: HypothesisSpace(rng.random((4, 3, 3, 3))),
                 3, 11, (0.128437466995379, 0.04023138910356546)),
    "discounted": (MC_MODEL, lambda rng: DiscountedLoss(0.6, 0.4, rng.random((3, 3))),
                   5, 12, (0.08831840381203482, 0.011948240981444713)),
    "absorbing": (TRANSIENT_CHAINS[0],
                  lambda rng: HypothesisSpace(rng.random((3, 2, 2, 2))),
                  6, 13, (0.3749855139305097, 0.0)),
    "transient": (TRANSIENT_CHAINS[1],
                  lambda rng: HypothesisSpace(rng.random((3, 3, 3, 3))),
                  7, 14, (0.10776093714374901, 0.025431880624426854)),
}


@pytest.mark.parametrize("name", sorted(MC_REVERSED_CASES))
def test_dynamic_phi_mc_frozen_where_the_reversed_walk_is_read(name):
    transition, make_loss, loss_seed, seed, frozen = MC_REVERSED_CASES[name]
    model, dl = build_markov(transition), make_loss(np.random.default_rng(loss_seed))
    limit = limit_test_losses(dl, model)[0]
    if np.all(model.stationary > 0):
        assert dynamic_phi_mc(model, dl, 1, limit, n_samples=40, seed=seed) == frozen
    else:
        # the reversed chain divides 0/0 at the state of zero mass
        with pytest.warns(RuntimeWarning, match="invalid value encountered"):
            assert dynamic_phi_mc(model, dl, 1, limit, n_samples=40, seed=seed) == frozen


def _mc_grid():
    rng = np.random.default_rng(22)
    chains = [random_chain(rng, S) for S in (2, 3, 4)]
    chains += [build_markov([[0.0, 1.0, 0.0], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]]),
               build_markov([[0.9, 0.1, 0.0], [0.0, 1e-3, 1 - 1e-3], [0.05, 0.0, 0.95]])]
    chains += [build_markov(P) for P in TRANSIENT_CHAINS]
    for model in chains:
        S = model.n_states
        losses = [HypothesisSpace(rng.random((2,) + (S,) * m)) for m in (1, 2, 3)]
        losses.append(DiscountedLoss(0.5, 0.3, rng.random((2, S))))
        # at d = 1 its window holds two symbols of the reversed walk
        losses.append(HypothesisSpace(rng.random((2,) + (S,) * 4)))
        for dl in losses:
            yield model, dl


def test_dynamic_phi_mc_equals_the_per_row_walks():
    seed = 0
    for model, dl in _mc_grid():
        limit = limit_test_losses(dl, model)[0]
        for d in (1, 2, 5):
            for n_samples in (2, 57):
                seed += 1
                with np.errstate(invalid="ignore"):  # 0/0 at a state of zero mass
                    assert dynamic_phi_mc(model, dl, d, limit, n_samples, seed) == \
                        per_row_phi_mc(model, dl, d, limit, n_samples, seed)


@pytest.mark.parametrize("dl", [
    HypothesisSpace(np.random.default_rng(8).random((3, 3, 3, 3))),
    DiscountedLoss(0.7, 0.3, np.random.default_rng(9).random((3, 3)))],
    ids=["table", "discounted"])
def test_values_on_a_block_of_prefixes_is_each_prefix_bit_for_bit(dl):
    rng = np.random.default_rng(10)
    for L in (1, 2, 5, 70):
        block = rng.integers(0, 3, (L, 6))
        cols = np.stack([dl.values(block[:, i]) for i in range(6)], axis=1)
        assert np.array_equal(dl.values(block), cols)


# sha256 prefixes of the walked states and the next draw of the generator,
# recorded with the per-step searchsorted walk that the bisect walk replaced
FROZEN_WALK_DIGESTS = {2: "b2fa3e23bdf3b47f", 3: "d387662468c751fa",
                       4: "e5aab5b8f26a84b9", 16: "dcd7ca9d8f488a5e",
                       200: "77e1af9dbe15358c"}


@pytest.mark.parametrize("n_states", sorted(FROZEN_WALK_DIGESTS))
def test_walk_frozen_with_generator_position(n_states):
    model = random_chain(np.random.default_rng(n_states), n_states)
    h = hashlib.sha256()
    for steps in (1, 7, 64):
        for seed in (0, 11):
            rng = np.random.default_rng(seed)
            walk = _walk_chain(np.cumsum(model.transition, axis=1)[:, :-1].tolist(),
                               seed % n_states, rng.random(steps))
            h.update(np.array(walk, dtype="<i8").tobytes())
            h.update(np.float64(rng.random()).tobytes())
    assert h.hexdigest()[:16] == FROZEN_WALK_DIGESTS[n_states]


def test_dynamic_phi_needs_enough_lag():
    model = two_state_chain(0.25, 0.25)
    with pytest.raises(ValidationError):
        exact_phi(model, xor_loss().loss_table, 1)


def test_composite_check_holds_on_symmetric_chains():
    for p in (0.05, 0.25):
        model = two_state_chain(p, p)
        rows = composite_phi_check(model, xor_loss(), range(2, 13))
        assert all(r["ok"] for r in rows)
        for r in rows:
            assert r["rhs"] == pytest.approx(
                r["forgetting_2B"] + r["block_beta"], abs=1e-12)


def test_composite_check_mirror_holds_on_asymmetric_chains():
    # random 2-3 state chains with random memory-1..3 tables
    rng = np.random.default_rng(14)
    for _ in range(40):
        S, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        model = random_chain(rng, S)
        dl = HypothesisSpace(rng.random((int(rng.integers(2, 4)),) + (S,) * m))
        rows = composite_phi_check(model, dl, range(max(2, m), 13))
        assert all(r["ok"] for r in rows)
        assert all(r["phi_dynamic"] == exact_phi(model, dl.loss_table, r["d"])
                   for r in rows)


def test_a_block_past_numpys_axis_limit_is_a_size_error():
    # one symbol: every block length is within the enumeration cap
    dl = DiscountedLoss(0.9, 0.05, [[0.5], [0.7]])
    with pytest.raises(SizeError, match="L = 65"):
        limit_test_losses(dl, build_markov([[1.0]]), 65)
    with pytest.raises(SizeError, match="L = 70"):
        dl.block_table(70)


def test_the_limit_of_a_table_past_the_enumeration_cap_reads_the_table():
    # 2^20 windows exceed the cap, but the memory-20 table already holds them
    rng = np.random.default_rng(20)
    model = random_chain(rng, 2)
    table = rng.random((2,) + (2,) * 20)
    assert 2**20 > _ENUM_CAP
    limit, err = limit_test_losses(HypothesisSpace(table), model)
    assert err == 0.0
    assert np.array_equal(limit, window_expectations(model, table) @ model.stationary)
    # a block past a discounted loss's horizon is still capped
    with pytest.raises(SizeError, match=r"2\^21 blocks exceeds cap \d+ past the horizon"):
        DiscountedLoss(0.9, 0.05, [[0.5, 0.6]]).block_table(21)


def test_a_one_symbol_discounted_limit_takes_the_longest_block_numpy_allows():
    # every block length is one block, so only the axis limit bounds the horizon
    dl = DiscountedLoss(0.9, 0.05, [[0.5], [0.7]])
    h = dl.horizon()
    assert h == _MAX_AXES - 2
    limit, err = limit_test_losses(dl, build_markov([[1.0]]))
    assert err == dl.forgetting(h)
    assert np.all(np.abs(limit - [0.25, 0.35]) <= err)


def test_a_table_past_numpys_axis_limit_is_a_validation_error():
    # window_expectations contracts the table through one more axis
    with pytest.raises(ValidationError, match=f"numpy allows {_MAX_AXES}"):
        HypothesisSpace(np.full((2,) + (1,) * (_MAX_AXES - 1), 0.5))
    HypothesisSpace(np.full((2,) + (1,) * (_MAX_AXES - 2), 0.5))


def test_dynamic_game_decomposition_identity():
    rng = np.random.default_rng(15)
    model = random_chain(rng, 2)
    path = sample_path(model, 120, seed=3)
    learner = EWA(uniform_prior(2), 0.3, d=4)
    trace = run_dynamic_game(xor_loss(), path, learner, 4,
                             limit_test_losses(xor_loss(), model)[0])
    comparator = rng.dirichlet(np.ones(2))
    parts = decompose(trace, comparator)
    assert abs(parts["gen"] - parts["regret_over_n"] - parts["martingale"]) \
        < 1e-12


def test_discounted_loss_rows_follow_recurrence():
    g = np.array([[0.0, 1.0], [1.0, 0.0]])
    dl = DiscountedLoss(gamma=0.5, scale=0.3, g_table=g)
    symbols = np.array([0, 1, 1, 0])
    rows = dl.loss_rows(symbols)
    acc = np.zeros(2)
    for t, z in enumerate(symbols):
        acc = g[:, z] + 0.5 * acc
        np.testing.assert_allclose(rows[t], np.clip(0.3 * acc, 0, 1),
                                   atol=1e-14)


def test_loss_from_json_schemas():
    dl = loss_from_json({"kind": "memory-table", "m": 2,
                         "table": np.stack([np.eye(2), 1 - np.eye(2)]).tolist()})
    assert isinstance(dl, HypothesisSpace) and dl.m == 2
    dd = loss_from_json({"kind": "discounted", "gamma": 0.9, "scale": 0.05,
                         "g_table": [[0.0, 1.0]]})
    assert isinstance(dd, DiscountedLoss)
    with pytest.raises(ValidationError):
        loss_from_json({"kind": "mystery"})
