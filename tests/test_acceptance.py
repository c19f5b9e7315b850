"""Acceptance gate: one test per top-level claim the package makes.

Each test prints a single PASS line on success; tolerances are part of the
claim and are asserted, never loosened.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mixgame import (EWA, GameTrace, HypothesisSpace, MixingProfile,
                     composite_phi_check, decompose, deviation_term,
                     ewa_step, exact_block_beta, exact_phi,
                     fit_mixing_profile, limit_test_losses,
                     phi_table, play_costs, project_simplex,
                     run_dynamic_game, sample_path,
                     two_state_chain, uniform_prior, window_expectations)
from mixgame.cli import main as cli_main
from mixgame.online import LEARNERS
from mixgame.experiments import (config_from_dict, coverage_experiment,
                                 delay_sweep, delayed_ewa_posteriors)

from conftest import (algebraic_rate_sandwich, build_iid, instance_regrets,
                      product_chain, random_chain, random_space, regret_bound)


def _report(line):
    print(f"\n{line}: PASS")


def _random_memory_loss(rng, n_hyp, alphabet, m):
    return HypothesisSpace(rng.random((n_hyp,) + (alphabet,) * m))


def test_01_regret_decomposition_identity_randomized():
    """Gen == Regret/n + M_n exactly, across learners, delays and losses."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n_states = int(rng.integers(2, 4))
        model = random_chain(rng, n_states)
        n = int(rng.integers(50, 501))
        d = int(rng.choice([1, 2, 4, 8]))
        algorithm = ("ewa", "ewa", "ftrl-sqnorm")[i % 3]
        n_hyp = int(rng.integers(2, 6))
        path = sample_path(model, n, seed=1000 + i)
        learner = LEARNERS[algorithm](uniform_prior(n_hyp),
                                      float(rng.uniform(0.05, 1.0)), d=d)
        if i % 2 == 0:
            loss = random_space(rng, n_hyp, n_states)
        else:
            loss = _random_memory_loss(rng, n_hyp, n_states,
                                       int(rng.integers(1, 4)))
        trace = run_dynamic_game(loss, path, learner, d,
                                 limit_test_losses(loss, model)[0])
        comparator = rng.dirichlet(np.ones(n_hyp))
        parts = decompose(trace, comparator)
        residual = abs(parts["gen"] - parts["regret_over_n"]
                       - parts["martingale"])
        worst = max(worst, residual)
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(f"[1/13] regret decomposition identity over 100 randomized games "
            f"(worst residual {worst:.2e}, {elapsed:.1f}s)")


def test_02_ewa_regret_never_exceeds_its_bound():
    """Realized regret vs the best expert stays below KL/eta + eta/2 * sum."""
    rng = np.random.default_rng(202)
    etas = np.geomspace(0.01, 10.0, 7)
    prior = uniform_prior(4)
    violations = 0
    for _ in range(1000):
        costs = rng.uniform(-1, 1, size=(40, 4))
        sup_sq = float(np.sum(np.abs(costs).max(axis=1) ** 2))
        best = costs.sum(axis=0).min()
        for eta in etas:
            posts = delayed_ewa_posteriors(costs, np.log(prior), eta, 1)
            regret = float(np.sum(posts * costs)) - best
            if regret > regret_bound(math.log(4), eta, 1.0, sup_sq) + 1e-12:
                violations += 1
    assert violations == 0
    _report("[2/13] exponential-weights regret bound held on 1000 streams x "
            "7 learning rates (0 violations)")


def test_03_delayed_wrapper_exactness_and_bound():
    """Round-robin wrapper: regret splits exactly across instances and obeys
    the d-scaled bound; d=1 is the base learner verbatim."""
    rng = np.random.default_rng(303)
    prior = uniform_prior(4)
    eta = 0.3
    for trial in range(50):
        n = int(rng.integers(30, 120))
        costs = rng.uniform(-1, 1, size=(n, 4))
        d = int(rng.choice([2, 4, 8]))
        trace = play_costs(costs, np.zeros(4), EWA(prior, eta, d=d), d)
        dirac = np.eye(4)[np.argmin(costs.sum(axis=0))]
        total = decompose(trace, dirac)["regret"]
        per = instance_regrets(trace, dirac, d)
        assert abs(total - per.sum()) < 1e-12
        assert total <= d * math.log(4) / eta + eta * n / 2 + 1e-12
    # at d = 1 the wrapper is exponential weights itself: round t plays the
    # softmax of prior_log - eta * S_t, S_t the sum of the costs before t
    costs = rng.uniform(-1, 1, size=(60, 4))
    wrapped = play_costs(costs, np.zeros(4), EWA(prior, eta, d=1), 1)
    S = np.vstack([np.zeros(4), np.cumsum(costs, axis=0)[:-1]])
    assert all(np.array_equal(play, ewa_step(np.log(prior), eta, S_t))
               for play, S_t in zip(wrapped.posteriors, S))
    _report("[3/13] delayed round-robin wrapper: exact per-instance regret "
            "split, d-scaled bound, transparent at d=1")


def _simplex_grid(W, steps):
    """All probability vectors with coordinates on a 1/steps lattice."""
    if W == 2:
        a = np.arange(steps + 1) / steps
        return np.column_stack([a, 1 - a])
    if W == 3:
        i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1),
                           indexing="ij")
        mask = i + j <= steps
        i, j = i[mask], j[mask]
        return np.column_stack([i, j, steps - i - j]) / steps
    i, j, k = np.meshgrid(*[np.arange(steps + 1, dtype=np.int32)] * 3,
                          indexing="ij")
    mask = i + j + k <= steps
    i, j, k = i[mask], j[mask], k[mask]
    return np.column_stack([i, j, k, steps - i - j - k]) / steps


def test_04_ftrl_entropy_equals_ewa_and_projection_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n, W = int(rng.integers(10, 60)), int(rng.integers(2, 5))
        costs = rng.uniform(-1, 1, size=(n, W))
        eta = float(rng.uniform(0.05, 2.0))
        prior = rng.dirichlet(np.ones(W))
        # the entropic FTRL argmin after cumulative cost S is the softmax of
        # prior_log - eta * S, the closed form of the d = 1 wrapper
        a = EWA(prior, eta)
        argmins = delayed_ewa_posteriors(costs, np.log(prior), eta, 1)
        for c, argmin in zip(costs, argmins):
            np.testing.assert_array_equal(a.act(), argmin)
            a.observe(c)
    # projection against an exhaustive lattice search; the lattice for
    # four coordinates uses a 5e-3 pitch to keep the point count sane,
    # with the tolerance widened in proportion
    for W, steps, tol in ((2, 1000, 2e-3), (3, 1000, 2e-3), (4, 200, 1e-2)):
        grid = _simplex_grid(W, steps)
        for _ in range(10):
            y = rng.normal(size=W) * 2
            best = grid[np.argmin(np.sum((grid - y) ** 2, axis=1))]
            assert np.max(np.abs(project_simplex(y) - best)) <= tol
    _report("[4/13] entropic follow-the-regularized-leader reproduces "
            "exponential weights bit for bit; simplex projection matches the "
            "lattice oracle")


def test_05_exact_mixing_oracle_closed_form_and_linearity():
    model = two_state_chain(0.25, 0.25)
    losses = np.array([[0.0, 1.0], [1.0, 0.0]])
    for d in range(1, 31):
        assert abs(exact_phi(model, losses, d) - 0.5 * 0.5**d) < 1e-9
    # additive noise: the conditional gap matrix is affine in the noise
    # scale as long as the composite loss never clips
    # on the product of an i.i.d. clean symbol and a noise chain
    noise = two_state_chain(0.3, 0.2)
    base_probs = np.array([0.6, 0.4])
    base_losses = np.array([[0.3, 0.7], [0.5, 0.4]])
    vals = np.array([-1.0, 1.0])
    m = product_chain([build_iid(base_probs), noise])
    W = len(base_losses)

    def gap_matrix(alpha, d):
        table = np.clip(base_losses[:, :, None] + alpha * vals, 0, 1).reshape(W, -1)
        test_vec = table @ m.stationary
        return test_vec[None, :] - np.linalg.matrix_power(m.transition, d) @ table.T

    for d in (1, 2, 5):
        g0, g1, g2 = (gap_matrix(a, d) for a in (0.0, 0.1, 0.2))
        assert np.max(np.abs(g2 - 2 * g1 + g0)) < 1e-10
    _report("[5/13] eigenvalue-exact mixing coefficients (phi_d = 0.5^{d+1}) "
            "and alpha-linear noisy-loss gaps on a product chain")


def _coverage_config(mode_seed):
    return config_from_dict({
        "process": {"transition": [[0.95, 0.05], [0.05, 0.95]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3,
                   "delay": "auto-geometric"},
        "experiment": {"n": 2000, "replicates": 1000, "delta": 0.1,
                       "seed": mode_seed, "d_max": 30},
    })


def test_06_martingale_tail_bound_coverage():
    start = time.monotonic()
    cfg = _coverage_config(611)
    assert cfg.delay == 73  # ceil(tau * ln n) with tau = -1/ln 0.9
    _, summary = coverage_experiment(cfg, mode="mn")
    elapsed = time.monotonic() - start
    sigma = math.sqrt(0.1 * 0.9 / 1000)
    assert summary["violation_rate"] <= 0.1 + 3 * sigma
    assert elapsed < 120.0
    _report(f"[6/13] blocking tail bound coverage: violation rate "
            f"{summary['violation_rate']:.3f} <= {0.1 + 3 * sigma:.3f} over 1000 "
            f"replicates ({elapsed:.1f}s)")


def test_07_generalization_bound_coverage():
    cfg = _coverage_config(712)
    _, summary = coverage_experiment(cfg, mode="gen")
    sigma = math.sqrt(0.1 * 0.9 / 1000)
    assert summary["violation_rate"] <= 0.1 + 3 * sigma
    _report(f"[7/13] realized-regret generalization bound coverage: "
            f"violation rate {summary['violation_rate']:.3f} over 1000 replicates")


def _wrapped_ewa_martingale(model, loss, d, eta, n):
    """Every length-n path of a 2-state chain, its stationary probability, its
    loss rows, the limit, the wrapped-EWA plays and M_n, all paths at once."""
    paths = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    T, pi = model.transition, model.stationary
    prob = pi[paths[:, 0]] * np.prod(T[paths[:, :-1], paths[:, 1:]], axis=1)
    rows = loss.loss_table[:, paths].transpose(1, 2, 0)  # (paths, n, W)
    limit = loss.loss_table @ pi
    costs = rows - limit
    cum = np.zeros_like(costs)  # each round's earlier costs of its residue class
    for i in range(d):
        cum[:, i + d::d] = np.cumsum(costs[:, i::d][:, :-1], axis=1)
    logits = -eta * cum  # a uniform prior
    plays = np.exp(logits - logits.max(axis=2, keepdims=True))
    plays /= plays.sum(axis=2, keepdims=True)
    mn = -np.mean(np.sum(plays * costs, axis=2), axis=1)
    return prob, rows, limit, plays, mn


@pytest.mark.parametrize("flip, d, eta, tails", [
    (0.5, 1, 50.0, (0.0, 974 / 2**16, 8102 / 2**16)),
    (0.5, 1, 0.3, (0.0, 34 / 2**16, 1394 / 2**16)),
    (0.1, 4, 50.0, (0.0, 0.0, 0.0)),
], ids=["fair-coin-eta50", "fair-coin-eta0.3", "flip0.1-d4"])
def test_martingale_bound_exact_over_every_path(flip, d, eta, tails):
    """Claim 6 without sampling: over all 2^16 paths at n = 16, exactly
    P(M_n > phi_d + deviation) <= delta and E[M_n] <= phi_d, for wrapped EWA
    on indicator losses; a deviation term cut to a quarter is caught."""
    n, delta = 16, 0.1
    model = two_state_chain(flip, flip)
    loss = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob, rows, limit, plays, mn = _wrapped_ewa_martingale(model, loss, d, eta, n)
    assert abs(prob.sum() - 1.0) < 1e-12
    k = 12345  # one path through the package's own plays and accounting
    prior_log = np.log(uniform_prior(2))
    np.testing.assert_allclose(
        delayed_ewa_posteriors(rows[k] - limit, prior_log, eta, d), plays[k],
        rtol=0, atol=1e-15)
    trace = GameTrace(plays[k], rows[k], limit)
    assert decompose(trace, uniform_prior(2))["martingale"] == pytest.approx(
        mn[k], rel=0, abs=1e-15)
    phi, dev = exact_phi(model, loss.loss_table, d), deviation_term(d, n, delta)
    tail = [float(prob[mn > phi + dev * cut].sum()) for cut in (1.0, 0.5, 0.25)]
    assert tail == pytest.approx(tails, rel=0, abs=1e-12)
    assert tail[0] <= delta
    assert prob @ mn <= phi + 1e-12  # rounding of a zero mean on the fair coin
    if (flip, eta) == (0.5, 50.0):
        assert tail[2] > delta  # the oracle has power
    _report(f"[6/13, exact] P(M_n > bound) = {tail[0]} <= {delta}, "
            f"E[M_n] = {prob @ mn:.4f} <= phi_{d} = {phi:.4f} over all 2^{n} paths")


def test_08_delay_tuning_formulas_and_rate_exponent():
    assert MixingProfile("geometric", C=1.0, tau=2.0).tuned_delay(1000) == 14
    assert MixingProfile("algebraic", C=1.0, r=1.0).tuned_delay(1000) == 10
    # the algebraic bound at its tuned delay, over the rate
    # C^{1/(1+2r)} (1 + sqrt(2 ln(1/delta))) n^{-r/(1+2r)}, lies in
    # [(1+1/x)^{-r}, sqrt(1+1/x)] at x = (C^2 n)^{1/(1+2r)}, ends that close
    # in on 1 as n grows
    for C in (1.0, 0.3):
        for r in (0.5, 1.0, 2.0):
            widths = []
            for n in (10**4, 10**7, 10**10):
                low, ratio, high = algebraic_rate_sandwich(C, r, n, 0.05)
                assert low <= ratio <= high
                widths.append(high - low)
            assert widths == sorted(widths, reverse=True)
    _report("[8/13] delay tuning (geometric 14, algebraic 10) and the "
            "n^{-r/(1+2r)} rate exponent")


def test_09_delay_sweep_is_u_shaped_and_tuning_is_near_optimal():
    doc = {
        "process": {"transition": [[0.95, 0.05], [0.05, 0.95]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 1},
        "experiment": {"n": 2000, "replicates": 1, "delta": 0.1, "seed": 9,
                       "d_grid": list(range(1, 65)) + [73], "d_max": 30},
    }
    rows = delay_sweep(config_from_dict(doc))
    totals = [r["total_bound"] for r in rows]
    grid_min = min(totals[:64])
    k = int(np.argmin(totals[:64]))
    assert all(np.diff(totals[:k + 1]) <= 1e-12)      # falling branch
    assert all(np.diff(totals[k:64]) >= -1e-12)       # rising branch
    assert totals[64] <= 2.0 * grid_min               # tuned d = 73
    _report(f"[9/13] delay sweep is U-shaped (minimum at d={k + 1}) and the "
            f"tuned delay lands within {totals[64] / grid_min:.2f}x of it")


def test_10_composite_mixing_inequality_memory2():
    start = time.monotonic()
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dl = HypothesisSpace(np.stack([x, 1.0 - x]))
    for p in (0.05, 0.25):
        model = two_state_chain(p, p)
        rows = composite_phi_check(model, dl, range(2, 21))
        assert all(r["ok"] for r in rows)
        assert all(r["phi_dynamic"] == exact_phi(model, dl.loss_table, r["d"])
                   for r in rows)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(f"[10/13] composite inequality phi_d <= 2B + beta for the "
            f"memory-2 parity loss, d = 2..20 ({elapsed:.1f}s)")


def test_11_memory1_losses_reduce_to_the_static_machinery():
    model = two_state_chain(0.1, 0.3)
    table = np.array([[0.1, 0.9], [0.6, 0.2], [0.4, 0.4]])
    dl = HypothesisSpace(table)
    limits, err = limit_test_losses(dl, model)
    np.testing.assert_allclose(limits, table @ model.stationary, atol=1e-12)
    assert err == 0.0
    for d in (1, 2, 4, 8):
        # the dynamic route's window table, at lag d - m + 1 = d
        windows = window_expectations(model, dl.loss_table)
        Pd = np.linalg.matrix_power(model.transition, d)
        np.testing.assert_allclose(Pd @ windows.T, Pd @ table.T, atol=1e-12)
        static_gap = table @ model.stationary - Pd @ table.T
        assert abs(exact_phi(model, dl.loss_table, d)
                   - max(0.0, float(np.max(static_gap)))) < 1e-12
        assert abs(exact_block_beta(model, dl, d)
                   - exact_phi(model, table, 2 * d)) < 1e-12
    path = sample_path(model, 200, seed=5)
    t_dyn = run_dynamic_game(dl, path, EWA(uniform_prior(3), 0.4, d=3), 3, limits)
    t_static = play_costs(table[:, path.symbols].T, table @ model.stationary,
                          EWA(uniform_prior(3), 0.4, d=3), 3)
    np.testing.assert_array_equal(t_dyn.costs, t_static.costs)
    assert all(np.array_equal(a, b) for a, b in zip(t_dyn.posteriors,
                                                    t_static.posteriors))
    # bit for bit: the memory-1 route against the raw-array kernels, so that
    # static-table outputs keep their bytes through any layout change
    rng = np.random.default_rng(1111)
    for _ in range(60):
        S, W = (int(k) for k in rng.integers(2, 7, size=2))
        model = random_chain(rng, S)
        L = rng.random((W, S))
        space = HypothesisSpace(L)
        path = sample_path(model, 50, seed=int(rng.integers(2**31)))
        raw_rows = L[:, path.symbols]
        assert np.array_equal(space.loss_rows(path.symbols), raw_rows.T)
        assert np.array_equal(space.loss_rows(path.symbols).mean(axis=0),
                              raw_rows.mean(axis=1))
        assert np.array_equal(limit_test_losses(space, model)[0],
                              L @ model.stationary)
        for d in range(1, 21):
            static_gap = L @ model.stationary - np.linalg.matrix_power(
                model.transition, d) @ L.T
            assert exact_phi(model, space.loss_table, d) == max(
                0.0, float(np.max(static_gap)))
            assert exact_block_beta(model, space, d) == exact_phi(model, L, 2 * d)
    _report("[11/13] memory-1 dynamic losses reproduce the static limits, "
            "conditionals, mixing gaps and game traces (1e-12), and on 60 "
            "random chains the static kernels' bits")


def test_12_cli_runs_are_byte_identical(tmp_path):
    base = {
        "process": {"transition": [[0.85, 0.15], [0.2, 0.8]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
        "experiment": {"n": 80, "replicates": 3, "delta": 0.1, "seed": 21,
                       "d_grid": [1, 2, 4], "d_max": 8},
        "bounds": {"n": 500, "delta": 0.05, "tau": 2.0, "kl": math.log(2),
                   "eta": 0.1, "r": 1.0},
    }
    dyn_doc = json.loads(json.dumps(base))
    x = [[0.0, 1.0], [1.0, 0.0]]
    dyn_doc["loss"] = {"kind": "memory-table", "m": 2,
                       "table": [x, [[1.0, 0.0], [0.0, 1.0]]]}
    dyn_doc["experiment"]["d_grid"] = [2, 4, 6]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base))
    dyn_cfg = tmp_path / "dynamic.json"
    dyn_cfg.write_text(json.dumps(dyn_doc))
    commands = [
        ["simulate", "--config", str(cfg)],
        ["coverage", "--config", str(cfg), "--mode", "gen"],
        ["sweep-delay", "--config", str(cfg)],
        ["mixing", "--config", str(cfg)],
        ["bounds", "--config", str(cfg)],
        ["dynamic", "--config", str(dyn_cfg)],
    ]
    for idx, cmd in enumerate(commands):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}-{run}"
            # only the commands that sample a path take --seed
            seed = [] if cmd[0] in ("mixing", "bounds", "dynamic") else ["--seed", "77"]
            assert cli_main(cmd + ["--out", str(out), *seed]) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), f"{cmd[0]}/{name} differs"
    _report("[12/13] all six command-line subcommands are byte-identical "
            "across repeat runs with a fixed seed")


def test_13_tuned_delay_is_near_optimal_under_algebraic_mixing():
    # K independent symmetric two-state chains with flip rates eps_k and the
    # loss sum_k w_k z_k, w_k ~ eps_k^0.5: phi_d = sum_k (w_k/2)(1-2 eps_k)^d,
    # a sum of geometric decays that looks algebraic over d = 1 .. 1/(2 eps_K)
    K = 8
    eps = 0.25 * 2.0 ** -np.arange(K)
    w = eps**0.5 / np.sum(eps**0.5)
    model = product_chain([two_state_chain(e, e) for e in eps])
    z = np.indices((2,) * K).reshape(K, -1)  # coordinate k of every state
    loss = np.clip(w @ z, 0.0, 1.0)  # sum w_k can round to 1 + 1 ulp
    table = np.stack([loss, 1.0 - loss])
    d_top = 2000
    d = np.arange(1, d_top + 1)
    phi = phi_table(model, table, d_top)
    # measured 1.2e-15 over d <= 2000
    assert np.max(np.abs(phi - (w / 2) @ (1 - 2 * eps[:, None]) ** d)) < 1e-12

    doc = {"process": {"transition": model.transition.tolist()},
           "loss": {"losses": table.tolist()},
           "online": {"algorithm": "ewa", "eta": 0.3, "delay": "auto-algebraic"},
           "experiment": {"n": 1000, "delta": 0.05, "d_max": 100}}
    ns = [10**3, 10**4, 10**5, 10**6]
    tuned, best, minima, ratios = [], [], [], []
    for n in ns:
        doc["experiment"]["n"] = n
        tuned.append(config_from_dict(doc).delay)
        # phi_d plus the deviation term: the bound's d-dependent part once the
        # regret term is tuned away (at a fixed eta the sweep's
        # d*KL/(eta n) + eta/2 does not shrink with n)
        total = phi[:min(n, d_top)] + np.array(
            [deviation_term(k, n, 0.05) for k in d[:min(n, d_top)]])
        k = int(np.argmin(total))
        best.append(k + 1)
        minima.append(total[k])
        ratios.append(total[tuned[-1] - 1] / total[k])
    # the program's fit on d <= 100: C = 0.607, r = 0.661, log residual 0.47
    r_fit = fit_mixing_profile(phi[:100], "algebraic").r
    assert tuned == [13, 35, 93, 250]
    # measured 1.066, 1.032, 1.017, 1.022.  On an exact power law with the
    # fitted C and r the rule already sits 4.6% above the minimum (it leaves
    # out the sqrt(2 ln(1/delta)) of the deviation term); 10% allows about
    # as much again for the fit misreading the local exponent
    assert max(ratios) <= 1.10
    # On a pure power law C d^-r the minimum falls exactly as n^(-r/(1+2r)).
    # Here the local exponent r between consecutive optimal delays grows from
    # 0.59 to 1.05, and each decade's slope matches -r/(1+2r) of that local
    # r to 4e-4 (measured); 2e-3 is five times that.
    slopes = []
    for (d1, d2), (m1, m2) in zip(zip(best, best[1:]), zip(minima, minima[1:])):
        r_loc = math.log(phi[d1 - 1] / phi[d2 - 1]) / math.log(d2 / d1)
        slopes.append(math.log10(m2 / m1))
        assert abs(slopes[-1] + r_loc / (1 + 2 * r_loc)) < 2e-3
    # the fitted r is one of those local exponents, so its rate (-0.285)
    # lies among the decade slopes (-0.338 .. -0.270)
    assert min(slopes) <= -r_fit / (1 + 2 * r_fit) <= max(slopes)
    slope = math.log10(minima[-1] / minima[0]) / 3
    _report(f"[13/13] algebraic mixing on a {model.n_states}-state product "
            f"chain: phi_d exact (1e-12), tuned delays {tuned} within "
            f"{max(ratios):.3f}x of the best, rate slope {slope:.3f} against "
            f"{-r_fit / (1 + 2 * r_fit):.3f} from the fitted r")
