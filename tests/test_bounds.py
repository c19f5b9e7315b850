import json
import math

import numpy as np
import pytest

from mixgame import (HypothesisSpace, MixingProfile, ValidationError,
                     delay_bound, delayed_regret_bound, deviation_term, exact_phi,
                     sweep_delay, tuned_bound, two_state_chain)
from mixgame.cli import main

from conftest import algebraic_rate_sandwich


def no_regret(d):
    return 0.0


def geometric(C=1.0, tau=2.0):
    return MixingProfile("geometric", C=C, tau=tau)


def test_deviation_term_formula():
    assert deviation_term(5, 1000, 0.05) == pytest.approx(
        math.sqrt(2 * 5 * math.log(20) / 1000), abs=1e-15)


def test_deviation_term_reads_a_subnormal_delta():
    # 1/delta overflows below 1/float max; ln(1/delta) is -ln(delta) there
    for delta in (5e-324, 2.2250738585072014e-310):
        assert deviation_term(4, 100, delta) == math.sqrt(8 * -math.log(delta) / 100)
    assert deviation_term(4, 100, 0.1) == math.sqrt(8 * math.log(10.0) / 100)


def test_geometric_phi_at_a_subnormal_tau_is_0():
    # d / tau overflows to inf; the warning would fail the run
    assert geometric(tau=5e-324).phi(3) == 0.0
    assert geometric(tau=5e-324).phi(np.arange(1, 4)).tolist() == [0.0] * 3


def test_blocking_tail_bound_frozen():
    # the martingale term's high-probability bound: phi_d + deviation
    assert 0.05 + deviation_term(4, 400, 0.05) == pytest.approx(
        0.29477468306808163, abs=1e-12)


def test_delay_bound_report_totals():
    rep = delay_bound(regret_value=5.0, phi_d=0.02, d=4, n=100, delta=0.1)
    assert rep.regret_term == pytest.approx(0.05)
    assert rep.phi_term == pytest.approx(0.02)
    assert rep.total == pytest.approx(rep.regret_term + rep.phi_term
                                      + rep.deviation_term, abs=1e-15)


def test_geometric_bound_frozen():
    rep = tuned_bound(geometric(), n=1000, delta=0.05, regret=no_regret)
    assert rep.tag == "geometric" and rep.d == 14
    # the bound at its own delay: e^{-7} <= C/n, deviation_term(14) <= the
    # closed form sqrt(2 (tau ln n + 1) ln(1/delta) / n)
    assert rep.phi_term == pytest.approx(math.exp(-7.0), abs=1e-15)
    assert rep.deviation_term == pytest.approx(deviation_term(14, 1000, 0.05),
                                               abs=1e-15)
    assert rep.total == pytest.approx(0.29053319274829326, abs=1e-12)
    assert rep.total <= 0.2989372522115134  # the closed form C/n + deviation


def test_algebraic_bound_frozen():
    rep = tuned_bound(MixingProfile("algebraic", C=1.0, r=1.0), n=1000,
                      delta=0.05, regret=no_regret)
    assert rep.tag == "algebraic" and rep.d == 10
    # C d^-r + deviation_term(d) at d = 10
    assert rep.phi_term == pytest.approx(0.1, abs=1e-15)
    assert rep.total == pytest.approx(0.3447746830680817, abs=1e-12)
    # the paper's rate C (1 + sqrt(ln(1/delta))) n^(-r/(1+2r)) is below the
    # bound at the tuned delay, so it is not a bound there
    assert (1.0 + math.sqrt(math.log(20))) * 1000 ** (-1 / 3) == pytest.approx(
        0.2730818382602286, abs=1e-15)
    assert 0.2730818382602286 < rep.total


def test_ewa_geometric_bound_frozen():
    rep = tuned_bound(geometric(), n=10**4, delta=0.05,
                      regret=lambda d: delayed_regret_bound(math.log(2), 0.1,
                                                            d, 10**4),
                      tag_prefix="ewa-")
    assert rep.tag == "ewa-geometric"
    assert rep.regret_term == pytest.approx(0.06316979643063896, abs=1e-12)
    assert rep.d == 19 and rep.phi_term == pytest.approx(math.exp(-9.5), abs=1e-15)
    assert rep.deviation_term == pytest.approx(deviation_term(19, 10**4, 0.05),
                                               abs=1e-15)
    assert rep.total == pytest.approx(0.16993945900362306, abs=1e-12)
    assert rep.total <= 0.17113931026939383  # with the closed form


def test_ftrl_geometric_bound_frozen():
    rep = tuned_bound(geometric(), n=10**4, delta=0.05,
                      regret=lambda d: delayed_regret_bound(
                          0.5, 0.1, d, 10**4, alpha=1.0, B=1.0),
                      tag_prefix="ftrl-")
    assert rep.tag == "ftrl-geometric"
    assert rep.regret_term == pytest.approx(0.0595, abs=1e-12)
    assert rep.total == pytest.approx(0.16626966257298412, abs=1e-12)
    assert rep.total <= 0.16746951383875486  # with the closed form


def test_tuned_delays_frozen_and_clamped():
    assert geometric(tau=2.0).tuned_delay(1000) == 14
    assert MixingProfile("algebraic", C=1.0, r=1.0).tuned_delay(1000) == 10
    assert geometric(tau=0.0001).tuned_delay(50) == 1
    assert geometric(tau=1000.0).tuned_delay(50) == 50
    # clamped before rounding: an infinite delay lands on n, not on an
    # OverflowError from math.ceil
    assert geometric(tau=1e308).tuned_delay(1000) == 1000
    assert MixingProfile("algebraic", C=1e200, r=1.0).tuned_delay(1000) == 1000
    with pytest.raises(ValidationError):
        geometric().tuned_delay(0)


def test_algebraic_main_term_log_log_slope():
    # total / (C^{1/(1+2r)} (1 + sqrt(2 ln(1/delta))) n^{-r/(1+2r)}) lies in
    # [(1+1/x)^{-r}, sqrt(1+1/x)] at x = (C^2 n)^{1/(1+2r)}, and both ends
    # close in on 1 as n grows: the n^{-r/(1+2r)} rate
    for C in (1.0, 0.3):
        for r in (0.5, 1.0, 2.0):
            widths = []
            for n in (10**4, 10**7, 10**10):
                low, ratio, high = algebraic_rate_sandwich(C, r, n, 0.05)
                assert low <= ratio <= high
                widths.append(high - low)
            assert widths == sorted(widths, reverse=True)


def test_bounds_command_clamped_geometric_row(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bounds": {"n": 50, "delta": 0.9, "C": 2.0,
                                          "tau": 60.0}}))
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # tau ln n = 235 > n = 50 clamps d to n, where C/n = 0.04 no longer
    # bounds C e^{-d/tau}: the row must dominate the bound at its own delay
    [row] = json.loads((tmp_path / "bounds.json").read_text())
    assert row["tag"] == "geometric" and row["d"] == 50
    assert row["phi_term"] == pytest.approx(2.0 * math.exp(-50 / 60), abs=1e-15)
    at_d = delay_bound(0.0, 2.0 * math.exp(-50 / 60), 50, 50, 0.9)
    assert row["total"] >= at_d.total
    # and, with the deviation paid at d = n, it is that bound
    assert row["total"] == pytest.approx(at_d.total, abs=1e-15)


@pytest.mark.parametrize("spec, profile", [
    ({"tau": 1e308}, MixingProfile("geometric", C=1.0, tau=1e308)),
    ({"r": 1.0, "C": 1e200}, MixingProfile("algebraic", C=1e200, r=1.0)),
])
def test_bounds_command_overflowing_delay_is_clamped_to_n(tmp_path, spec,
                                                          profile):
    # tau ln n and (C^2 n)^(1/(1+2r)) overflow to inf; clamping before
    # rounding up puts the row at d = n instead of an OverflowError
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bounds": {"n": 1000, "delta": 0.05, **spec}}))
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    [row] = json.loads((tmp_path / "bounds.json").read_text())
    assert row["d"] == 1000
    assert row == delay_bound(0.0, profile.phi(1000), 1000, 1000, 0.05,
                              tag=profile.kind).to_dict()


@pytest.mark.parametrize("spec, rows", [
    ({"phi_d": 0.05, "d": 4, "tau": 2.0, "r": 1.0},
     [("delay", 4, 0.204809102408198), ("geometric", 14, 0.29053319274829326),
      ("algebraic", 10, 0.3447746830680817)]),
    ({"n": 50, "delta": 0.9, "C": 2.0, "tau": 60.0},
     [("geometric", 50, 1.3282400220405772)]),
    ({"tau": 1e308}, [("geometric", 1000, 3.4477468306808166)]),
    ({"tau": 2.0, "kl": 0.5, "h_gap": 0.7, "eta": 0.1, "alpha": 2.0, "B": 0.5},
     [("ewa-geometric", 14, 0.41053319274829325),
      ("ftrl-geometric", 14, 0.3947831927482932)]),
    ({"tau": 2.0, "r": 1.0, "kl": math.log(2), "eta": 0.1},
     [("ewa-geometric", 14, 0.4375737980266856),
      ("ewa-algebraic", 10, 0.46408940112407615)]),
    ({"phi_d": 0.05, "d": 4, "tau": 2.0, "r": 1.0, "kl": 0.5, "h_gap": 0.7,
      "eta": 0.1},
     [("ewa-delay", 4, 0.274809102408198), ("ftrl-delay", 4, 0.282809102408198),
      ("ewa-geometric", 14, 0.41053319274829325),
      ("ftrl-geometric", 14, 0.4385331927482933),
      ("ewa-algebraic", 10, 0.44477468306808166),
      ("ftrl-algebraic", 10, 0.4647746830680817)]),
], ids=["phi-tau-r", "clamped-tau", "overflowing-tau", "tau-kl-h_gap",
        "kl-tau-r", "every-row"])
def test_bounds_command_rows_frozen(tmp_path, spec, rows):
    # one row per delay row (phi_d at d, then geometric, then algebraic) and
    # regret source (kl, then h_gap; with neither, the plain regret)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bounds": {"n": 1000, "delta": 0.05, **spec}}))
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "bounds.json").read_text())
    assert [(r["tag"], r["d"], r["total"]) for r in written] == rows


def test_sweep_delay_rows_are_consistent():
    # the rows are closed-form assembly around the gaps the caller's games gave
    model = two_state_chain(0.25, 0.25)
    table = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]])).loss_table
    n, delta, eta, kl, d_grid = 200, 0.1, 0.3, 0.25, [1, 2, 4, 8]
    gens = [0.01, -0.02, 0.03, 0.0]
    rows = sweep_delay(model, table, n, delta, d_grid, eta, kl, gens)
    assert [r["d"] for r in rows] == d_grid
    for r, gen in zip(rows, gens):
        d = r["d"]
        rep = delay_bound(delayed_regret_bound(kl, eta, d, n),
                          exact_phi(model, table, d), d, n, delta)
        assert (r["phi_term"], r["deviation_term"], r["regret_term"],
                r["total_bound"], r["empirical_gen"]) == (
            rep.phi_term, rep.deviation_term, rep.regret_term, rep.total, gen)
        assert r["phi_term"] == pytest.approx(0.5 * 0.5 ** d, abs=1e-12)
    # deviation grows with d while phi shrinks
    devs = [r["deviation_term"] for r in rows]
    assert devs == sorted(devs)


def test_bound_inputs_validated():
    with pytest.raises(ValidationError):
        deviation_term(0, 100, 0.05)
    with pytest.raises(ValidationError):
        deviation_term(5, 100, 1.5)
    with pytest.raises(ValidationError):
        delayed_regret_bound(0.5, -0.1, 4, 100)
    with pytest.raises(ValidationError):
        tuned_bound(MixingProfile("exponential", C=1.0), 100, 0.05, no_regret)
