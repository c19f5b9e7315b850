import json
import math

import numpy as np
import pytest

from mixgame import (HypothesisSpace, MixingProfile, ValidationError,
                     delay_bound, delayed_regret_bound, deviation_term,
                     gibbs_posterior, sample_path, sweep_delay, tuned_bound,
                     two_state_chain)
from mixgame.cli import main

from conftest import algebraic_rate_sandwich


def no_regret(d):
    return 0.0


def geometric(C=1.0, tau=2.0):
    return MixingProfile("geometric", C=C, tau=tau)


def test_deviation_term_formula():
    assert deviation_term(5, 1000, 0.05) == pytest.approx(
        math.sqrt(2 * 5 * math.log(20) / 1000), abs=1e-15)


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
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "json"]) == 0
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
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "json"]) == 0
    [row] = json.loads((tmp_path / "bounds.json").read_text())
    assert row["d"] == 1000
    assert row == delay_bound(0.0, profile.phi(1000), 1000, 1000, 0.05,
                              tag=profile.kind).to_dict()


def test_sweep_delay_rows_are_consistent():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    loss_rows = space.loss_rows(sample_path(model, 200, seed=5).symbols)
    rows = sweep_delay(model, space, loss_rows, gibbs_posterior(loss_rows, 1.0),
                       delta=0.1, d_grid=[1, 2, 4, 8], eta=0.3)
    assert [r["d"] for r in rows] == [1, 2, 4, 8]
    for r in rows:
        assert r["phi_term"] == pytest.approx(0.5 * 0.5 ** r["d"], abs=1e-12)
        assert r["total_bound"] == pytest.approx(
            r["phi_term"] + r["deviation_term"] + r["regret_term"], abs=1e-12)
        assert r["empirical_gen"] <= 1.0
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
