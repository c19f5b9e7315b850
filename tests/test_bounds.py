import json
import math

import numpy as np
import pytest

from mixgame import (HypothesisSpace, MixingProfile, ValidationError,
                     delay_bound, delayed_regret_bound, deviation_term,
                     gibbs_posterior, sample_path, sweep_delay,
                     tune_delay_algebraic, tune_delay_geometric, tuned_bound,
                     two_state_chain)
from mixgame.cli import main


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
    assert rep.phi_term == pytest.approx(0.001, abs=1e-15)
    assert rep.deviation_term == pytest.approx(0.2979372522115134, abs=1e-12)
    assert rep.total == pytest.approx(0.2989372522115134, abs=1e-12)


def test_algebraic_bound_frozen():
    rep = tuned_bound(MixingProfile("algebraic", C=1.0, r=1.0), n=1000,
                      delta=0.05, regret=no_regret)
    assert rep.tag == "algebraic" and rep.d == 10
    assert rep.total == pytest.approx(0.2730818382602286, abs=1e-12)
    # the rate C (1 + sqrt(ln(1/delta))) n^(-r/(1+2r))
    assert rep.total == pytest.approx(
        (1.0 + math.sqrt(math.log(20))) * 1000 ** (-1 / 3), abs=1e-15)


def test_ewa_geometric_bound_frozen():
    rep = tuned_bound(geometric(), n=10**4, delta=0.05,
                      regret=lambda d: delayed_regret_bound(math.log(2), 0.1,
                                                            d, 10**4),
                      tag_prefix="ewa-")
    assert rep.tag == "ewa-geometric"
    assert rep.regret_term == pytest.approx(0.06316979643063896, abs=1e-12)
    assert rep.phi_term == pytest.approx(1e-4, abs=1e-15)
    assert rep.deviation_term == pytest.approx(0.10786951383875487, abs=1e-12)
    assert rep.total == pytest.approx(0.17113931026939383, abs=1e-12)


def test_ftrl_geometric_bound_frozen():
    rep = tuned_bound(geometric(), n=10**4, delta=0.05,
                      regret=lambda d: delayed_regret_bound(
                          0.5, 0.1, d, 10**4, alpha=1.0, B=1.0),
                      tag_prefix="ftrl-")
    assert rep.tag == "ftrl-geometric"
    assert rep.regret_term == pytest.approx(0.0595, abs=1e-12)
    assert rep.total == pytest.approx(0.16746951383875486, abs=1e-12)


def test_tuned_delays_frozen_and_clamped():
    assert tune_delay_geometric(2.0, 1000) == 14
    assert tune_delay_algebraic(1.0, 1.0, 1000) == 10
    assert tune_delay_geometric(0.0001, 50) == 1
    assert tune_delay_geometric(1000.0, 50) == 50


def test_algebraic_main_term_log_log_slope():
    for r in (0.5, 1.0, 2.0):
        profile = MixingProfile("algebraic", C=1.0, r=r)
        v1 = tuned_bound(profile, 10**4, 0.05, no_regret).total
        v2 = tuned_bound(profile, 10**6, 0.05, no_regret).total
        slope = (math.log(v2) - math.log(v1)) / (math.log(10**6)
                                                 - math.log(10**4))
        assert slope == pytest.approx(-r / (1 + 2 * r), abs=1e-12)


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


def test_sweep_delay_rows_are_consistent():
    model = two_state_chain(0.25, 0.25)
    space = HypothesisSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = sample_path(model, 200, seed=5)
    rows = sweep_delay(model, space, path, gibbs_posterior(space, path, 1.0),
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
