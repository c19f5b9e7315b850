import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixgame import (HypothesisSpace, build_markov, erm, limit_test_losses,
                     sample_path)
from mixgame.cli import build_parser, main
from mixgame.learner import _MAX_AXES


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def static_config(**experiment):
    exp = {"n": 50, "replicates": 2, "delta": 0.1, "seed": 3, "d_max": 8}
    exp.update(experiment)
    return {
        "process": {"transition": [[0.75, 0.25], [0.25, 0.75]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
        "experiment": exp,
    }


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_summary(tmp_path):
    cfg = write_config(tmp_path, static_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert rows[0][:5] == ["replicate", "seed", "gen", "regret_over_n",
                           "martingale"]
    assert len(rows) == 3
    assert (out / "bound_reports.csv").exists()


def test_simulate_json_format(tmp_path):
    cfg = write_config(tmp_path, static_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["rows"]) == 2


def test_simulate_phi_of_memory1_loss_equals_static_table(tmp_path):
    # a memory-1 table loss is the static loss; the bound must take the same
    # side of the gap (limit minus conditional) for both
    table = [[0.0, 1.0], [0.7, 0.2]]
    static = static_config()
    static["process"]["transition"] = [[0.9, 0.1], [0.3, 0.7]]
    static["loss"] = {"losses": table}
    memory = dict(static, loss={"kind": "memory-table", "m": 1, "table": table})
    phi = []
    for name, doc in (("static", static), ("memory", memory)):
        cfg = write_config(tmp_path, doc, f"{name}.json")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
        rows = read_csv(tmp_path / name / "summary.csv")
        col = rows[0].index("phi_d")
        phi.append([float(r[col]) for r in rows[1:]])
    assert len(phi[0]) == 2
    np.testing.assert_allclose(phi[1], phi[0], rtol=0, atol=1e-15)


def test_a_one_state_discounted_loss_runs(tmp_path):
    # a one-symbol alphabet has one block of each length, so the default
    # horizon of its limit is the longest block numpy's axis limit allows,
    # not a division by log(1)
    doc = dict(static_config(), process={"transition": [[1.0]]},
               loss={"kind": "discounted", "gamma": 0.9, "scale": 0.05,
                     "g_table": [[0.5], [0.7]]})
    cfg = write_config(tmp_path, doc)
    for command in ("simulate", "coverage"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0
    rows = read_csv(tmp_path / "simulate" / "summary.csv")
    assert len(rows) == 3


@pytest.mark.skipif(_MAX_AXES < 64, reason="numpy 1 has no 33-axis array")
@pytest.mark.parametrize("m, code", [(33, 0), (63, 2)])
def test_a_deep_loss_table_runs_or_exits_2_naming_it(tmp_path, capsys, m, code):
    # a list nested past 32 levels is read without numpy's 32-axis iterator;
    # a table of 63 symbol axes leaves window_expectations no axis to add
    table = 0.5
    for _ in range(m):
        table = [table]
    doc = dict(static_config(), process={"transition": [[1.0]]},
               loss={"kind": "memory-table", "m": m, "table": [table, table]})
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    if code:
        assert "config field 'loss.table'" in capsys.readouterr().err


def test_simulate_applies_the_learner_to_a_memory_table_loss(tmp_path):
    # every loss takes its comparator from learner.kind, and that posterior's
    # KL to the uniform prior gives the a-priori report
    doc = static_config()
    doc["loss"] = {"kind": "memory-table", "m": 2,
                   "table": [[[0.4, 0.6], [0.5, 0.5]], [[0.5, 0.45], [0.55, 0.5]]]}
    outs = {}
    for kind in ("gibbs", "erm"):
        doc["learner"] = {"kind": kind, "beta": 1.0}
        outs[kind] = tmp_path / kind
        assert main(["simulate", "--config", write_config(tmp_path, doc, f"{kind}.json"),
                     "--out", str(outs[kind])]) == 0
        tags = [row[0] for row in read_csv(outs[kind] / "bound_reports.csv")[1:]]
        assert tags == ["delay-realized", "delay-apriori"]
    assert (outs["gibbs"] / "summary.csv").read_bytes() \
        != (outs["erm"] / "summary.csv").read_bytes()


def test_coverage_modes(tmp_path):
    cfg = write_config(tmp_path, static_config(replicates=5))
    for mode in ("mn", "gen"):
        out = tmp_path / f"out-{mode}"
        assert main(["coverage", "--config", cfg, "--out", str(out),
                     "--mode", mode]) == 0
        rows = read_csv(out / "coverage.csv")
        assert len(rows) == 6
        summary = json.loads((out / "coverage_summary.json").read_text())
        assert summary["mode"] == mode
        assert 0.0 <= summary["violation_rate"] <= 1.0


def test_sweep_delay_outputs_table_and_plot(tmp_path):
    doc = static_config()
    doc["experiment"]["d_grid"] = [1, 2, 4]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep-delay", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == ["d", "phi_term", "deviation_term", "regret_term",
                       "total_bound", "empirical_gen"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "4"]
    svg = (out / "sweep.svg").read_text()
    assert svg.count("<polyline") == 2


# sha256 of each file a subcommand writes, per (subcommand, config).  The
# sweep-delay digests were recorded when bounds.sweep_delay still played the
# games, on CI's grid config, its ftrl-sqnorm copy and a copy on the default
# grid; the copies share bytes, since no column depends on the learner played.
# Their csv and json digests were re-recorded when the Gibbs comparator became
# an ``ewa_step`` softmax: its KL and gap moved, no value by more than 1.1e-14.
# The simulate runs (CI's memory-2 config, with EWA and with FTRL-sqnorm) and
# the bounds run (every row kind) pin the bound rows and their CSV header order.
# The two Monte-Carlo simulate runs were recorded when dynamic_phi_mc walked
# every row 64 symbols back: the memory-2 config at delay 1 reads no reversed
# symbol, and CI's memory-3 config at delay 1 reads one.  The W = 9 simulate
# runs (CI's wide config at n = 300 and, at delay 1, at n = 1, with EWA and with
# FTRL-sqnorm) pin the index order of every sum over hypotheses: from 8
# hypotheses on, numpy's pairwise sum gives other bits.  The coverage runs pin
# the loss-row gather: CI's flip-0.05 chain at n = 100 and delay 7 (most steps
# skipped by the walk, and a partial last block of rounds) and the memory-3
# table; the mixing run pins a 3-state phi_d table and its fits.
GRID = {"process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
        "experiment": {"n": 100, "seed": 5, "d_grid": [1, 2, 4]}}
MEMORY2 = {"process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
           "loss": {"kind": "memory-table", "m": 2,
                    "table": [[[0.4, 0.6], [0.5, 0.5]], [[0.5, 0.45], [0.55, 0.5]]]},
           "learner": {"kind": "erm"},
           "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
           "experiment": {"n": 200, "replicates": 2, "delta": 0.1, "seed": 5}}
MEMORY3 = {"process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
           "loss": {"kind": "memory-table", "m": 3,
                    "table": np.random.default_rng(0).random((2, 2, 2, 2)).tolist()},
           "online": {"delay": 1},
           "experiment": {"n": 200, "replicates": 2, "seed": 5}}
SQNORM = {"online": {"algorithm": "ftrl-sqnorm", "eta": 0.3, "delay": 2}}
WIDE = {"process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
        "loss": {"losses": np.random.default_rng(9).random((9, 2)).tolist()},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 4},
        "experiment": {"n": 300, "replicates": 3, "seed": 5}}
FLIP = {"process": {"transition": [[0.95, 0.05], [0.05, 0.95]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 7},
        "experiment": {"n": 100, "replicates": 3, "seed": 5}}
MIXING3 = {"process": {"transition": [[0.6, 0.3, 0.1], [0.2, 0.7, 0.1],
                                      [0.3, 0.2, 0.5]]},
           "loss": {"losses": [[0.1, 0.9, 0.4], [0.8, 0.2, 0.5]]},
           "experiment": {"n": 1000}}
WIDE_N1 = {**WIDE, "online": {**WIDE["online"], "delay": 1},
           "experiment": {**WIDE["experiment"], "n": 1}}


def ftrl_sqnorm(doc):
    return {**doc, "online": {**doc["online"], "algorithm": "ftrl-sqnorm"}}


GRID_FILES = {
    "sweep.csv": "6d43e7116955cf87bd51a3d770dc4f4c9e84b9f60df6cb50e20853d390b6ef17",
    "sweep.json": "490534ce492d23154ff2c4a820a5e66a74962b382db5601458f9d64ae30dd5f5",
    "sweep.svg": "a2128432ecf3833699dcc425eecc0c6d0ac29229b198c0f83b08f879fd62765b",
}
FROZEN_RUNS = {  # id -> (subcommand and flags, config, the sha256 of each file it writes)
    "sweep-delay-grid": ("sweep-delay", GRID, GRID_FILES),
    "sweep-delay-ftrl-sqnorm": ("sweep-delay", {**GRID, **SQNORM}, GRID_FILES),
    "sweep-delay-default-grid": (
        "sweep-delay", {**GRID, "experiment": {"n": 100, "seed": 5}}, {
            "sweep.csv": "c81ccf8098fc3e604b1d9159b29108d1c8496e2a059770618dcc7e2b6e9e1a6c",
            "sweep.json": "a5be7ad6278f90c1f48782711c6ea558e6790d482d55dccd9a3ee9728fd1541c",
            "sweep.svg": "29990ced701c7b1034dd2323e487defb99a071adca02d4fd8488f749df787969",
        }),
    "simulate-memory2-ewa": ("simulate", MEMORY2, {
        "summary.json": "2b866e2dd8fef680b5ca4328734fc7d03aa0f0c335279aedea3be0dcd72edf6b",
        "summary.csv": "2a4d34b0a28645019397fb9089df2d94303403ae069a88a8ea9d7ad481f61e49",
        "bound_reports.csv": "5de61d17afff72bd72b48ae439f02e8fb7bc6ca7cc82738457b05a8261634a64",
    }),
    "simulate-memory2-ftrl-sqnorm": ("simulate", {**MEMORY2, **SQNORM}, {
        "summary.json": "a5a9ba8bfa4c9cd53acfcb45666cd38d2632e9484fa2cc615770c1ea356d614c",
        "summary.csv": "0cc9b6bcf234f01f3f81e52104efacfe3055021bdc79a0114e0c96cf33fcd7bf",
        "bound_reports.csv": "4c66f25f6d42ba322d14dc21c08bdbd5776ac22a542106ef010d08274bf464e3",
    }),
    "simulate-memory2-mc": ("simulate", {
        **MEMORY2, "online": {"algorithm": "ewa", "eta": 0.3, "delay": 1}}, {
        "summary.json": "34616db44ed902426f216c831549cda2dfdbb8305605f0913dcb398ad381190c",
        "summary.csv": "b1c86cd91e836a13d6497877771951511c9e6873cf264f92b86de708f83a4940",
        "bound_reports.csv": "42fa669ac73a15d078be9298966f9071d55ab4cbb5cc75932e54942e03017262",
    }),
    "simulate-memory3-mc": ("simulate", MEMORY3, {
        "summary.json": "63fc77559b5ed5d5e19dcf214637617e90cfb4a621304483e773e336b4eeeebb",
        "summary.csv": "dd34b00c8ec1c6e31bb421149db6f67fa971b6434904575b7d4cab0e6174d817",
        "bound_reports.csv": "6bbea894d27781a25ad347bdb71e16be2c4b9b199282b7709beeddc6b9612486",
    }),
    "simulate-wide-ewa": ("simulate", WIDE, {
        "summary.json": "4de3b1599ca0cf99c922f53459af28c16cfd4b45db970ee519c4c353a2f9035a",
        "summary.csv": "dff92ef3f11e6117c64c4cddc039eae10d475add89909a7c5c8102aa2f5890e1",
        "bound_reports.csv": "bdc5b984853c2628be1aee76a2f4a9c2e36881ca2e7f5068049441af48e806ec",
    }),
    "simulate-wide-ftrl-sqnorm": ("simulate", ftrl_sqnorm(WIDE), {
        "summary.json": "3cba84ccbc30d527d6c765e03282ead5d9d582878b16ede05078a0202fb2952e",
        "summary.csv": "d2ca36f4c54e1a458c3dd49c708f5cdfbc208aeb0d0b5eac577513e8a9ada7e6",
        "bound_reports.csv": "b6719e0dd4f82a0505da8bd3749af652654eb4127a652b25432b4ba6c52b00e3",
    }),
    "simulate-wide-n1-ewa": ("simulate", WIDE_N1, {
        "summary.json": "091f2092e2f53e743cece7a328442caba55b2aa84dc0351b0f0b191e7ecd414a",
        "summary.csv": "189852dade5f8299558a2eec8cc68d260951d88498390c98889ffd348da83a24",
        "bound_reports.csv": "d688bea047657831268bdee1609c520ce9732a75f72681a1858f323465504701",
    }),
    "simulate-wide-n1-ftrl-sqnorm": ("simulate", ftrl_sqnorm(WIDE_N1), {
        "summary.json": "14d7af65da918a0f94330d3b55494eb2ca0e8c9a8b1d50a929189f473183d3cc",
        "summary.csv": "6613b1361475b81cde29ca42777c90be76dd7c7ac039630835af45b0a81953ce",
        "bound_reports.csv": "b1f4f6057fbff77105921d58899ad48182b4c913cf6fd3753272d276fb02b1d3",
    }),
    "coverage-flip-gen": ("coverage --mode gen", FLIP, {
        "coverage.csv": "feb87007adef3b82604f7171395e8cd36e36dd6e18faa72163213f05a4215f5d",
        "coverage_summary.json": "09a77539d1574538c9f72450b0cbdb39ce79fd9bf9614c016d0e869e9c01420f",
    }),
    "coverage-memory3-gen": ("coverage --mode gen", MEMORY3, {
        "coverage.csv": "23527175b9ec6deabb435a2af7717754611b7cd5d5d8705ee52a2eba9c42aaed",
        "coverage_summary.json": "11120413885c526c815d982f6414112a334bb67c2ae7e92e40672a009e6ab7ee",
    }),
    "mixing-3-state": ("mixing", MIXING3, {
        "mixing.csv": "2b38b8a91a0891b9d741bf28db45e2cba8f5dfe287c62751f4c15333ace4553d",
        "mixing_fits.json": "b6089398e5b4189a8d462fd9655dcc337335be9125f599a19d2cf95e2032649a",
    }),
    "bounds-every-row": ("bounds", {"bounds": {
        "n": 1000, "delta": 0.05, "phi_d": 0.05, "d": 4, "tau": 2.0, "r": 1.0,
        "kl": 0.5, "h_gap": 0.7, "eta": 0.1}}, {
        "bounds.json": "716bc29e8bbd89fc18bfda33dede07fcb8d68db4b71cd2c0fda5b43d263cdc0a",
        "bounds.csv": "2b710f71a518c929b0ab57d06a84689ed451f1702e95770ec8ebb9dc03dfde59",
    }),
}


@pytest.mark.parametrize("name", FROZEN_RUNS)
def test_output_bytes_frozen(tmp_path, name):
    command, doc, digests = FROZEN_RUNS[name]
    out = tmp_path / "out"
    assert main([*command.split(), "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in digests} == digests


def test_one_process_runs_main_twice_with_no_flag_carried_over(tmp_path):
    # the parser is built once per process; each call parses a fresh namespace
    assert build_parser() is build_parser()
    _, doc, digests = FROZEN_RUNS["sweep-delay-grid"]
    grid, memory = write_config(tmp_path, doc), write_config(tmp_path, MEMORY2, "m.json")
    runs = [("sweep-delay", grid, "--seed", "111"), ("coverage", memory, "--mode", "gen"),
            ("sweep-delay", grid), ("coverage", memory)]
    outs = [tmp_path / f"out-{i}" for i in range(len(runs))]
    for (command, cfg, *flags), out in zip(runs, outs):
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
    sweeps = [{f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
              for out in outs[::2]]
    assert sweeps[0] != digests and sweeps[1] == digests  # the config's seed again
    assert [json.loads((out / "coverage_summary.json").read_text())["mode"]
            for out in outs[1::2]] == ["gen", "mn"]


def test_sweep_delay_honours_learner_kind(tmp_path):
    rows = {}
    for kind in ("gibbs", "erm"):
        doc = static_config(n=200, d_grid=[1, 2, 4])
        doc["learner"] = {"kind": kind, "beta": 1.0}
        cfg = write_config(tmp_path, doc, f"{kind}.json")
        assert main(["sweep-delay", "--config", cfg,
                     "--out", str(tmp_path / kind)]) == 0
        rows[kind] = read_csv(tmp_path / kind / "sweep.csv")
    assert rows["gibbs"] != rows["erm"]
    # erm's gap is the gap of the ERM Dirac on the master seed's path
    model = build_markov(doc["process"]["transition"])
    space = HypothesisSpace(np.array(doc["loss"]["losses"]))
    loss_rows = space.loss_rows(sample_path(model, 200, seed=3).symbols)
    gap = erm(loss_rows.mean(axis=0)) @ (limit_test_losses(space, model)[0]
                                         - loss_rows.mean(axis=0))
    for row in rows["erm"][1:]:
        assert float(row[5]) == pytest.approx(gap, abs=1e-12)


def test_mixing_outputs(tmp_path):
    cfg = write_config(tmp_path, static_config())
    out = tmp_path / "out"
    assert main(["mixing", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "mixing.csv")
    assert rows[0] == ["d", "phi"]
    assert float(rows[1][1]) == 0.25
    fits = json.loads((out / "mixing_fits.json").read_text())
    assert fits["fits"]["geometric"]["tau"] > 0


def test_bounds_command(tmp_path):
    doc = static_config()
    doc["bounds"] = {"n": 1000, "delta": 0.05, "tau": 2.0, "C": 1.0,
                     "kl": float(np.log(2)), "eta": 0.1, "r": 1.0}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "bounds.csv")
    assert rows[0] == ["tag", "n", "d", "delta", "regret_term", "phi_term",
                       "deviation_term", "total"]
    assert [row[0] for row in rows[1:]] == ["ewa-geometric", "ewa-algebraic"]


def test_dynamic_command(tmp_path):
    # the memory config of the CI console-script step, on an asymmetric chain
    doc = dict(static_config(), process={"transition": [[0.8, 0.2], [0.3, 0.7]]})
    doc["loss"] = {"kind": "memory-table", "m": 2,
                   "table": [[[0.4, 0.6], [0.5, 0.5]], [[0.5, 0.45], [0.55, 0.5]]]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["dynamic", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = read_csv(out / "dynamic_phi_check.csv")
    assert header == ["d", "d_half", "phi_dynamic", "forgetting_2B",
                      "block_beta", "rhs", "ok"]
    assert [r[0] for r in rows] == [str(d) for d in range(2, 21, 2)]
    assert all(r[header.index("ok")] == "1" for r in rows)


def test_negative_seed_reads_modulo_2_64(tmp_path):
    sweep = static_config(d_grid=[1, 2, 4])
    # a memory-2 loss at delay 1 takes phi_d from the Monte-Carlo estimate,
    # which is seeded with the master seed
    memory = dict(static_config(), online={"algorithm": "ewa", "eta": 0.3,
                                           "delay": 1})
    x = [[0.0, 1.0], [1.0, 0.0]]
    memory["loss"] = {"kind": "memory-table", "m": 2,
                      "table": [x, [[1.0, 0.0], [0.0, 1.0]]]}
    for command, doc in [("sweep-delay", sweep), ("simulate", memory)]:
        cfg = write_config(tmp_path, doc, f"{command}.json")
        outs = [tmp_path / f"{command}-neg", tmp_path / f"{command}-wrapped"]
        for seed, o in zip(["-1", str(2**64 - 1)], outs):
            assert main([command, "--config", cfg, "--out", str(o),
                         "--seed", seed]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, static_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1),
                 "--seed", "111"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2),
                 "--seed", "222"]) == 0
    assert (out1 / "summary.csv").read_bytes() \
        != (out2 / "summary.csv").read_bytes()


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    # a config file that cannot be read exits 2 naming the file and the reason
    for path, reason in [(tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config file {str(path)!r}: {reason}" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config file {str(bad)!r}" in capsys.readouterr().err
    doc = static_config()
    doc["experiment"]["n"] = 0
    cfg = write_config(tmp_path, doc, "invalid.json")
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    # each bad field exits 2 with a message that names it
    auto = {"algorithm": "ewa", "eta": 0.3, "delay": "auto-geometric"}
    bad_docs = [
        ("simulate", static_config(n="abc"), "experiment.n"),
        ("simulate", dict(static_config(), online={"delay": True}), "online.delay"),
        # exponential weights is entropic FTRL, so that name selects nothing
        ("simulate", dict(static_config(), online={"algorithm": "ftrl-entropy"}),
         "online.algorithm"),
        ("simulate", dict(static_config(d_max=0), online=auto), "experiment.d_max"),
        ("simulate", dict(static_config(d_max=2), online=auto), "experiment.d_max"),
        # n below d_max cut the table
        ("simulate", dict(static_config(n=1), online=auto), "experiment.n"),
        ("simulate", dict(static_config(n=2), online=auto), "experiment.n"),
        ("bounds", {"bounds": {"delta": 0.1}}, "bounds.n"),
        # kl feeds the phi_d row, which then needs eta; a key no row reads
        # is range-checked too
        ("bounds", {"bounds": {"n": 100, "delta": 0.1, "phi_d": 0.05, "d": 4,
                               "kl": 0.5}}, "bounds.eta"),
        ("bounds", {"bounds": {"n": 100, "delta": 0.1, "phi_d": 0.05, "d": 4,
                               "alpha": "x"}}, "bounds.alpha"),
        # no phi_d and no decay rate: no row to write
        ("bounds", {"bounds": {"n": 100, "delta": 0.1}}, "bounds"),
        ("bounds", {"bounds": {"n": 100, "delta": 0.1, "phi_d": 0.05, "d": 101}},
         "bounds.d"),
        ("bounds", {"bounds": {"n": 100, "delta": 0.1, "phi_d": 0.05}}, "bounds.d"),
        ("mixing", static_config(d_max=1), "experiment.d_max"),
        ("mixing", static_config(d_max=2), "experiment.d_max"),
        # integers beyond the 10**9 ceiling
        ("bounds", {"bounds": {"n": 10**400, "delta": 0.1, "tau": 2.0}}, "bounds.n"),
        ("simulate", static_config(n=10**400), "experiment.n"),
        ("simulate", static_config(replicates=10**400), "experiment.replicates"),
        ("simulate", dict(static_config(d_max=10**400), online=auto),
         "experiment.d_max"),
    ]
    x = [[0.0, 1.0], [1.0, 0.0]]
    dynamic_losses = [{"kind": "memory-table", "m": 2, "table": [x, x]},
                      {"kind": "discounted", "gamma": 0.9, "scale": 0.1,
                       "g_table": x}]
    # the commands that need phi_d at every lag refuse a non-static loss
    bad_docs += [(command, dict(static_config(), loss=loss), "loss")
                 for command in ("mixing", "sweep-delay") for loss in dynamic_losses]
    for loss in dynamic_losses:
        for key in [k for k in loss if k != "kind"]:
            partial = {k: v for k, v in loss.items() if k != key}
            bad_docs.append(("simulate", dict(static_config(), loss=partial),
                             f"loss.{key}"))
    capsys.readouterr()
    for i, (command, doc, field) in enumerate(bad_docs):
        cfg = write_config(tmp_path, doc, f"bad-{i}.json")
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config field {field!r}" in capsys.readouterr().err
    # --seed names a malformed root or experiment section as the config does
    for i, (doc, field) in enumerate([([], "<root>"),
                                      (dict(static_config(), experiment=5),
                                       "experiment")]):
        cfg = write_config(tmp_path, doc, f"seeded-{i}.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "1"]) == 2
        assert f"config field {field!r}" in capsys.readouterr().err


# subcommand -> the files it writes into --out
OUTPUT_FILES = {
    "simulate": ["bound_reports.csv", "summary.csv", "summary.json"],
    "coverage": ["coverage.csv", "coverage_summary.json"],
    "sweep-delay": ["sweep.csv", "sweep.json", "sweep.svg"],
    "mixing": ["mixing.csv", "mixing_fits.json"],
    "bounds": ["bounds.csv", "bounds.json"],
    "dynamic": ["dynamic_phi_check.csv"],
}


@pytest.mark.parametrize("command, files", OUTPUT_FILES.items())
def test_each_subcommand_writes_its_file_set_and_reads_only_its_flags(
        tmp_path, capsys, command, files):
    doc = static_config(d_grid=[2, 4])
    doc["bounds"] = {"n": 1000, "delta": 0.05, "tau": 2.0}
    argv = [command, "--config", write_config(tmp_path, doc)]
    argv += ["--mode", "gen"] if command == "coverage" else []
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == files
    bad_flags = [["--format", "json"]]  # no subcommand takes it
    # bounds reads no experiment section; mixing and dynamic compute exact
    # tables; none of the three reads a seed
    if command in ("bounds", "mixing", "dynamic"):
        bad_flags.append(["--seed", "1"])
    for flags in bad_flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "bad")] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", OUTPUT_FILES)
def test_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys,
                                                            command):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config file {str(cfg)!r}" in capsys.readouterr().err


X = [[0.0, 1.0], [1.0, 0.0]]
MEMORY_LOSS = {"kind": "memory-table", "m": 2, "table": [X, X]}
DISCOUNTED_LOSS = {"kind": "discounted", "gamma": 0.9, "scale": 0.1, "g_table": X}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("loss, field, value", [
    (None, "process.transition", "abc"),
    (None, "process.transition", [[0.75, 0.25], [0.25]]),
    (None, "process.transition", [[0.75, {"p": 0.25}], [0.25, 0.75]]),
    (None, "process.transition", [[NAN, 0.25], [0.25, 0.75]]),
    (None, "loss.losses", "abc"),
    (None, "loss.losses", [[0.0, 1.0], [1.0]]),
    (None, "loss.losses", [[NAN, 1.0], [1.0, 0.0]]),
    (MEMORY_LOSS, "loss.table", "abc"),
    (MEMORY_LOSS, "loss.table", [[[NAN, 1.0], [1.0, 0.0]], X]),
    (MEMORY_LOSS, "loss.m", "2"),
    (MEMORY_LOSS, "loss.m", True),
    (DISCOUNTED_LOSS, "loss.g_table", [[0.0, 1.0], [1.0]]),
    (DISCOUNTED_LOSS, "loss.g_table", [[NAN, 1.0], [1.0, 0.0]]),
    (DISCOUNTED_LOSS, "loss.gamma", "0.9"),
    (DISCOUNTED_LOSS, "loss.scale", INF),
    (DISCOUNTED_LOSS, "loss.scale", True),
    # readable arrays that their constructor refuses, and scalars out of range
    (None, "process.transition", [0.5, 0.5]),
    (None, "process.transition", [[0.5, 0.6], [0.5, 0.5]]),
    (None, "loss.losses", [X, X]),
    (None, "loss.losses", [[0.0, 1.5], [1.0, 0.0]]),
    (MEMORY_LOSS, "loss.table", X),
    (MEMORY_LOSS, "loss.m", 0),
    (DISCOUNTED_LOSS, "loss.g_table", [0.0, 1.0]),
    (DISCOUNTED_LOSS, "loss.gamma", 1.0),
    (DISCOUNTED_LOSS, "loss.scale", 0.0),
])
def test_bad_array_and_dynamic_loss_fields_exit_2(tmp_path, capsys, loss, field,
                                                  value):
    doc = static_config()
    if loss is not None:
        doc["loss"] = dict(loss)
    section, key = field.split(".")
    doc[section][key] = value
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, experiment, loss, field", [
    # an entry below 2, and a memory-3 loss on the default grid 2..20
    ("dynamic", {"d_grid": [1, 2]}, MEMORY_LOSS, "experiment.d_grid"),
    ("dynamic", {}, {"kind": "memory-table", "m": 3, "table": [[X, X], [X, X]]},
     "experiment.d_grid"),
    # an entry above n = 50
    ("sweep-delay", {"d_grid": [1, 2, 51]}, None, "experiment.d_grid[2]"),
])
def test_a_bad_delay_grid_exits_2_naming_its_field(tmp_path, capsys, command,
                                                    experiment, loss, field):
    doc = static_config(**experiment)
    if loss is not None:
        doc["loss"] = loss
    assert main([*command.split(), "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["ewa", "ftrl-sqnorm"])
def test_an_overflowing_learner_exits_3_naming_the_round(tmp_path, capsys,
                                                         algorithm):
    # the closed form of wrapped EWA and the game loop of FTRL pass one check
    doc = static_config()
    doc["online"] = {"algorithm": algorithm, "eta": 1e308, "delay": 2}
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "o")]) == 3
    assert "non-simplex play at round" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "coverage", "sweep-delay"])
def test_an_overflowing_beta_exits_2_naming_its_field(tmp_path, capsys, command):
    # beta * n overflows, so every Gibbs log-weight is -inf
    doc = static_config()
    doc["loss"] = {"losses": [[0.1, 1.0], [1.0, 0.1]]}
    doc["learner"] = {"kind": "gibbs", "beta": 1e308}
    assert main([*command.split(), "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config field 'learner.beta'" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, name", [
    ("bounds", {"bounds": {"n": 1, "delta": 0.1, "phi_d": 1e308, "d": 1,
                           "regret": 1e308}}, "bounds.json"),
])
def test_a_non_finite_json_value_exits_3_naming_the_file(tmp_path, capsys, command,
                                                         doc, name):
    # regret/n + phi_d overflows to inf; JSON has no token for it
    out = tmp_path / "out"
    assert main([*command.split(), "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 3
    assert str(out / name) in capsys.readouterr().err
    assert not out.exists()  # the JSON file is written first, and not at all


@pytest.mark.parametrize("command", ["simulate", "coverage", "sweep-delay"])
def test_an_overflowing_eta_exits_2_naming_its_field(tmp_path, capsys, command):
    # the a-priori regret kl / eta overflows to inf; coverage computes the
    # bound rows too, as it is a column view of simulate's run
    doc = dict(static_config(n=50), online={"eta": 1e-320})
    out = tmp_path / "out"
    assert main([*command.split(), "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert "config field 'online.eta'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", [
    {"kl": 1e308, "eta": 1e-300, "tau": 2},  # kl / eta
    {"kl": 0.5, "eta": 5e-324, "tau": 2},  # kl / eta, from eta alone
    {"h_gap": 0.5, "eta": 1.797693134862316e306, "r": 1.0},  # eta * n
])
def test_an_overflowing_a_priori_regret_exits_2_naming_bounds(tmp_path, capsys,
                                                              bounds):
    # the regret reads bounds fields only, so its overflow is the config's
    out = tmp_path / "out"
    doc = {"bounds": {"n": 100, "delta": 0.1, **bounds}}
    assert main(["bounds", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'bounds'" in err and "overflows the a-priori regret" in err
    assert not out.exists()


def test_exit_code_3_on_model_failure(tmp_path):
    doc = static_config()
    doc["process"]["transition"] = [[0.0, 1.0], [1.0, 0.0]]  # periodic
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3


def test_scipy_is_not_imported(tmp_path):
    cfg = write_config(tmp_path, static_config())
    code = ("import sys, mixgame.cli; "
            f"assert mixgame.cli.main(['simulate', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_running_out_of_memory_exits_3_naming_the_subcommand(tmp_path):
    # n = 10^9 asks numpy for an 8 GB path, past the child's 1 GiB of address
    # space, so nothing is allocated; one BLAS thread keeps numpy's import small
    cfg = write_config(tmp_path, static_config(n=10**9, replicates=1))

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "mixgame.cli", "simulate",
                           "--config", cfg, "--out", str(tmp_path / "out")],
                          env=env, preexec_fn=cap_address_space,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: simulate: ")
    assert "Traceback" not in done.stderr
