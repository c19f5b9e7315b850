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
from mixgame.cli import main
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


# sha256 of each sweep-delay file, recorded when bounds.sweep_delay still played
# the games: CI's grid config, its ftrl-sqnorm copy and a copy on the default grid.
# The copies share bytes, since no column depends on the learner played.  The csv
# and json digests were re-recorded when the Gibbs comparator became an
# ``ewa_step`` softmax: its KL and gap moved, no value by more than 1.1e-14.
GRID = {"process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
        "experiment": {"n": 100, "seed": 5, "d_grid": [1, 2, 4]}}
FROZEN_SWEEP_DIGESTS = {
    "grid": {
        "sweep.csv": "6d43e7116955cf87bd51a3d770dc4f4c9e84b9f60df6cb50e20853d390b6ef17",
        "sweep.json": "490534ce492d23154ff2c4a820a5e66a74962b382db5601458f9d64ae30dd5f5",
        "sweep.svg": "a2128432ecf3833699dcc425eecc0c6d0ac29229b198c0f83b08f879fd62765b",
    },
    "ftrl-sqnorm": {
        "sweep.csv": "6d43e7116955cf87bd51a3d770dc4f4c9e84b9f60df6cb50e20853d390b6ef17",
        "sweep.json": "490534ce492d23154ff2c4a820a5e66a74962b382db5601458f9d64ae30dd5f5",
        "sweep.svg": "a2128432ecf3833699dcc425eecc0c6d0ac29229b198c0f83b08f879fd62765b",
    },
    "default-grid": {
        "sweep.csv": "c81ccf8098fc3e604b1d9159b29108d1c8496e2a059770618dcc7e2b6e9e1a6c",
        "sweep.json": "a5be7ad6278f90c1f48782711c6ea558e6790d482d55dccd9a3ee9728fd1541c",
        "sweep.svg": "29990ced701c7b1034dd2323e487defb99a071adca02d4fd8488f749df787969",
    },
}


@pytest.mark.parametrize("name", FROZEN_SWEEP_DIGESTS)
def test_sweep_delay_bytes_frozen(tmp_path, name):
    doc = json.loads(json.dumps(GRID))
    if name == "ftrl-sqnorm":
        doc["online"]["algorithm"] = "ftrl-sqnorm"
    elif name == "default-grid":
        del doc["experiment"]["d_grid"]
    out = tmp_path / "out"
    assert main(["sweep-delay", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in FROZEN_SWEEP_DIGESTS[name]} == FROZEN_SWEEP_DIGESTS[name]


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
    assert main([command, "--config", write_config(tmp_path, doc),
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
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config field 'learner.beta'" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, name", [
    ("bounds", {"bounds": {"n": 1, "delta": 0.1, "phi_d": 1e308, "d": 1,
                           "regret": 1e308}}, "bounds.json"),
    ("simulate", dict(static_config(n=50), online={"eta": 1e-320}), "summary.json"),
])
def test_a_non_finite_json_value_exits_3_naming_the_file(tmp_path, capsys, command,
                                                         doc, name):
    # regret/n + phi_d, and the a-priori regret from kl / eta, overflow to inf;
    # JSON has no token for it
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 3
    assert str(out / name) in capsys.readouterr().err
    assert not out.exists()  # the JSON file is written first, and not at all


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
