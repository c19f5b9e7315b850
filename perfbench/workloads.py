"""The benchmark workloads: generated configs, CLI arguments, sizes and output checks.

Each workload is one ``mixgame`` subcommand on a config generated from the
benchmark seed.  The seed goes only into the generated config; the program
sees nothing but the config file.  Each workload loads one layer heavily and
bypasses at least one other, so a change to one layer has a workload where
its gain must show and one where the prediction is "no change".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from mixgame.experiments import config_from_dict

TWO_STATE_FLIP_005 = [[0.95, 0.05], [0.05, 0.95]]
INDICATOR_LOSSES = [[0.0, 1.0], [1.0, 0.0]]
LAZY_EPS = 0.01

# Sizes.  Each call is kept short (0.1-0.3 s on a 2-core x86-64 host), so that
# a run makes close to a hundred calls and its median is steady.
COVERAGE_REPLICATES = 25
SWEEP_N = 150
SWEEP_CHAIN = [[0.8, 0.2], [0.2, 0.8]]   # mixes fast enough for a U-shaped sweep at n=150
SWEEP_DELAYS = [1, 2, 8]          # the sweep grid; the tuned delay is appended
SIMULATE_STATES, SIMULATE_MEMORY, SIMULATE_DELAY = 4, 3, 2   # delay < memory: Monte-Carlo phi
SIMULATE_N, SIMULATE_REPLICATES = 300, 2
MIXING_STATES, MIXING_HYPOTHESES, MIXING_D_MAX = 200, 50, 100


@dataclass(frozen=True)
class Case:
    """One generated input: the config document and what its outputs must satisfy."""

    doc: dict
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple                        # subcommand and flags, without --config/--out
    build: Callable[[int], Case]
    items: Callable[[dict], int]       # work items completed by one call
    item: str                          # what one item is
    check: Callable[[Path, Case], list]
    dominant: str                      # span predicted to dominate the traced run


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**32)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# --- coverage-gen ----------------------------------------------------------

def _coverage_build(seed: int) -> Case:
    doc = {
        "process": {"transition": TWO_STATE_FLIP_005},
        "loss": {"losses": INDICATOR_LOSSES},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": "auto-geometric"},
        "experiment": {"n": 2000, "replicates": COVERAGE_REPLICATES, "delta": 0.1,
                       "seed": int(_rng(seed).integers(2**31)), "d_max": 30},
    }
    delta, reps = 0.1, COVERAGE_REPLICATES
    return Case(doc, {"max_rate": delta + 3 * math.sqrt(delta * (1 - delta) / reps)})


def _coverage_check(out: Path, case: Case) -> list:
    problems = []
    reps = case.doc["experiment"]["replicates"]
    rows = _read_csv(out / "coverage.csv")
    if len(rows) != reps:
        return [f"coverage.csv has {len(rows)} rows, expected {reps}"]
    if [int(r["replicate"]) for r in rows] != list(range(reps)):
        problems.append("coverage.csv replicate column is not 0..R-1")
    violated = [r["violated"] == "1" for r in rows]
    if any((float(r["value"]) > float(r["bound"])) != v for r, v in zip(rows, violated)):
        problems.append("violated flags disagree with value > bound")
    if not _finite(r[k] for r in rows for k in ("value", "bound")):
        problems.append("non-finite value or bound")
    rate = sum(violated) / reps
    summary = json.loads((out / "coverage_summary.json").read_text())
    if summary.get("mode") != "gen" or summary.get("replicates") != reps:
        problems.append("coverage_summary.json has the wrong mode or replicate count")
    if abs(summary.get("violation_rate", -1.0) - rate) > 1e-12:
        problems.append("summary violation rate disagrees with the CSV")
    if rate > case.expect["max_rate"]:
        problems.append(f"violation rate {rate:.4f} exceeds delta + 3 sigma "
                        f"= {case.expect['max_rate']:.4f}")
    return problems


# --- sweep-delay -----------------------------------------------------------

def _sweep_build(seed: int) -> Case:
    doc = {
        "process": {"transition": SWEEP_CHAIN},
        "loss": {"losses": INDICATOR_LOSSES},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": "auto-geometric"},
        "experiment": {"n": SWEEP_N, "replicates": 1, "delta": 0.1,
                       "seed": int(_rng(seed).integers(2**31)), "d_max": 30},
    }
    # The last grid point is the delay the program itself tunes for this config.
    grid = SWEEP_DELAYS + [config_from_dict(doc).delay]
    doc["experiment"]["d_grid"] = grid
    return Case(doc, {"grid": grid})


def _sweep_check(out: Path, case: Case) -> list:
    problems = []
    rows = _read_csv(out / "sweep.csv")
    grid = case.expect["grid"]
    if [int(r["d"]) for r in rows] != grid:
        return [f"sweep.csv delays {[r['d'] for r in rows]} differ from {grid}"]
    cols = ("phi_term", "deviation_term", "regret_term", "total_bound", "empirical_gen")
    if not _finite(r[k] for r in rows for k in cols):
        return ["non-finite entry in sweep.csv"]
    totals = [float(r["total_bound"]) for r in rows]
    for r, total in zip(rows, totals):
        parts = float(r["phi_term"]) + float(r["deviation_term"]) + float(r["regret_term"])
        if abs(total - parts) > 1e-12 * max(1.0, abs(total)):
            problems.append(f"d={r['d']}: total_bound is not the sum of its terms")
    grid_part = totals[:-1]           # the fixed delays; the last entry is tuned
    k = int(np.argmin(grid_part))
    if not 0 < k < len(grid_part) - 1:
        problems.append(f"total bound is least at the grid end d={grid[k]}: "
                        "it does not fall and then rise")
    if any(b - a > 1e-12 for a, b in zip(grid_part[:k], grid_part[1:k + 1])):
        problems.append("total bound does not fall before the grid minimum")
    if any(a - b > 1e-12 for a, b in zip(grid_part[k:], grid_part[k + 1:])):
        problems.append("total bound does not rise after the grid minimum")
    if totals[-1] > 2.0 * grid_part[k]:
        problems.append(f"tuned d={grid[-1]} is {totals[-1] / grid_part[k]:.2f}x "
                        f"the grid minimum, above 2x")
    if (out / "sweep.svg").stat().st_size == 0:
        problems.append("sweep.svg is empty")
    return problems


# --- simulate-memory -------------------------------------------------------

def _random_chain(rng: np.random.Generator, states: int) -> list:
    T = rng.random((states, states)) + 0.5
    return (T / T.sum(axis=1, keepdims=True)).tolist()


def _simulate_build(seed: int) -> Case:
    rng = _rng(seed)
    doc = {
        "process": {"transition": _random_chain(rng, SIMULATE_STATES)},
        "loss": {"kind": "memory-table", "m": SIMULATE_MEMORY,
                 "table": rng.random((3,) + (SIMULATE_STATES,) * SIMULATE_MEMORY).tolist()},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ftrl-sqnorm", "eta": 0.1, "delay": SIMULATE_DELAY},
        "experiment": {"n": SIMULATE_N, "replicates": SIMULATE_REPLICATES, "delta": 0.1,
                       "seed": int(rng.integers(2**31))},
    }
    return Case(doc, {})


def _simulate_check(out: Path, case: Case) -> list:
    problems = []
    reps = case.doc["experiment"]["replicates"]
    rows = _read_csv(out / "summary.csv")
    if [int(r["replicate"]) for r in rows] != list(range(reps)):
        return [f"summary.csv has replicates {[r['replicate'] for r in rows]}, "
                f"expected one row per replicate 0..{reps - 1}"]
    cols = ("gen", "regret_over_n", "martingale", "phi_d", "mn_bound", "gen_bound")
    if not _finite(r[k] for r in rows for k in cols):
        return ["non-finite entry in summary.csv"]
    for r in rows:
        residual = float(r["gen"]) - float(r["regret_over_n"]) - float(r["martingale"])
        if abs(residual) > 1e-9:
            problems.append(f"replicate {r['replicate']}: gen != regret/n + M_n "
                            f"(residual {residual:.2e})")
    reports = _read_csv(out / "bound_reports.csv")
    if not reports:
        problems.append("bound_reports.csv is empty")
    for r in reports:
        terms = [float(r[k]) for k in ("regret_term", "phi_term", "deviation_term")]
        if not _finite(terms + [r["total"]]):
            problems.append(f"report {r['tag']}: non-finite bound")
        elif abs(float(r["total"]) - sum(terms)) > 1e-12:
            problems.append(f"report {r['tag']}: total is not the sum of its terms")
    return problems


# --- mixing-200 ------------------------------------------------------------

def _mixing_build(seed: int) -> Case:
    rng = _rng(seed)
    states, hypotheses, d_max = MIXING_STATES, MIXING_HYPOTHESES, MIXING_D_MAX
    pi = rng.random(states) + 0.5
    pi /= pi.sum()
    P = (1 - LAZY_EPS) * np.eye(states) + LAZY_EPS * np.outer(np.ones(states), pi)
    L = rng.random((hypotheses, states))
    # P^d = (1-eps)^d I + (1 - (1-eps)^d) 1 pi^T, so the worst gap is closed-form
    gap = float(np.max((L @ pi)[:, None] - L))
    phi = (1 - LAZY_EPS) ** np.arange(1, d_max + 1) * gap
    doc = {
        "process": {"transition": P.tolist()},
        "loss": {"losses": L.tolist()},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 1},
        "experiment": {"n": 2000, "replicates": 1, "delta": 0.1,
                       "seed": int(rng.integers(2**31)), "d_max": d_max},
    }
    return Case(doc, {"phi": phi, "tau": -1.0 / math.log(1 - LAZY_EPS)})


def _mixing_check(out: Path, case: Case) -> list:
    problems = []
    rows = _read_csv(out / "mixing.csv")
    phi = case.expect["phi"]
    if [int(r["d"]) for r in rows] != list(range(1, len(phi) + 1)):
        return [f"mixing.csv does not list d = 1..{len(phi)}"]
    err = float(np.max(np.abs(np.array([float(r["phi"]) for r in rows]) - phi)))
    if not err <= 1e-9:
        problems.append(f"phi table differs from the closed form by {err:.2e}")
    fits = json.loads((out / "mixing_fits.json").read_text())
    if fits.get("fit_skipped") or set(fits.get("fits", {})) != {"geometric", "algebraic"}:
        problems.append("decay fits were skipped on a positive table")
    else:
        tau = fits["fits"]["geometric"]["tau"]
        if abs(tau - case.expect["tau"]) > 1e-6 * case.expect["tau"]:
            problems.append(f"geometric fit tau {tau} differs from "
                            f"-1/ln(1-eps) = {case.expect['tau']}")
    return problems


# --- the self-check defect (not a workload) --------------------------------

def defect_build(seed: int) -> Case:
    """`mixgame dynamic` on a discounted loss: a known crash outside the exit codes."""
    rng = _rng(seed)
    doc = {
        "process": {"transition": _random_chain(rng, 16)},
        "loss": {"kind": "discounted", "gamma": 0.8, "scale": 0.15,
                 "g_table": rng.random((3, 16)).tolist()},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 4},
        "experiment": {"n": 200, "replicates": 1, "delta": 0.1,
                       "seed": int(rng.integers(2**31)), "d_grid": [2, 4]},
    }
    return Case(doc, {})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="coverage-gen",
        argv=("coverage", "--mode", "gen"),
        build=_coverage_build,
        items=lambda doc: doc["experiment"]["replicates"] * doc["experiment"]["n"],
        item="game round (replicate x round)",
        check=_coverage_check,
        dominant="process.sample_path"),
    Workload(
        name="sweep-delay",
        argv=("sweep-delay",),
        build=_sweep_build,
        items=lambda doc: len(doc["experiment"]["d_grid"]) * doc["experiment"]["n"],
        item="game round (delay x round)",
        check=_sweep_check,
        dominant="game.play_costs"),
    Workload(
        name="simulate-memory",
        argv=("simulate",),
        build=_simulate_build,
        items=lambda doc: doc["experiment"]["replicates"] * doc["experiment"]["n"],
        item="game round (replicate x round)",
        check=_simulate_check,
        dominant="dynamic.dynamic_phi_mc"),
    Workload(
        name="mixing-200",
        argv=("mixing",),
        build=_mixing_build,
        items=lambda doc: doc["experiment"]["d_max"],
        item="phi_d table entry",
        check=_mixing_check,
        dominant="process.phi_table"),
)}
