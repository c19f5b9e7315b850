"""Command-line experiment driver: one table of subcommands and their flags.

``mixgame bounds`` is one loop over delay rows and regret sources.  Every
table is a list of row dicts, written as CSV under the first row's keys.
Exit codes: 0 success, 2 validation error, 3 runtime error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bounds as bd
from . import dynamic as dyn
from . import experiments as xp
from .errors import ConfigSection, MixgameError, ValidationError, _require, build_field
from .online import delayed_regret_bound
from .process import DECAY_LAWS, MixingProfile
from .reporting import svg_line_plot, write_csv, write_json


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"config file {path!r}: {exc}") from None
    except OSError as exc:  # a missing file, a directory, no permission
        raise ValidationError(f"config file {path!r}: {exc.strerror}") from None


def _config(args) -> xp.ExperimentConfig:
    """The experiment config, with a ``--seed`` flag in place of the master seed."""
    return xp.config_from_dict(_read_json(args.config), seed=getattr(args, "seed", None))


def cmd_simulate(args) -> None:
    rows, reports = xp.run_experiment(_config(args))
    reports = [r.to_dict() for r in reports]
    write_json(args.out / "summary.json",
               {"header": list(rows[0]), "rows": [list(r.values()) for r in rows],
                "reports": reports})
    write_csv(args.out / "summary.csv", rows)
    write_csv(args.out / "bound_reports.csv", reports)


def cmd_coverage(args) -> None:
    rows, summary = xp.coverage_experiment(_config(args), mode=args.mode)
    write_csv(args.out / "coverage.csv", rows)
    write_json(args.out / "coverage_summary.json", summary)


def cmd_sweep_delay(args) -> None:
    rows = xp.delay_sweep(_config(args))
    write_json(args.out / "sweep.json", rows)
    write_csv(args.out / "sweep.csv", rows)
    svg_line_plot(args.out / "sweep.svg", rows, "d", ["total_bound", "empirical_gen"],
                  title="delay trade-off")


def cmd_mixing(args) -> None:
    result = xp.mixing_table(_config(args))
    write_csv(args.out / "mixing.csv",
              [{"d": d, "phi": float(phi)} for d, phi in enumerate(result["table"], 1)])
    write_json(args.out / "mixing_fits.json",
               {"fits": result["fits"], "fit_skipped": result["fit_skipped"]})


# `mixgame bounds` writes one row per delay row and regret source.  The delay
# rows are the given phi_d at d, then each decay law whose rate the section
# holds, at its tuned delay.  Regret sources: bounds field -> (tag prefix, the
# fields beside it that ``delayed_regret_bound`` reads); with none, the plain regret.
REGRET_SOURCES = {"kl": ("ewa-", ()), "h_gap": ("ftrl-", ("alpha", "B"))}


def _finite_regret(regret, key: str):
    """``regret`` checked at each d.  It reads bounds fields only, so one that
    overflows is a config error, as a Gibbs beta * n that overflows is."""
    def at(d: int) -> float:
        value = regret(d)
        _require(math.isfinite(value), "bounds",
                 f"{key} / eta or eta * n overflows the a-priori regret at d = {d}")
        return value
    return at


def cmd_bounds(args) -> None:
    doc = _read_json(args.config)
    spec = ConfigSection(doc.get("bounds", {}) if isinstance(doc, dict) else None,
                         "bounds")
    n, delta = spec["n"], spec["delta"]
    delay_rows = []  # each maps (regret at d, tag prefix) to its report
    if "phi_d" in spec:
        _require(spec["d"] <= n, "bounds.d", f"must lie in [1, {n}]")
        delay_rows.append(lambda regret, prefix, d=spec["d"]: bd.delay_bound(
            regret(d), spec["phi_d"], d, n, delta, tag=prefix + "delay"))
    delay_rows += [functools.partial(bd.tuned_bound, MixingProfile(
        kind, C=spec["C"], **{law.rate: spec[law.rate]}), n, delta)
        for kind, law in DECAY_LAWS.items() if law.rate in spec]
    _require(delay_rows, "bounds", "no evaluable bound found")
    sources = [(_finite_regret(functools.partial(
        delayed_regret_bound, spec[key], spec["eta"], n=n,
        **{k: spec[k] for k in keys}), key), prefix)
               for key, (prefix, keys) in REGRET_SOURCES.items() if key in spec
               ] or [(lambda d: spec["regret"], "")]
    reports = [row(*source).to_dict() for row in delay_rows for source in sources]
    write_json(args.out / "bounds.json", reports)
    write_csv(args.out / "bounds.csv", reports)


def cmd_dynamic(args) -> None:
    cfg = _config(args)
    d_grid = cfg.d_grid or list(range(2, 21, 2))
    write_csv(args.out / "dynamic_phi_check.csv",
              build_field("experiment.d_grid", dyn.composite_phi_check, cfg.model,
                          cfg.loss, d_grid))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixgame",
        description="Delayed-game generalization experiments on finite mixing chains")
    sub = parser.add_subparsers(dest="command", required=True)
    common = {"--config": {"required": True, "help": "path to the JSON config"},
              "--out": {"type": Path, "default": "out", "help": "output directory"}}
    # the subcommands that sample a path read the master seed
    seeded = {**common, "--seed": {"type": int, "help": "override the master seed"}}
    mode = {"--mode": {"choices": list(xp.COVERAGE_COLUMNS), "default": "mn"}}
    commands = {  # subcommand -> (handler, the flags it reads)
        "simulate": (cmd_simulate, seeded),
        "coverage": (cmd_coverage, {**seeded, **mode}),
        "sweep-delay": (cmd_sweep_delay, seeded),
        "mixing": (cmd_mixing, common),
        "bounds": (cmd_bounds, common),
        "dynamic": (cmd_dynamic, common),
    }
    for name, (func, flags) in commands.items():
        p = sub.add_parser(name)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MixgameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the allocation; a bare one is empty
        print(f"error: {args.command}: {exc or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
