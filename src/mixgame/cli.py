"""Command-line experiment driver: one table of subcommands and their flags.

Every table is a list of row dicts, written as CSV under the first row's keys.
Exit codes: 0 success, 2 validation error, 3 runtime/consistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
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


def _config(args) -> xp.ExperimentConfig:
    """The experiment config, with ``--seed`` in place of the master seed."""
    return xp.config_from_dict(_read_json(args.config), seed=args.seed)


def cmd_simulate(args) -> None:
    rows, reports = xp.run_experiment(_config(args))
    reports = [r.to_dict() for r in reports]
    write_csv(args.out / "summary.csv", rows)
    write_csv(args.out / "bound_reports.csv", reports)
    write_json(args.out / "summary.json",
               {"header": list(rows[0]), "rows": [list(r.values()) for r in rows],
                "reports": reports})


def cmd_coverage(args) -> None:
    rows, summary = xp.coverage_experiment(_config(args), mode=args.mode)
    write_csv(args.out / "coverage.csv", rows)
    write_json(args.out / "coverage_summary.json", summary)


def cmd_sweep_delay(args) -> None:
    rows = xp.delay_sweep(_config(args))
    write_csv(args.out / "sweep.csv", rows)
    svg_line_plot(args.out / "sweep.svg", rows, "d", ["total_bound", "empirical_gen"],
                  title="delay trade-off")
    write_json(args.out / "sweep.json", rows)


def cmd_mixing(args) -> None:
    result = xp.mixing_table(_config(args))
    write_csv(args.out / "mixing.csv",
              [{"d": d, "phi": float(phi)} for d, phi in enumerate(result["table"], 1)])
    write_json(args.out / "mixing_fits.json",
               {"fits": result["fits"], "fit_skipped": result["fit_skipped"]})


# `mixgame bounds` tuned rows: MixingProfile kind -> {regret key -> (tag
# prefix, regret at d from the bounds fields)}; with no regret key, the plain regret.
TUNED_ROWS = {
    "geometric": {
        "kl": ("ewa-", lambda spec: functools.partial(
            delayed_regret_bound, spec["kl"], spec["eta"], n=spec["n"])),
        "h_gap": ("ftrl-", lambda spec: functools.partial(
            delayed_regret_bound, spec["h_gap"], spec["eta"], n=spec["n"],
            alpha=spec["alpha"], B=spec["B"])),
    },
}


def cmd_bounds(args) -> None:
    doc = _read_json(args.config)
    spec = ConfigSection(doc.get("bounds", {}) if isinstance(doc, dict) else None,
                         "bounds")
    n, delta, regret = spec["n"], spec["delta"], spec["regret"]
    reports = []
    if "phi_d" in spec:
        _require(spec["d"] <= n, "bounds.d", f"must lie in [1, {n}]")
        reports.append(bd.delay_bound(regret, spec["phi_d"], spec["d"], n, delta))
    for kind, law in DECAY_LAWS.items():
        if law.rate not in spec:
            continue
        profile = MixingProfile(kind, C=spec["C"], **{law.rate: spec[law.rate]})
        rows = [(prefix, make(spec)) for key, (prefix, make)
                in TUNED_ROWS.get(kind, {}).items() if key in spec]
        for prefix, regret_at in rows or [("", lambda d: regret)]:
            reports.append(bd.tuned_bound(profile, n, delta, regret_at, prefix))
    _require(reports, "bounds", "no evaluable bound found")
    reports = [r.to_dict() for r in reports]
    write_csv(args.out / "bounds.csv", reports)
    write_json(args.out / "bounds.json", reports)


def cmd_dynamic(args) -> None:
    cfg = _config(args)
    d_grid = cfg.d_grid or list(range(2, 21, 2))
    write_csv(args.out / "dynamic_phi_check.csv",
              build_field("experiment.d_grid", dyn.composite_phi_check, cfg.model,
                          cfg.loss, d_grid))
    # one seeded game replicate as a smoke summary
    parts = xp.replicate(cfg, cfg.seed,
                         dyn.limit_test_losses(cfg.loss, cfg.model)[0])[-1]
    write_json(args.out / "dynamic_game.json",
               {k: parts[k] for k in ("gen", "regret_over_n", "martingale")})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixgame",
        description="Delayed-game generalization experiments on finite mixing chains")
    sub = parser.add_subparsers(dest="command", required=True)
    common = {"--config": {"required": True, "help": "path to the JSON config"},
              "--out": {"type": Path, "default": "out", "help": "output directory"}}
    # every subcommand but bounds reads an experiment config, and its seed
    seeded = {**common, "--seed": {"type": int, "help": "override the master seed"}}
    mode = {"--mode": {"choices": ["mn", "gen"], "default": "mn"}}
    commands = {  # subcommand -> (handler, the flags it reads)
        "simulate": (cmd_simulate, seeded),
        "coverage": (cmd_coverage, {**seeded, **mode}),
        "sweep-delay": (cmd_sweep_delay, seeded),
        "mixing": (cmd_mixing, seeded),
        "bounds": (cmd_bounds, common),
        "dynamic": (cmd_dynamic, seeded),
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
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MixgameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
