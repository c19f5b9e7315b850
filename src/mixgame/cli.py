"""Command-line experiment driver.

Subcommands: simulate, coverage, sweep-delay, mixing, bounds, dynamic.
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
from .errors import MixgameError, ValidationError, build_field, config_value
from .online import delayed_regret_bound
from .process import DECAY_LAWS, MixingProfile
from .reporting import svg_line_plot, write_csv, write_json

REPORT_COLUMNS = ["tag", "n", "d", "delta", "regret_term", "phi_term",
                  "deviation_term", "total"]


def _load_config(args) -> dict:
    doc = json.loads(Path(args.config).read_text())
    if args.seed is not None:
        doc.setdefault("experiment", {})["seed"] = args.seed
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> None:
    cfg = xp.config_from_dict(_load_config(args))
    out = _out_dir(args)
    result = xp.run_experiment(cfg)
    write_csv(out / "summary.csv", result["header"], result["rows"])
    reports = [r.to_dict() for r in result["reports"]]
    if reports:
        write_csv(out / "bound_reports.csv", REPORT_COLUMNS,
                  [[r[k] for k in REPORT_COLUMNS] for r in reports])
    if args.format == "json":
        write_json(out / "summary.json",
                   {"header": result["header"],
                    "rows": [[float(v) if isinstance(v, float) else v for v in row]
                             for row in result["rows"]],
                    "reports": reports})


def cmd_coverage(args) -> None:
    cfg = xp.config_from_dict(_load_config(args))
    out = _out_dir(args)
    rows, summary = xp.coverage_experiment(cfg, mode=args.mode)
    write_csv(out / "coverage.csv", ["replicate", "value", "bound", "violated"], rows)
    write_json(out / "coverage_summary.json", summary)


def cmd_sweep_delay(args) -> None:
    cfg = xp.config_from_dict(_load_config(args))
    out = _out_dir(args)
    rows = xp.delay_sweep(cfg)
    header = ["d", "phi_term", "deviation_term", "regret_term", "total_bound",
              "empirical_gen"]
    write_csv(out / "sweep.csv", header, [[r[k] for k in header] for r in rows])
    svg_line_plot(out / "sweep.svg", [r["d"] for r in rows],
                  {"total_bound": [r["total_bound"] for r in rows],
                   "empirical_gen": [r["empirical_gen"] for r in rows]},
                  title="delay trade-off")
    if args.format == "json":
        write_json(out / "sweep.json", rows)


def cmd_mixing(args) -> None:
    cfg = xp.config_from_dict(_load_config(args))
    out = _out_dir(args)
    result = xp.mixing_table(cfg)
    table = result["table"]
    write_csv(out / "mixing.csv", ["d", "phi"],
              [[d + 1, float(table[d])] for d in range(len(table))])
    write_json(out / "mixing_fits.json",
               {"fits": result["fits"], "fit_skipped": result["fit_skipped"]})


# `mixgame bounds` tuned rows: MixingProfile kind -> {regret key -> (tag
# prefix, regret at d)}; with no regret key present, the plain regret.
TUNED_ROWS = {
    "geometric": {
        "kl": ("ewa-", lambda field, n: functools.partial(
            delayed_regret_bound, field("kl", low=0),
            field("eta", low=0, strict=True), n=n)),
        "h_gap": ("ftrl-", lambda field, n: functools.partial(
            delayed_regret_bound, field("h_gap", low=0),
            field("eta", low=0, strict=True), n=n,
            alpha=field("alpha", default=1.0, low=0, strict=True),
            B=field("B", default=1.0, low=0))),
    },
}


def cmd_bounds(args) -> None:
    doc = json.loads(Path(args.config).read_text())
    spec = doc.get("bounds") if isinstance(doc, dict) else None
    if not isinstance(spec, dict):
        raise ValidationError("config field 'bounds': missing section")

    def field(key, kind=float, default=None, **limits):
        return config_value(spec.get(key, default), f"bounds.{key}", kind, **limits)

    n = field("n", int, low=1)
    delta = field("delta", low=0, high=1, strict=True)
    regret = field("regret", default=0.0)
    C = field("C", default=1.0, low=0, strict=True)
    reports = []
    if "phi_d" in spec:
        reports.append(bd.delay_bound(regret, field("phi_d", low=0),
                                      field("d", int, low=1, high=n), n, delta))
    for kind, law in DECAY_LAWS.items():
        if law.rate not in spec:
            continue
        profile = MixingProfile(kind, C=C,
                                **{law.rate: field(law.rate, low=0, strict=True)})
        rows = [(prefix, make(field, n)) for key, (prefix, make)
                in TUNED_ROWS.get(kind, {}).items() if key in spec]
        for prefix, regret_at in rows or [("", lambda d: regret)]:
            reports.append(bd.tuned_bound(profile, n, delta, regret_at, prefix))
    if not reports:
        raise ValidationError("config field 'bounds': no evaluable bound found")
    out = _out_dir(args)
    dicts = [r.to_dict() for r in reports]
    write_csv(out / "bounds.csv", REPORT_COLUMNS,
              [[r[k] for k in REPORT_COLUMNS] for r in dicts])
    if args.format == "json":
        write_json(out / "bounds.json", dicts)


def cmd_dynamic(args) -> None:
    cfg = xp.config_from_dict(_load_config(args))
    out = _out_dir(args)
    d_grid = cfg.d_grid or list(range(2, 21, 2))
    rows = build_field("experiment.d_grid", dyn.composite_phi_check, cfg.model,
                       cfg.loss, d_grid)
    header = ["d", "d_half", "phi_dynamic", "phi_mirror", "forgetting_2B",
              "block_beta", "rhs", "ok", "ok_mirror"]
    write_csv(out / "dynamic_phi_check.csv", header,
              [[r[k] for k in header] for r in rows])
    # one seeded game replicate as a smoke summary
    parts = xp.replicate(cfg, cfg.seed,
                         dyn.limit_test_losses(cfg.loss, cfg.model)[0])[-1]
    write_json(out / "dynamic_game.json",
               {k: parts[k] for k in ("gen", "regret_over_n", "martingale")})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixgame",
        description="Delayed-game generalization experiments on finite mixing chains")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": cmd_simulate,
        "coverage": cmd_coverage,
        "sweep-delay": cmd_sweep_delay,
        "mixing": cmd_mixing,
        "bounds": cmd_bounds,
        "dynamic": cmd_dynamic,
    }
    for name, func in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name == "coverage":
            p.add_argument("--mode", choices=["mn", "gen"], default="mn")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MixgameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
