"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed this runs ``perfbench/run.py`` once, in order,
and reads the JSON result line.  For each metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the metric's bound from ``BENCHMARK.json``.

Run from the repository root:

    python3 perfbench/spread.py --seeds 101 102 103 104 105
    python3 perfbench/spread.py --trace 1 --seeds 101 101
    python3 perfbench/spread.py --seeds 101 ... 110 --record perfbench/baseline.json

``--record`` writes the per-seed values, their summary and the host's
provenance (git sha, CPU count, Python, numpy, scipy and OpenBLAS versions).
The exit code is 1 if any run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def provenance() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def config_summary(doc):
    """The config with every long array replaced by its shape and digest."""
    if isinstance(doc, dict):
        return {k: config_summary(v) for k, v in doc.items()}
    if isinstance(doc, list) and len(json.dumps(doc)) > 400:
        import numpy as np
        arr = np.asarray(doc)
        return {"array_shape": list(arr.shape),
                "sha256": hashlib.sha256(json.dumps(doc).encode()).hexdigest()}
    return doc


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ok, report = True, {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                continue
            values = {m: v["value"] for m, v in result["metrics"].items()}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            shown = ", ".join(f"{m['name']} {values[m['name']]:.6g}" for m in metrics[:4])
            print(f"{name} seed {seed}: {shown}", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs]
            if not values:
                continue
            summary[m["name"]] = summarize(values)
            if "bound" in m:
                s = summary[m["name"]]
                print(f"  {m['name']:<12} median {s['median']:.6g} {m['unit']}  "
                      f"spread {s['spread']:.3f}  bound {m['bound']}  "
                      f"{'ok' if s['spread'] < m['bound'] / 3 else 'WIDE'}")
        report[name] = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
                        "item": workloads.WORKLOADS[name].item,
                        "config_seed": args.seeds[0],
                        "config": config_summary(
                            workloads.WORKLOADS[name].build(args.seeds[0]).doc),
                        "summary": summary, "runs": runs}
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"provenance": provenance(), "seconds": args.seconds, "trace": args.trace,
             "seeds": args.seeds, "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
