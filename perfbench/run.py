"""Benchmark of the mixgame CLI: one workload per run, end-to-end or per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-gen --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload coverage-gen --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-check

Each run generates the workload's config from ``--seed``, times the matching
``mixgame`` subcommand through ``mixgame.cli.main`` in this process until
``--seconds`` have passed (at least two calls, so that the outputs of two
calls with the same seed can be compared byte for byte), and checks every
call's outputs.  ``run_s`` is the median call of the run and ``setup_s`` the
median of several fresh interpreters, started between calls across the run.
Both are in reference seconds: each time is rescaled by the calibration
kernel timed on either side of it (see ``calibrate.py``), so that a slow
spell of a shared host does not read as a slower program.  The raw wall
times are printed beside them.

With ``--trace 0`` the calls run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced calls alternate; the
traced calls give the per-layer metrics (see ``tracer.py``) and the two
kinds together give the tracing overhead.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from ``BENCHMARK.json``.

``--self-check`` runs a subcommand with a known crash through the same
failure accounting and exits 0 only if the crash is counted as a failed
operation and the next operation still runs.
"""

import os

# Pin BLAS to one thread before numpy loads.  With two OpenBLAS threads on a
# 2-core host the mixing-200 run time swung threefold between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 11
MIN_CALLS = 2

LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
# Exact counts that must repeat across traced runs with the same seed.
EXACT_COUNTS = LAYER_MAP["exact_counts"]


class ProgramMissing(Exception):
    """The checkout has no importable mixgame source tree."""


def import_program():
    """Import mixgame from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "mixgame" / "__init__.py").is_file():
        raise ProgramMissing(f"no mixgame package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mixgame
    if not Path(mixgame.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"mixgame was imported from {mixgame.__file__}, not {SRC}")
    return mixgame


def blas_threads():
    """OpenBLAS's own thread count, or None where it cannot be read."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((what, problems))
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


def guarded_call(cli, argv) -> tuple:
    """Run one subcommand; return (seconds, problems).

    This is the boundary that must keep running: an uncaught exception or a
    nonzero exit is a failed operation, recorded with its traceback.
    """
    start = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:              # argparse exits on bad arguments
        code = exc.code
    except Exception:
        return perf_counter() - start, [traceback.format_exc().rstrip()]
    seconds = perf_counter() - start
    return seconds, ([] if code == 0 else [f"exit code {code}"])


def digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def probe_setup(config: Path, setup: list, ledger: Ledger, gauge) -> None:
    """Time one fresh interpreter importing mixgame and validating the config.

    Appends (wall seconds, reference seconds) to ``setup``, or None on failure.
    """
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    problems = [] if proc.returncode == 0 else [
        f"exit code {proc.returncode}: {proc.stderr.strip()}"]
    ledger.record("setup probe", problems)
    if problems:
        setup.append(None)
    else:
        seconds = float(proc.stdout.strip().splitlines()[-1])
        setup.append((seconds, gauge.rescale(seconds)))


def tail_text(times: list) -> str:
    """Median, the highest percentile with at least ten values beyond it, and max."""
    times = sorted(times)
    pct = next((p for p in (99, 90) if len(times) * (100 - p) >= 1000), None)
    tail = (f", p{pct} {times[-(len(times) * (100 - pct) // 100) - 1]:.4f}"
            if pct else "")
    return f"median {statistics.median(times):.4f}{tail}, max {times[-1]:.4f}"


def run_workload(workload, seed: int, seconds: float, trace: bool, ledger: Ledger):
    """Time the workload's subcommand; return (metrics, report lines)."""
    from calibrate import REFERENCE_S, HostGauge
    from mixgame import cli
    from tracer import Tracer, tracing

    case = workload.build(seed)
    work_dir = OUT_ROOT / f"{workload.name}-seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    config = work_dir / "config.json"
    config.write_text(json.dumps(case.doc))
    probes = 0 if trace else SETUP_PROBES
    setup = []
    # Untraced runs time the calibration kernel around every call and probe.
    gauge = None if trace else HostGauge()
    scaled = []                     # untraced call times in reference seconds

    times = {False: [], True: []}
    layer_runs, last_spans, reference = [], [], None
    start = perf_counter()
    k = 0
    # Start another call while it is expected to end less than half a call
    # past the deadline, so a run lasts about --seconds whatever the call time.
    while k < MIN_CALLS or (perf_counter() - start
                            + statistics.median(times[False] + times[True]) / 2 < seconds):
        traced = trace and k % 2 == 1
        out = work_dir / f"call-{k}"
        argv = [workload.argv[0], "--config", str(config), "--out", str(out),
                *workload.argv[1:]]
        tracer = Tracer() if traced else None
        with tracing(tracer) if traced else contextlib.nullcontext():
            elapsed, problems = guarded_call(cli, argv)
        times[traced].append(elapsed)
        if gauge is not None:
            scaled.append(gauge.rescale(elapsed))
        if not problems:
            try:
                problems = workload.check(out, case)
                hashes = digest(out)
            except (OSError, ValueError, KeyError) as exc:
                problems, hashes = [f"output check could not read the outputs: {exc!r}"], None
            if reference is None:
                reference = hashes
                for name, sha in (hashes or {}).items():
                    print(f"output {name} sha256 {sha}")
            elif hashes is not None and hashes != reference:
                problems.append("outputs differ from the first call with the same seed")
        if traced and not problems:
            layer_runs.append((tracer.metrics(), elapsed,
                               tracer.layer_stats().get(workload.dominant, {})))
            last_spans = [s for s in tracer.spans if s is not None]
        ledger.record(f"call {k} ({'traced' if traced else 'untraced'})", problems)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        # Spread the set-up probes over the run, so that they sample the
        # host's speed at different times rather than in one burst.
        if len(setup) < min(probes, probes * (perf_counter() - start) / seconds):
            probe_setup(config, setup, ledger, gauge)
    while len(setup) < probes:
        probe_setup(config, setup, ledger, gauge)

    config_sha = hashlib.sha256(config.read_bytes()).hexdigest()
    config.unlink()
    lines = [f"workload {workload.name} seed {seed}: {k} calls, "
             f"BLAS threads {blas_threads()}, config sha256 {config_sha}"]
    if not trace:
        run_s = statistics.median(scaled)
        metrics = {"run_s": run_s,
                   "items_per_s": workload.items(case.doc) / run_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        setup = [t for t in setup if t is not None]
        if setup:
            metrics["setup_s"] = statistics.median(ref for _, ref in setup)
        lines += [
            f"calibration kernel: median {statistics.median(gauge.kernel):.4f} s wall "
            f"over {len(gauge.kernel)} runs; 1 reference s = the host's seconds "
            f"x {REFERENCE_S} / kernel time",
            f"run_s        {run_s:.4f} s  median of {len(scaled)} calls in reference s "
            f"({tail_text(scaled)}); wall s: {tail_text(times[False])}",
            f"setup_s      {metrics.get('setup_s', float('nan')):.4f} s  median of "
            f"{len(setup)} fresh interpreters in reference s; wall median "
            f"{statistics.median([wall for wall, _ in setup] or [float('nan')]):.4f}",
            f"items_per_s  {metrics['items_per_s']:.1f} items/s  "
            f"({workload.items(case.doc)} items per call; one item = {workload.item})",
            f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB  (1 process)"]
        return metrics, lines

    metrics = {}
    if layer_runs:
        names = set().union(*(m for m, _, _ in layer_runs))
        for name in sorted(names):
            values = [m.get(name, 0) for m, _, _ in layer_runs]
            if name in EXACT_COUNTS or name.endswith(".calls"):
                if len(set(values)) > 1:
                    ledger.record(f"count {name}", [f"differs between traced calls: {values}"])
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_ratio"] = (statistics.median(times[True])
                                           / statistics.median(times[False]))
        metrics["trace.predicted_share"] = statistics.median(
            dom.get("total_s", 0.0) / elapsed for _, elapsed, dom in layer_runs)
        (work_dir / "spans.json").write_text(json.dumps(
            [dict(zip(("id", "parent", "name", "start", "end", "self_s"), s))
             for s in last_spans]))
    # A layer the workload is predicted to load must show up in the trace;
    # a renamed or inlined function would otherwise read as a gain.
    missing = sorted(name for entry in LAYER_MAP["layers"] if workload.name in entry["on"]
                     for name in entry["metrics"] if name not in metrics)
    ledger.record("layer metrics", [f"the traced calls produced no {name}"
                                    for name in missing])
    top = sorted(((v, n[:-len(".self_s")]) for n, v in metrics.items()
                  if n.endswith(".self_s")), reverse=True)[:4]
    lines += [f"{len(layer_runs)} traced and {len(times[False])} untraced calls; "
              f"spans in {(work_dir / 'spans.json').relative_to(ROOT)}",
              f"predicted dominant layer {workload.dominant}: "
              f"{metrics.get('trace.predicted_share', 0.0):.1%} of the traced call",
              "largest self times: " + ", ".join(f"{n} {v:.3f} s" for v, n in top)]
    return metrics, lines


def self_check() -> int:
    """Prove that a crash inside a subcommand is counted and the run goes on."""
    import workloads
    from mixgame import cli
    ledger = Ledger()
    work_dir = OUT_ROOT / "self-check"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    crash = work_dir / "dynamic-discounted.json"
    crash.write_text(json.dumps(workloads.defect_build(0).doc))
    _, problems = guarded_call(cli, ["dynamic", "--config", str(crash),
                                     "--out", str(work_dir / "crash")])
    ledger.record("dynamic on a discounted loss", problems)
    healthy = work_dir / "coverage-small.json"
    doc = workloads.WORKLOADS["coverage-gen"].build(0).doc
    doc["experiment"].update(n=200, replicates=5)
    healthy.write_text(json.dumps(doc))
    _, problems = guarded_call(cli, ["coverage", "--config", str(healthy),
                                     "--out", str(work_dir / "healthy")])
    ledger.record("coverage on a small config", problems)
    shutil.rmtree(work_dir, ignore_errors=True)
    ok = (ledger.attempted, ledger.failed) == (2, 1) \
        and ledger.failures[0][0] == "dynamic on a discounted loss" \
        and "AttributeError" in ledger.failures[0][1][0]
    print(json.dumps({"self_check": "ok" if ok else "FAILED",
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "failed_ops": [what for what, _ in ledger.failures]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
    except (OSError, ValueError, ProgramMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    ledger = Ledger()
    measured, lines = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), ledger)
    lines.append(f"failed_ratio {ledger.failed / ledger.attempted:.4f}  "
                 f"({ledger.failed} of {ledger.attempted} operations failed)")
    print("\n".join(lines))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # A layer this workload never reaches reports 0; the layers it is
        # predicted to load were checked for in run_workload.
        value = measured.get(m["name"], 0 if args.trace else None)
        if value is None:
            print(f"error: the run produced no value for {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
