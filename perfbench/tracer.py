"""Layer tracing from outside the program.

``tracing(tracer)`` wraps the public functions of every mixgame layer module
for the duration of a ``with`` block and restores the originals afterwards;
the source under ``src/`` is never edited.  Each wrapper is installed on the
name the calling module uses (``from .process import sample_path`` binds
``mixgame.experiments.sample_path``, so that name is replaced too).

A wrapped call records a span (id, parent id, name, start, end, self time).
Self time is the span's duration minus the time its child calls cover.
Per-round methods (the learners' ``act``/``observe`` and the steps they
call) are aggregated as a call count plus self time instead of one span per
call.  ``numpy.linalg.matrix_power`` is wrapped as ``<caller>.matrix_power``,
named after the module of the innermost traced caller.

Counts are recorded at the same boundaries.  ``process.phi_table.gflop`` and
``dynamic.blocks_enumerated`` are computed from the call arguments, not
measured.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import math
import pickle
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("process", "learner", "online", "game", "bounds", "dynamic",
          "experiments", "reporting", "cli")
PER_ROUND_METHODS = {"EWA": ("act", "observe"), "FTRL": ("act", "observe")}
AGGREGATED = {f"online.{cls}.{m}" for cls, ms in PER_ROUND_METHODS.items() for m in ms}
AGGREGATED |= {"online.ftrl_step", "online.project_simplex", "online.ewa_step"}


def _matmuls(exponent: int) -> int:
    """Matrix products numpy's matrix_power makes for a positive exponent."""
    return exponent.bit_length() - 1 + bin(exponent).count("1") - 1


class Tracer:
    """Spans, per-round aggregates and counts of one traced call."""

    def __init__(self):
        self.spans = []                 # (id, parent id, name, start, end, self_s)
        self.aggregates = {}            # name -> [calls, self_s]
        self.counts = Counter()
        self.active = Counter()         # name -> open calls, for "inside X" tests
        self.limit_inputs = set()       # distinct limit_test_losses inputs
        self._stack = []                # open frames: [span id, child seconds, name]

    def call(self, name, fn, args, kwargs, hook=None):
        stack = self._stack
        parent_id = stack[-1][0] if stack else None
        aggregate = name in AGGREGATED
        frame = [parent_id if aggregate else len(self.spans), 0.0, name]
        if not aggregate:
            self.spans.append(None)     # reserve the id; filled on exit
        stack.append(frame)
        self.active[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.active[name] -= 1
            own = end - start - frame[1]
            if stack:
                stack[-1][1] += end - start
            if aggregate:
                agg = self.aggregates.setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += own
            else:
                self.spans[frame[0]] = (frame[0], parent_id, name, start, end, own)
        if hook is not None:
            hook(self, fn, args, kwargs, result)
        return result

    def caller_module(self) -> str:
        return self._stack[-1][2].split(".")[0] if self._stack else "numpy"

    def layer_stats(self) -> dict:
        """Per-name calls, self time and total (inclusive) time, plus counts."""
        stats = {}
        spans = [s for s in self.spans if s is not None]
        for _, _, name, start, end, own in spans:
            st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            st["calls"] += 1
            st["self_s"] += own
            st["total_s"] += end - start
        for name, (calls, own) in self.aggregates.items():
            stats[name] = {"calls": calls, "self_s": own, "total_s": own}
        return stats

    def metrics(self) -> dict:
        """Every layer metric this call produced, keyed by its full name."""
        out = {}
        for name, st in self.layer_stats().items():
            for quantity, value in st.items():
                out[f"{name}.{quantity}"] = value
        out.update(self.counts)
        symbols = self.counts.get("process.sample_path.symbols", 0)
        sample_s = out.get("process.sample_path.self_s", 0.0)
        out["process.sample_path.symbols_per_s"] = symbols / sample_s if sample_s else 0.0
        out["process.phi_table.gflop"] = self.counts.get("process.phi_table.flop", 0) / 1e9
        calls = out.get("dynamic.limit_test_losses.calls", 0)
        out["dynamic.limit_test_losses.useful_ratio"] = (
            len(self.limit_inputs) / calls if calls else 0.0)
        return out


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_symbols(tracer, fn, args, kwargs, result):
    tracer.counts["process.sample_path.symbols"] += len(result.symbols)


def _count_rounds(tracer, fn, args, kwargs, result):
    tracer.counts["game.rounds"] += result.n


def _count_expectation_flop(tracer, fn, args, kwargs, result):
    if tracer.active["process.phi_table"]:
        states, hypotheses = result.shape
        tracer.counts["process.phi_table.flop"] += 2 * states * states * hypotheses


def _count_matrix_power_flop(tracer, fn, args, kwargs, result):
    if tracer.active["process.phi_table"]:
        matrix, exponent = args
        tracer.counts["process.phi_table.flop"] += (
            2 * np.shape(matrix)[-1] ** 3 * _matmuls(int(exponent)))


def _count_blocks(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    dl, model = a["dl"], a["model"]
    if hasattr(dl, "m"):                      # memory losses enumerate length-m blocks
        horizon = dl.m
    else:
        horizon = a["horizon"] or max(1, math.floor(math.log(a["cap"]) /
                                                    math.log(dl.alphabet)))
    tracer.counts["dynamic.blocks_enumerated"] += dl.alphabet ** horizon
    key = pickle.dumps((type(dl).__name__, sorted(vars(dl).items()),
                        model.transition, a["horizon"], a["cap"]))
    tracer.limit_inputs.add(hashlib.sha256(key).hexdigest())


def _count_bytes(tracer, fn, args, kwargs, result):
    path = _bound(fn, args, kwargs)["path"]
    tracer.counts["reporting.bytes_written"] += Path(path).stat().st_size


HOOKS = {
    "process.sample_path": _count_symbols,
    "process.conditional_loss_expectations": _count_expectation_flop,
    "game.play_costs": _count_rounds,
    "dynamic.limit_test_losses": _count_blocks,
    "reporting.write_csv": _count_bytes,
    "reporting.write_json": _count_bytes,
    "reporting.svg_line_plot": _count_bytes,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)
    return wrapper


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    import mixgame
    modules = {layer: importlib.import_module(f"mixgame.{layer}") for layer in LAYERS}
    holders = [mixgame, *modules.values()]
    patches = []                                  # (object, attribute, original)

    def patch(obj, attr, new):
        patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    try:
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = _wrap(tracer, f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            patch(holder, key, wrapper)
        for cls_name, methods in PER_ROUND_METHODS.items():
            cls = getattr(modules["online"], cls_name)
            for meth in methods:
                patch(cls, meth, _wrap(tracer, f"online.{cls_name}.{meth}",
                                       vars(cls)[meth]))
        matrix_power = np.linalg.matrix_power

        @functools.wraps(matrix_power)
        def traced_matrix_power(a, n):
            return tracer.call(f"{tracer.caller_module()}.matrix_power", matrix_power,
                               (a, n), {}, _count_matrix_power_flop)
        patch(np.linalg, "matrix_power", traced_matrix_power)
        yield tracer
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
