"""Spans and counts at spinclock's layer boundaries, recorded from outside.

The layers are the modules grids, kernels, coherent, symbols, clock, fock,
verify and cli.  Tracer.install() wraps every public function those modules
define and rebinds the wrapper at every spinclock module that binds the
function by name (``coherent.sphere_grid``, ``spinclock.sphere_grid``, ...).
In cli only ``main`` is wrapped, so that its self time is the CLI's own
parsing, formatting and writing.  The callables returned by
``project_lower_symbol`` and ``deparameterize`` are wrapped too (spans
``symbols.reduced`` and ``clock.slice``), and so are the full symbols passed
into them (``symbols.lower_symbol``: counts only, no spans, since they run
thousands of times per node).

A span is (name, start, end, parent index, op id).  Spans stay in memory
until dump().  Self time is a span's duration minus the time its child
spans cover; children run inside their parent on one thread, so that is
the sum of their durations.
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grids", "kernels", "coherent", "symbols", "clock", "fock", "verify", "cli")

# name, unit; values are per op, except import.* which are per interpreter
# start.  Bytes and flops are computed from array shapes, not measured.
LAYER_METRICS = [
    ("import.spinclock_s", "s"), ("import.scipy_s", "s"), ("import.modules", "count"),
    ("cli.main.self_s", "s"), ("cli.output_bytes", "B"),
    ("grids.sphere_grid.calls", "count"), ("grids.sphere_grid.self_s", "s"),
    ("grids.sphere_grid.points", "count"),
    ("grids.radial_grid.calls", "count"), ("grids.radial_grid.self_s", "s"),
    ("kernels.coherent_amplitudes.calls", "count"), ("kernels.coherent_amplitudes.rows", "count"),
    ("kernels.coherent_amplitudes.self_s", "s"), ("kernels.amplitude_bytes", "B"),
    ("kernels.accumulate_projectors.calls", "count"),
    ("kernels.accumulate_projectors.rows", "count"),
    ("kernels.accumulate_projectors.self_s", "s"), ("kernels.accumulate_flops", "flop"),
    ("coherent.resolution_of_unity.self_s", "s"),
    ("coherent.overlap.calls", "count"), ("coherent.overlap.self_s", "s"),
    ("coherent.su2_coherent.calls", "count"), ("coherent.su2_coherent.self_s", "s"),
    ("symbols.project_lower_symbol.self_s", "s"),
    ("symbols.reduced.calls", "count"), ("symbols.reduced.self_s", "s"),
    ("symbols.lower_symbol.calls", "count"), ("symbols.lower_symbol.points", "count"),
    ("symbols.reconstruct_operator.self_s", "s"),
    ("symbols.upper_symbol.calls", "count"), ("symbols.upper_symbol.self_s", "s"),
    ("clock.deparameterize.self_s", "s"),
    ("clock.slice.calls", "count"), ("clock.slice.self_s", "s"),
    ("clock.clock_operator.self_s", "s"),
    ("clock.amplitude_correlation.self_s", "s"), ("clock.phase_correlation.self_s", "s"),
    ("clock.fit_gaussian_width.self_s", "s"),
    ("fock.spin_operators.calls", "count"), ("fock.spin_operators.self_s", "s"),
    ("verify.run_checks.self_s", "s"), ("verify.checks", "count"),
    ("trace.op_p50_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._symbol_cells = []

    def span(self, name: str, fn, on_return=None):
        """fn wrapped so that each call records a span; on_return(result, args,
        kwargs) may add counts or replace the result."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if on_return is not None:
                result = on_return(result, args, kwargs)
            return result

        return traced

    def counted_symbol(self, sym):
        """A full lower symbol that counts its calls and the values it returns.

        It runs hundreds of thousands of times per op, so it keeps its
        counts in a list cell that all_counts() adds up, not in the dict."""
        cell = [0, 0]
        self._symbol_cells.append(cell)

        def counted(*args, **kwargs):
            value = sym(*args, **kwargs)
            cell[0] += 1
            cell[1] += 1 if isinstance(value, float) else np.size(value)
            return value

        return counted

    def all_counts(self) -> dict:
        counts = dict(self.counts)
        if self._symbol_cells:
            counts["symbols.lower_symbol.calls"] = sum(c[0] for c in self._symbol_cells)
            counts["symbols.lower_symbol.points"] = sum(c[1] for c in self._symbol_cells)
        return counts

    def _symbol_factory(self, returned_name: str):
        """on_return hook for project_lower_symbol / deparameterize."""
        def on_return(result, args, kwargs):
            return self.span(returned_name, result)
        return on_return

    def _hooks(self) -> dict:
        counts = self.counts

        def grid_points(result, args, kwargs):
            counts["grids.sphere_grid.points"] += len(result)
            return result

        def amplitudes(result, args, kwargs):
            counts["kernels.coherent_amplitudes.rows"] += result.shape[0]
            counts["kernels.amplitude_bytes"] += result.nbytes
            return result

        def accumulate(result, args, kwargs):
            vecs = args[0] if args else kwargs["vecs"]
            rows, dim = vecs.shape
            counts["kernels.accumulate_projectors.rows"] += rows
            # one complex multiply-add (8 real flops) per row and matrix entry
            counts["kernels.accumulate_flops"] += 8 * rows * dim * dim
            return result

        def checks(result, args, kwargs):
            counts["verify.checks"] += len(result)
            return result

        return {"grids.sphere_grid": grid_points,
                "kernels.coherent_amplitudes": amplitudes,
                "kernels.accumulate_projectors": accumulate,
                "verify.run_checks": checks,
                "symbols.project_lower_symbol": self._symbol_factory("symbols.reduced"),
                "clock.deparameterize": self._symbol_factory("clock.slice")}

    def _count_symbol_argument(self, fn):
        """Wrap the full symbol (first argument, or sym=) passed to fn."""
        def with_counted_symbol(*args, **kwargs):
            if args:
                args = (self.counted_symbol(args[0]),) + args[1:]
            elif "sym" in kwargs:
                kwargs["sym"] = self.counted_symbol(kwargs["sym"])
            return fn(*args, **kwargs)
        return with_counted_symbol

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding site."""
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spinclock.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if layer == "cli" and attr != "main":
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, obj, hooks.get(name))
                if name in ("symbols.project_lower_symbol", "clock.deparameterize"):
                    wrapped = self._count_symbol_argument(wrapped)
                wrappers[obj] = wrapped
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spinclock" or mod_name.startswith("spinclock.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.all_counts()}, fh)


def self_times(spans) -> list:
    """Per-span self time: duration minus the durations of its child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans, counts) -> dict:
    """calls and self_s for every span name, plus the boundary counts."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span[0]}.calls"] += 1
        totals[f"{span[0]}.self_s"] += own
    for key, value in counts.items():
        totals[key] += value
    return totals
