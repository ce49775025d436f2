"""Spans around calls into heatfair's public functions.

The tracer swaps each listed function for a timing wrapper in every
heatfair module that holds a reference to it, so calls made inside the
package (workflow calling build_qubo, cli calling run_sweep) are
traced as well as the benchmark's own calls. Nothing under src/ is
edited. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import tracemalloc

# layer (= module name) -> public functions that get a span
TRACED = {
    "graphs": ("load_topology", "all_pairs_shortest_paths", "is_connected", "topology_to_dict"),
    "demand": ("load_demands", "load_weights", "compute_weights"),
    "qubo": (
        "default_penalties", "build_qubo", "build_unweighted_qubo", "energy",
        "energies", "assignment_cost", "export_qubo", "import_qubo",
    ),
    "solvers": (
        "solve_heuristic", "solve_anneal", "solve_exhaustive",
        "decode_and_repair", "canonical_form", "encode",
    ),
    "fairness": ("score_assignment",),
    "workflow": (
        "run_sweep", "compare_topologies", "sweep_to_dict", "sweep_to_csv_text",
        "sweep_to_gnuplot_texts", "comparison_to_csv_text",
    ),
    "cli": ("main",),
    "ioutil": ("atomic_write_text",),
}
ALL_FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
# one sweep cell is one solver call; these spans time operations
CELL_FUNCTIONS = ("solvers.solve_heuristic", "solvers.solve_anneal", "solvers.solve_exhaustive")
# peak-memory functions -> size (n*k) of one call from its arguments
PEAK_FUNCTIONS = {
    "qubo.build_qubo": lambda a, kw: _arg(a, kw, 0, "topo").nodes * _arg(a, kw, 2, "k"),
    "qubo.build_unweighted_qubo": lambda a, kw: _arg(a, kw, 0, "topo").nodes * _arg(a, kw, 1, "k"),
    "solvers.solve_anneal": lambda a, kw: _arg(a, kw, 0, "q").n * _arg(a, kw, 0, "q").k,
}
REPAIR_PROBE = "solvers.repair_probe"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _terms(args, kwargs, result) -> dict:
    linear = getattr(result, "linear", None)
    quadratic = getattr(result, "quadratic", None)
    if linear is None or quadratic is None:
        return {}
    return {"terms": len(linear) + len(quadratic)}


def _export_bytes(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".map")}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


ATTRIBUTES = {
    "qubo.build_qubo": _terms,
    "qubo.build_unweighted_qubo": _terms,
    "qubo.export_qubo": _export_bytes,
    "solvers.solve_heuristic": _iterations,
    "solvers.solve_anneal": _iterations,
    "solvers.solve_exhaustive": _iterations,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_no", "attrs")

    def __init__(self, name, start, end, parent, pass_no, attrs) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pass_no = pass_no
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "pass": self.pass_no, **(self.attrs or {}),
        }


class Tracer:
    """Records one span per call of the selected functions.

    With capture_largest set, the tracer keeps the arguments of the
    largest call (by n*k) of each PEAK_FUNCTIONS entry for
    measure_peaks; with keep_anneal_instances set, it collects every
    instance handed to solve_anneal for the repair probe.
    """

    def __init__(self, functions=ALL_FUNCTIONS) -> None:
        self.functions = tuple(functions)
        self.spans: list[Span] = []
        self.pass_no = -1
        self.capture_largest = False
        self.largest: dict[str, tuple[int, tuple, dict]] = {}
        self.keep_anneal_instances = False
        self.anneal_instances: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "heatfair" or name.startswith("heatfair."))
        ]
        for qualified in self.functions:
            layer, fn_name = qualified.split(".")
            home = sys.modules.get(f"heatfair.{layer}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap(self, qualified: str, fn):
        spans, stack = self.spans, self._stack
        attributes = ATTRIBUTES.get(qualified)
        size_of = PEAK_FUNCTIONS.get(qualified)
        is_cli = qualified == "cli.main"
        is_anneal = qualified == "solvers.solve_anneal"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = qualified
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0]}" if argv else "cli.main"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.pass_no, None)
            if attributes is not None:
                spans[index].attrs = {**(spans[index].attrs or {}), **attributes(args, kwargs, result)}
            if size_of is not None and self.capture_largest:
                size = size_of(args, kwargs)
                if size > self.largest.get(qualified, (-1,))[0]:
                    self.largest[qualified] = (size, args, kwargs)
            if is_anneal and self.keep_anneal_instances:
                self.anneal_instances.append(args[0] if args else kwargs["q"])
            return result

        traced.__wrapped__ = fn
        return traced

    def measure_peaks(self) -> dict[str, float]:
        """tracemalloc peak (MB) of a repeat of each captured largest
        call, run untraced and untimed: tracemalloc slows allocation-
        heavy Python code by ~25x. An anneal repeat runs at most two
        restarts, which allocate all that later restarts do."""
        peaks = {}
        for qualified, (_, args, kwargs) in self.largest.items():
            layer, fn_name = qualified.split(".")
            fn = getattr(sys.modules[f"heatfair.{layer}"], fn_name)
            fn = getattr(fn, "__wrapped__", fn)
            if qualified == "solvers.solve_anneal":
                cfg = _arg(args, kwargs, 1, "cfg")
                cfg = dataclasses.replace(cfg, restarts=min(cfg.restarts, 2))
                args, kwargs = (_arg(args, kwargs, 0, "q"), cfg), {}
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[qualified] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        self.largest.clear()
        return peaks

    def record(self, name: str, fn, *args):
        """Run fn(*args) as a top-level span the program did not make."""
        index = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans[index] = Span(name, start, end, -1, self.pass_no, None)


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a wrapped no-op function."""

    def noop(x):
        return x

    tracer = Tracer(())
    traced = tracer.wrap("graphs.noop", noop)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            traced(i)
        wrapped = time.perf_counter() - start
        tracer.spans.clear()
        best = min(best, (wrapped - plain) / calls)
    return max(best, 0.0)
