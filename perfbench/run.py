#!/usr/bin/env python3
"""heatfair benchmark: run one workload, check its answers, print its
metrics.

    python3 perfbench/run.py --workload trends24 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
its src/ directory. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones from a traced run. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A run record (per-pass times, every cell's energy, output digests,
machine facts, and in traced runs every span) goes to .bench_results/.
"""

from __future__ import annotations

import os

# one BLAS thread, like the program's threads=1: CPU time then stays
# below wall time and process.wait_s keeps its meaning
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import (
    ALL_FUNCTIONS,
    CELL_FUNCTIONS,
    REPAIR_PROBE,
    TRACED,
    Tracer,
    calibrate_overhead,
)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
MIN_TIMED_PASSES = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# per-layer time metrics: the summed duration of these spans in a pass
SPAN_TIMES = {
    "graphs.apsp_s": ("graphs.all_pairs_shortest_paths",),
    "graphs.is_connected_s": ("graphs.is_connected",),
    "graphs.load_s": ("graphs.load_topology",),
    "demand.load_s": ("demand.load_demands", "demand.load_weights"),
    "demand.weights_s": ("demand.compute_weights",),
    "qubo.penalties_s": ("qubo.default_penalties",),
    "qubo.build_s": ("qubo.build_qubo",),
    "qubo.build_unweighted_s": ("qubo.build_unweighted_qubo",),
    "qubo.energy_s": ("qubo.energy",),
    "qubo.export_s": ("qubo.export_qubo",),
    "qubo.import_s": ("qubo.import_qubo",),
    "solvers.heuristic_s": ("solvers.solve_heuristic",),
    "solvers.anneal_s": ("solvers.solve_anneal",),
    "solvers.repair_s": (REPAIR_PROBE,),
    "fairness.score_s": ("fairness.score_assignment",),
    "workflow.run_sweep_s": ("workflow.run_sweep",),
    "workflow.serialize_s": (
        "workflow.sweep_to_dict", "workflow.sweep_to_csv_text",
        "workflow.sweep_to_gnuplot_texts", "workflow.comparison_to_csv_text",
    ),
    "cli.sweep_s": ("cli.sweep",),
    "cli.qubo_s": ("cli.qubo",),
}
# per-layer counts: the summed span attribute in a pass
SPAN_COUNTS = {
    "qubo.terms": (("qubo.build_qubo", "qubo.build_unweighted_qubo"), "terms"),
    "qubo.export_bytes": (("qubo.export_qubo",), "bytes"),
    "solvers.heuristic_moves": (("solvers.solve_heuristic",), "iterations"),
    "solvers.anneal_proposals": (("solvers.solve_anneal",), "iterations"),
}
# tracemalloc peaks of a repeat of the largest call in the warm-up pass
SPAN_PEAKS = {
    "qubo.build_peak_mb": ("qubo.build_qubo", "qubo.build_unweighted_qubo"),
    "solvers.anneal_peak_mb": ("solvers.solve_anneal",),
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    "qubo.terms": "count",
    "qubo.export_bytes": "bytes",
    "solvers.heuristic_moves": "count",
    "solvers.anneal_proposals": "count",
    "solvers.anneal_proposals_per_s": "1/s",
    **{name: "MB" for name in SPAN_PEAKS},
    **{f"{layer}.self_s": "s" for layer in TRACED},
    "process.cpu_s": "s",
    "process.wait_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (sources missing, bad arguments)."""


class PassClock:
    """Wall and CPU time of the timed parts of one pass; checks run
    between the windows and are not counted."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.windows: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def timed(self):
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.cpu += time.process_time() - cpu0
            self.wall += end - start
            self.windows.append((start, end))


def program_sources(root: Path) -> Path:
    src = root / "src"
    if not (src / "heatfair" / "__init__.py").is_file():
        raise BenchError(f"heatfair sources not found under {src}")
    return src


def import_heatfair(root: Path):
    """Import heatfair afresh from root/src, never from elsewhere."""
    src = program_sources(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "heatfair" or n.startswith("heatfair.")]:
        del sys.modules[name]
    hf = importlib.import_module("heatfair")
    importlib.import_module("heatfair.cli")
    if Path(hf.__file__).resolve().parent != (src / "heatfair").resolve():
        raise BenchError(f"imported heatfair from {hf.__file__}, not from {src}")
    return hf


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine_facts(root: Path) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of root's git checkout, read from .git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(tracer: Tracer, clocks: list[PassClock], peaks: dict, overhead_per_span: float) -> dict:
    """Per-layer metrics: medians over the timed passes (pass 0 is the
    untimed warm-up)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    per_pass: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for p in range(1, len(clocks)):
        clock = clocks[p]
        mine = [(i, s) for i, s in enumerate(spans) if s.pass_no == p]
        by_name: dict[str, list] = {}
        for _, span in mine:
            by_name.setdefault(span.name, []).append(span)
        values = {}
        for metric, names in SPAN_TIMES.items():
            values[metric] = sum(s.duration for n in names for s in by_name.get(n, ()))
        for metric, (names, attr) in SPAN_COUNTS.items():
            values[metric] = sum((s.attrs or {}).get(attr, 0) for n in names for s in by_name.get(n, ()))
        anneal_s = values["solvers.anneal_s"]
        values["solvers.anneal_proposals_per_s"] = (
            values["solvers.anneal_proposals"] / anneal_s if anneal_s > 0 else 0.0
        )
        for layer in TRACED:
            values[f"{layer}.self_s"] = 0.0
        covered = 0.0
        for i, span in mine:
            if span.name == REPAIR_PROBE:
                continue
            values[f"{span.name.split('.')[0]}.self_s"] += span.duration - child_time[i]
            if span.parent < 0 and any(a <= span.start and span.end <= b for a, b in clock.windows):
                covered += span.duration
        values["process.cpu_s"] = clock.cpu
        values["process.wait_s"] = clock.wall - clock.cpu
        values["trace.coverage"] = covered / clock.wall if clock.wall > 0 else 0.0
        values["trace.spans"] = sum(1 for _, s in mine if s.name != REPAIR_PROBE)
        values["trace.overhead_s"] = values["trace.spans"] * overhead_per_span
        for metric, value in values.items():
            per_pass[metric].append(value)
    metrics = {name: statistics.median(vals) for name, vals in per_pass.items() if vals}
    for metric, names in SPAN_PEAKS.items():
        metrics[metric] = max((peaks.get(name, 0.0) for name in names), default=0.0)
    return {name: metrics[name] for name in PER_LAYER}


def run(workload, seed: int, seconds: int, trace: bool, root: Path = ROOT) -> dict:
    """Set up, run and check one workload; returns the run record."""
    program_sources(root)
    work = root / ".bench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    inputs_dir, out_dir = work / "inputs", work / "outputs"
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        return _run(workload, seed, seconds, trace, root, str(inputs_dir), str(out_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(workload, seed, seconds, trace, root, inputs_dir, out_dir) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hf = import_heatfair(root)
        ctx = workload.make_inputs(hf, seed, inputs_dir)
        setup_times.append(time.perf_counter() - start)
    workload.prepare_checks(hf, ctx)

    timed_passes = max(MIN_TIMED_PASSES, round(seconds / workload.nominal_pass_s))
    tracer = Tracer(ALL_FUNCTIONS if trace else CELL_FUNCTIONS)
    tracer.keep_anneal_instances = trace
    tracer.install()
    clocks, checks, peaks = [], [], {}
    try:
        for p in range(1 + timed_passes):
            for name in os.listdir(out_dir):
                os.unlink(os.path.join(out_dir, name))
            tracer.pass_no = p
            tracer.capture_largest = trace and p == 0
            clock = PassClock()
            checks.append(workload.run_pass(hf, ctx, out_dir, clock))
            clocks.append(clock)
            if trace:
                # every node of an all-zero bit vector needs repair
                repair = hf.solvers.decode_and_repair.__wrapped__
                for q in tracer.anneal_instances:
                    tracer.record(REPAIR_PROBE, repair, q, np.zeros(q.n * q.k))
                tracer.anneal_instances.clear()
                if p == 0:
                    peaks = tracer.measure_peaks()
    finally:
        tracer.uninstall()

    first = checks[0]
    for p, check in enumerate(checks[1:], start=1):
        for op, digest in check.digests.items():
            if first.digests.get(op) != digest:
                check.fail(op, f"pass {p} output files differ from the first pass")
        for op, energy in check.energies.items():
            if first.energies.get(op) != energy:
                check.fail(op, f"pass {p} energy {energy!r} differs from the first pass")
    attempted = sum(len(c.attempted) for c in checks)
    failed = sum(len(c.failed) for c in checks)

    walls = [c.wall for c in clocks[1:]]
    if workload.ops_from_windows:
        op_times = [t for c in checks[1:] for t in c.op_times]
    else:
        op_times = [s.duration for s in tracer.spans if s.pass_no >= 1 and s.name in CELL_FUNCTIONS]
    tail_value, tail_pct = tail(op_times)
    energies = [e for e in first.energies.values() if isinstance(e, (int, float))]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timed_passes": timed_passes,
        "setup_times_s": setup_times,
        "passes": [
            {"wall_s": c.wall, "cpu_s": c.cpu, "wait_s": c.wall - c.cpu} for c in clocks
        ],
        "operations": len(op_times),
        "wall_tail_percentile": tail_pct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "energy_total": float(sum(energies)),
        "problems": [msg for c in checks for msg in c.problems][:50],
        "cell_energies": {" ".join(map(str, op)): e for op, e in first.energies.items()},
        "output_digests": {" ".join(map(str, op)): d for op, d in first.digests.items()},
        "machine": machine_facts(root),
    }
    if trace:
        record["metrics"] = layer_metrics(tracer, clocks, peaks, calibrate_overhead())
        record["spans"] = [s.as_dict() for s in tracer.spans]
    else:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
    return record


def report(record: dict, out=sys.stdout) -> None:
    units = PER_LAYER if record["trace"] else END_TO_END
    print(
        f"# {record['workload']} seed={record['seed']}: {record['timed_passes']} timed "
        f"passes after one warm-up, {record['operations']} timed operations",
        file=out,
    )
    notes = {
        "setup_s": f"median of {len(record['setup_times_s'])} set-ups",
        "wall_s": f"median of {record['timed_passes']} passes",
        "wall_tail_s": (
            f"p{record['wall_tail_percentile']:.1f} of {record['operations']} "
            f"operation times, {TAIL_BEYOND} beyond it"
        ),
    }
    for name, value in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:.6g} {units[name]}{note}", file=out)
    print(
        f"{'energy_total':32s} {record['energy_total']:.12g} energy  "
        f"(sum over the {len(record['cell_energies'])} operations of a pass)",
        file=out,
    )
    print(
        f"{'error_rate':32s} {record['error_rate']:.6g} ratio  "
        f"({record['failed']} of {record['attempted']} operations failed)",
        file=out,
    )
    for problem in record["problems"][:10]:
        print(f"  failed: {problem.splitlines()[0]}", file=out)
    waits = [p["wait_s"] for p in record["passes"][1:]]
    print(f"{'process.wait_s per pass':32s} " + " ".join(f"{w:.3f}" for w in waits) + " s", file=out)


def main(argv=None, workloads=WORKLOADS, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0 or args.seconds < 1:
            raise BenchError("--seed must be >= 0 and --seconds >= 1")
        record = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {
                "value": int(value) if units[name] in ("count", "bytes") else float(value),
                "unit": units[name],
            }
            for name, value in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
