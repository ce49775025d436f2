"""Sweep the producer count and score every solve.

For k = 1..max_producers and each configured solver, build the QUBO,
solve it, and score the resulting assignment. Results carry provenance
(input hashes, config echo, tool version) so a sweep can be reproduced
from its output file alone.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from . import graphs
from .demand import DemandMatrix, compute_weights
from .fairness import FairnessError, KpiReport, score_assignment
from .ioutil import atomic_write_text, csv_text, integral, number, read_json, shown, write_json
from .qubo import PenaltyConfig, QuboInstance, build_qubo
from .solvers import (
    AnnealConfig, SolveResult, SolverError, solve_anneal, solve_exhaustive, solve_heuristic,
)

VERSION = "0.1.0"

SOLVER_NAMES = ("exhaustive", "anneal", "heuristic")


class WorkflowError(ValueError):
    """Raised for invalid sweep setups or mismatched comparisons."""


@dataclasses.dataclass(frozen=True)
class SolverSpec:
    """One solver selection plus its knobs. Whichever solver is chosen,
    every knob must pass AnnealConfig's checks, and is stored as it
    stores it, and exhaustive_cap must be an integer of at least 1; the
    ones the chosen solver does not use are then ignored."""

    name: str
    sweeps: int = AnnealConfig.sweeps
    restarts: int = AnnealConfig.restarts
    t_initial: float | None = AnnealConfig.t_initial
    t_final: float | None = AnnealConfig.t_final
    schedule: str = AnnealConfig.schedule
    exhaustive_cap: int = 24

    def __post_init__(self) -> None:
        if self.name not in SOLVER_NAMES:
            raise WorkflowError(
                f"unknown solver {self.name!r}; valid names: "
                f"{', '.join(SOLVER_NAMES)}"
            )
        cap = number(self.exhaustive_cap, "exhaustive_cap", WorkflowError, integer=True, least=1)
        object.__setattr__(self, "exhaustive_cap", cap)
        try:
            cfg = self.anneal_config(seed=0)
        except SolverError as exc:
            raise WorkflowError(str(exc)) from exc
        for name in ("sweeps", "restarts", "t_initial", "t_final"):  # as ints and floats
            object.__setattr__(self, name, getattr(cfg, name))

    def anneal_config(self, seed: int) -> AnnealConfig:
        return AnnealConfig(
            sweeps=self.sweeps,
            restarts=self.restarts,
            t_initial=self.t_initial,
            t_final=self.t_final,
            schedule=self.schedule,
            seed=seed,
        )


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    max_producers: int = 4
    solvers: tuple[SolverSpec, ...] = (SolverSpec(name="heuristic"),)
    penalty: PenaltyConfig | None = None  # None means per-k defaults
    kpi_alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("max_producers", 1), ("seed", 0)):  # numpy seeds are >= 0
            value = number(getattr(self, name), name, WorkflowError, integer=True, least=least)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.solvers:
            raise WorkflowError("select at least one solver")
        if not all(isinstance(spec, SolverSpec) for spec in self.solvers):
            raise WorkflowError(f"solvers must be SolverSpec objects, got {self.solvers!r}")
        _refuse_repeats([spec.name for spec in self.solvers], "solver")
        if not isinstance(self.penalty, PenaltyConfig | None):
            raise WorkflowError(f"penalty must be a PenaltyConfig or None, got {self.penalty!r}")
        object.__setattr__(self, "kpi_alpha", number(self.kpi_alpha, "kpi_alpha", WorkflowError))
        if not (0.0 <= self.kpi_alpha <= 1.0):
            raise WorkflowError(
                f"kpi_alpha must lie in [0, 1], got {self.kpi_alpha!r}"
            )


@dataclasses.dataclass(frozen=True)
class SweepResult:
    reports: tuple[KpiReport, ...]
    warnings: tuple[str, ...]
    provenance: dict


def _topology_hash(topo: graphs.Topology) -> str:
    doc = json.dumps(graphs.topology_to_dict(topo), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _demand_hash(demands: DemandMatrix) -> str:
    h = hashlib.sha256()
    h.update(repr(demands.values.shape).encode())
    h.update(demands.values.tobytes())
    if demands.labels:
        h.update("\x00".join(demands.labels).encode())
    return h.hexdigest()


def _config_echo(cfg: SweepConfig) -> dict:
    return {
        "max_producers": cfg.max_producers,
        "solvers": [dataclasses.asdict(s) for s in cfg.solvers],
        "penalty": None if cfg.penalty is None else dataclasses.asdict(cfg.penalty),
        "kpi_alpha": cfg.kpi_alpha,
        "seed": cfg.seed,
    }


def _cell_seed(seed: int, k: int, solver_index: int) -> int:
    ss = np.random.SeedSequence((seed, k, solver_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def precision_warning(q: QuboInstance) -> str | None:
    """A warning when the offset's unit in the last place exceeds the
    smallest nonzero |edge coefficient|, so that the energy of a bit
    vector, which sums the offset (qubo.energies, or a sampler reading
    the export), cannot resolve the pipe term; None otherwise."""
    coeff = np.abs(q.objective.edge_coeff)
    smallest, ulp = float(coeff[coeff != 0.0].min(initial=math.inf)), math.ulp(q.offset)
    if ulp > smallest:
        return (f"the penalties leave the energy without precision: it is resolved only to "
                f"{ulp:.3g}, coarser than the smallest pipe coefficient {smallest:.3g}")
    return None


def solve_cell(
    topo: graphs.Topology, weights, k: int, spec: SolverSpec, seed: int,
    penalty: PenaltyConfig | None = None, kpi_alpha: float = 0.5, sp=None,
) -> tuple[SolveResult, KpiReport]:
    """One cell of a sweep: build the weighted QUBO for k producers
    (penalty None takes the builder's defaults), solve it with spec's
    solver and score the answer. sp, the all-pairs shortest paths, is
    computed by the scoring when not given."""
    q = build_qubo(topo, weights, k, penalty)
    if spec.name == "exhaustive":
        result = solve_exhaustive(q, max_vars=spec.exhaustive_cap)
    elif spec.name == "anneal":
        result = solve_anneal(q, spec.anneal_config(seed))
    else:
        result = solve_heuristic(q, seed=seed, restarts=spec.restarts)
    report = score_assignment(
        result.assignment, topo, weights, kpi_alpha=kpi_alpha,
        solver_name=spec.name, energy=result.energy, sp=sp,
    )
    return result, report


def run_sweep(
    topo: graphs.Topology, demands: DemandMatrix, cfg: SweepConfig, threads: int = 1,
    label: str | None = None,
) -> SweepResult:
    """Algorithm: run solve_cell for each k and solver. Skipped cells
    (the exhaustive size cap) become warnings, never silent gaps; any
    other solver error fails the sweep. Deterministic for a fixed seed,
    regardless of threads: cells run largest k first, so a pool of
    threads does not end on one long cell, and reports come out by k,
    then solver name.
    """
    threads = number(threads, "threads", WorkflowError, integer=True, least=1)
    if demands.nodes != topo.nodes:
        raise WorkflowError(
            f"demand table covers {demands.nodes} nodes but topology has {topo.nodes}"
        )
    if cfg.max_producers > topo.nodes:
        raise WorkflowError(f"max_producers={cfg.max_producers} exceeds node count {topo.nodes}")
    # the cheap checks above run before the O(n^3) paths this one needs
    sp = graphs.all_pairs_shortest_paths(topo)
    if not np.all(np.isfinite(sp)):
        raise WorkflowError("topology is disconnected; pairwise distances are unbounded")
    weights = compute_weights(demands)

    cells = [
        (k, solver_index, spec)
        for k in range(cfg.max_producers, 0, -1)
        for solver_index, spec in enumerate(cfg.solvers)
    ]

    def run_one(cell):
        k, solver_index, spec = cell
        try:
            _, report = solve_cell(
                topo, weights, k, spec, _cell_seed(cfg.seed, k, solver_index),
                penalty=cfg.penalty, kpi_alpha=cfg.kpi_alpha, sp=sp,
            )
        except SolverError as exc:
            if spec.name != "exhaustive":  # only its size cap skips a cell
                raise
            return k, solver_index, None, f"k={k} {spec.name}: skipped ({exc})"
        return k, solver_index, report, None

    if threads == 1:
        outcomes = [run_one(cell) for cell in cells]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, cells))

    outcomes.sort(key=lambda item: (item[0], cfg.solvers[item[1]].name, item[1]))
    reports = tuple(item[2] for item in outcomes if item[2] is not None)
    warnings = tuple(item[3] for item in outcomes if item[3] is not None)

    timestamp = os.environ.get("SOURCE_DATE_EPOCH")
    provenance = {
        "label": label,
        "topology_hash": _topology_hash(topo),
        "demand_hash": _demand_hash(demands),
        "config": _config_echo(cfg),
        "timestamp": int(timestamp) if timestamp is not None else None,
        "version": VERSION,
    }
    return SweepResult(reports=reports, warnings=warnings, provenance=provenance)


def sweep_to_dict(result: SweepResult) -> dict:
    return {
        "provenance": result.provenance,
        "warnings": list(result.warnings),
        "reports": [r.as_dict() for r in result.reports],
    }


def sweep_from_dict(doc) -> SweepResult:
    """The SweepResult a sweep_to_dict document holds. Raises
    WorkflowError, "not a sweep result file (...)", unless provenance
    is an object whose config holds max_producers and kpi_alpha that
    SweepConfig accepts (its refusal shown after "provenance.config."),
    and whose label, if any, is a string or null; warnings, if any, is a
    list of strings; and reports is a list of objects, each a valid
    KpiReport (its refusal shown after "reports[i].") whose k is at most
    max_producers, whose kpi_alpha is the config's, whose kpi number
    recomputes from its parts within 1e-12 and whose assignment, if
    any, is as long as every other report's; no two reports may share a
    (k, solver) cell. Numbers are read by ioutil.number."""

    def bad(what: str) -> WorkflowError:
        return WorkflowError(f"not a sweep result file ({what})")

    provenance = doc.get("provenance") if isinstance(doc, dict) else None
    config = provenance.get("config") if isinstance(provenance, dict) else None
    if not (isinstance(config, dict) and {"max_producers", "kpi_alpha"} <= config.keys()):
        raise bad("expected an object whose provenance.config holds max_producers and kpi_alpha")
    try:
        config = SweepConfig(max_producers=config["max_producers"], kpi_alpha=config["kpi_alpha"])
    except WorkflowError as exc:
        raise bad(f"provenance.config.{exc}") from exc
    max_producers, kpi_alpha = config.max_producers, config.kpi_alpha
    if not isinstance(provenance.get("label", ""), str | None):
        raise bad(f"provenance.label must be a string or null, got {shown(provenance['label'])}")
    warnings = doc.get("warnings", [])
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise bad(f"warnings must be a list of strings, got {shown(warnings)}")
    entries = doc.get("reports")
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise bad("'reports' must be a list of objects")
    reports, cells = [], set()
    for at, e in enumerate(entries):
        k = e.get("k")  # before KpiReport, so k = 0 reads as outside 1..max_producers
        if integral(type(k)) and not 1 <= k <= max_producers:
            raise bad(f"reports[{at}].k must lie in 1..{max_producers}, got {k}")
        try:
            report = KpiReport(
                solver_name=e.get("solver"), assignment=e.get("assignment", ()),
                **{f: e.get(f) for f in ("k", "jain", "distance_index", "kpi_alpha", "energy")},
            )
        except FairnessError as exc:
            raise bad(f"reports[{at}].{exc}") from exc
        kpi = number(e.get("kpi"), f"reports[{at}].kpi", bad)
        if not abs(kpi - report.kpi) <= 1e-12:  # a NaN kpi too
            raise bad(f"reports[{at}].kpi {shown(kpi)} does not recompute from its parts "
                      f"({report.kpi!r})")
        if report.kpi_alpha != kpi_alpha:
            raise bad(f"reports[{at}].kpi_alpha must equal provenance.config.kpi_alpha "
                      f"{shown(kpi_alpha)}, got {shown(report.kpi_alpha)}")
        if reports and len(report.assignment) != len(reports[0].assignment):
            raise bad(f"reports[{at}].assignment covers {len(report.assignment)} nodes, "
                      f"but reports[0].assignment covers {len(reports[0].assignment)}")
        cell = (report.k, report.solver_name)
        if cell in cells:
            raise bad(f"reports[{at}] repeats the cell k={cell[0]}, solver {shown(cell[1])}")
        cells.add(cell)
        reports.append(report)
    return SweepResult(tuple(reports), tuple(warnings), provenance)


def sweep_to_csv_text(result: SweepResult) -> str:
    rows = [(r.k, r.solver_name, r.jain, r.distance_index, r.kpi, r.energy) for r in result.reports]
    return csv_text([("k", "solver", "jain", "distance_index", "kpi", "energy"), *rows])


def sweep_to_gnuplot_texts(result: SweepResult) -> dict[str, str]:
    """Three plottable files (k vs value), one block per solver,
    keyed by index name."""
    out = {}
    for index_name in ("jain", "distance_index", "kpi"):
        blocks = []
        for name in dict.fromkeys(r.solver_name for r in result.reports):
            rows = [f"# solver: {name}"]
            rows += [f"{r.k} {getattr(r, index_name)!r}"
                     for r in result.reports if r.solver_name == name]
            blocks.append("\n".join(rows))
        out[index_name] = "\n\n".join(blocks) + "\n"
    return out


def _refuse_repeats(names, what: str) -> None:
    """Raise WorkflowError if a name occurs twice: its rows or files
    would be written twice, and no reader could tell them apart."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise WorkflowError(f"{what} named more than once: {', '.join(repeated)}")


def check_formats(formats) -> None:
    """Raise WorkflowError unless formats names at least one output
    format, each once, and only known ones: json, csv, gnuplot."""
    formats = list(formats)
    unknown = set(formats) - {"json", "csv", "gnuplot"}
    if unknown:
        raise WorkflowError(f"unknown output formats: {sorted(unknown)}; valid: json, csv, gnuplot")
    if not formats:
        raise WorkflowError("select at least one output format")
    _refuse_repeats(formats, "output format")


def write_sweep(result: SweepResult, prefix: str, formats) -> list[str]:
    """Write result in each format in the order given (<prefix>.json,
    <prefix>.csv, <prefix>.{jain,distance_index,kpi}.dat) and return the
    paths; a selection check_formats refuses writes nothing."""
    formats = list(formats)
    check_formats(formats)
    written = []
    for fmt in formats:
        if fmt == "json":
            written.append(prefix + ".json")
            write_json(written[-1], sweep_to_dict(result))
        elif fmt == "csv":
            written.append(prefix + ".csv")
            atomic_write_text(written[-1], sweep_to_csv_text(result))
        else:
            for index_name, text in sweep_to_gnuplot_texts(result).items():
                written.append(f"{prefix}.{index_name}.dat")
                atomic_write_text(written[-1], text)
    return written


def load_sweep(path: str) -> SweepResult:
    """The sweep a write_sweep JSON file holds; errors name the file."""
    doc = read_json(path, WorkflowError)
    try:
        return sweep_from_dict(doc)
    except WorkflowError as exc:
        raise WorkflowError(f"{path}: {exc}") from exc


def compare_topologies(sweeps) -> list[dict]:
    """Merge sweeps into one long-format table for plotting: columns
    topology (each sweep's provenance label, or sweep<i> without one),
    solver, k, jain, distance_index, kpi. Sweeps must share
    max_producers and kpi_alpha."""
    sweeps = list(sweeps)
    if not sweeps:
        raise WorkflowError("need at least one sweep to compare")
    labels = [s.provenance.get("label") for s in sweeps]
    labels = [str(x) if x is not None else f"sweep{i}" for i, x in enumerate(labels)]
    if len(set(labels)) != len(labels):
        raise WorkflowError(f"sweep labels must be distinct, got {labels}")
    reference = sweeps[0].provenance["config"]
    for label, sweep in zip(labels[1:], sweeps[1:]):
        cfg = sweep.provenance["config"]
        for field in ("max_producers", "kpi_alpha"):
            if cfg[field] != reference[field]:
                raise WorkflowError(
                    f"sweep {label!r} has {field}={cfg[field]!r}, "
                    f"expected {reference[field]!r}"
                )
    rows = [
        {"topology": label, "solver": r.solver_name, "k": r.k, "jain": r.jain,
         "distance_index": r.distance_index, "kpi": r.kpi}
        for label, sweep in zip(labels, sweeps) for r in sweep.reports
    ]
    rows.sort(key=lambda row: (row["topology"], row["solver"], row["k"]))
    return rows


def comparison_to_csv_text(rows: list[dict]) -> str:
    columns = ("topology", "solver", "k", "jain", "distance_index", "kpi")
    return csv_text([columns, *([row[c] for c in columns] for row in rows)])
