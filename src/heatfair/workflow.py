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
import os

import numpy as np

from . import graphs
from .demand import DemandMatrix, compute_weights
from .fairness import KpiReport, score_assignment
from .qubo import PenaltyConfig, build_qubo, default_penalties
from .solvers import AnnealConfig, SolverError, solve_anneal, solve_exhaustive, solve_heuristic

VERSION = "0.1.0"

SOLVER_NAMES = ("exhaustive", "anneal", "heuristic")


class WorkflowError(ValueError):
    """Raised for invalid sweep setups or mismatched comparisons."""


@dataclasses.dataclass(frozen=True)
class SolverSpec:
    """One solver selection plus its knobs. Fields irrelevant to the
    chosen solver are ignored."""

    name: str
    sweeps: int = 2000
    restarts: int = 8
    t_initial: float | None = None
    t_final: float | None = None
    schedule: str = "geometric"
    exhaustive_cap: int = 24

    def __post_init__(self) -> None:
        if self.name not in SOLVER_NAMES:
            raise WorkflowError(
                f"unknown solver {self.name!r}; valid names: "
                f"{', '.join(SOLVER_NAMES)}"
            )


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    max_producers: int = 4
    solvers: tuple[SolverSpec, ...] = (SolverSpec(name="heuristic"),)
    penalty: PenaltyConfig | None = None  # None means per-k defaults
    kpi_alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_producers < 1:
            raise WorkflowError(
                f"max_producers must be >= 1, got {self.max_producers}"
            )
        if not self.solvers:
            raise WorkflowError("select at least one solver")
        if not (0.0 <= self.kpi_alpha <= 1.0):
            raise WorkflowError(
                f"kpi_alpha must lie in [0, 1], got {self.kpi_alpha!r}"
            )
        object.__setattr__(self, "solvers", tuple(self.solvers))


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


def _solve_cell(topo, weights, k, penalty, spec: SolverSpec, seed: int, q):
    if spec.name == "exhaustive":
        return solve_exhaustive(q, max_vars=spec.exhaustive_cap)
    if spec.name == "anneal":
        cfg = AnnealConfig(
            sweeps=spec.sweeps,
            restarts=spec.restarts,
            t_initial=spec.t_initial,
            t_final=spec.t_final,
            schedule=spec.schedule,
            seed=seed,
        )
        return solve_anneal(q, cfg)
    return solve_heuristic(
        topo, weights, k, penalty, seed=seed, restarts=spec.restarts, qubo=q
    )


def run_sweep(
    topo: graphs.Topology,
    demands: DemandMatrix,
    cfg: SweepConfig,
    threads: int = 1,
    label: str | None = None,
) -> SweepResult:
    """Algorithm: for each k and solver, assign nodes and score the
    assignment. Skipped cells (solver size caps) become warnings, never
    silent gaps. Deterministic for a fixed seed, regardless of threads.
    """
    if threads < 1:
        raise WorkflowError(f"threads must be >= 1, got {threads}")
    sp = graphs.all_pairs_shortest_paths(topo)
    if not np.all(np.isfinite(sp)):
        raise WorkflowError(
            "topology is disconnected; pairwise distances are unbounded"
        )
    if demands.nodes != topo.nodes:
        raise WorkflowError(
            f"demand table covers {demands.nodes} nodes but topology has "
            f"{topo.nodes}"
        )
    if cfg.max_producers > topo.nodes:
        raise WorkflowError(
            f"max_producers={cfg.max_producers} exceeds node count {topo.nodes}"
        )
    weights = compute_weights(demands)

    cells = []
    for k in range(1, cfg.max_producers + 1):
        penalty = cfg.penalty if cfg.penalty is not None else default_penalties(
            topo, weights, k
        )
        q = build_qubo(topo, weights, k, penalty)
        for solver_index, spec in enumerate(cfg.solvers):
            seed = _cell_seed(cfg.seed, k, solver_index)
            cells.append((k, solver_index, spec, penalty, q, seed))

    def run_one(cell):
        k, solver_index, spec, penalty, q, seed = cell
        try:
            result = _solve_cell(topo, weights, k, penalty, spec, seed, q)
        except SolverError as exc:
            return k, solver_index, None, f"k={k} {spec.name}: skipped ({exc})"
        report = score_assignment(
            result.assignment,
            topo,
            weights,
            kpi_alpha=cfg.kpi_alpha,
            solver_name=spec.name,
            energy=result.energy,
            sp=sp,
        )
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


def sweep_to_csv_text(result: SweepResult) -> str:
    lines = ["k,solver,jain,distance_index,kpi,energy"]
    for r in result.reports:
        lines.append(
            f"{r.k},{r.solver_name},{r.jain!r},{r.distance_index!r},"
            f"{r.kpi!r},{r.energy!r}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_gnuplot_texts(result: SweepResult) -> dict[str, str]:
    """Three plottable files (k vs value), one block per solver,
    keyed by index name."""
    out = {}
    for index_name, getter in (
        ("jain", lambda r: r.jain),
        ("distance_index", lambda r: r.distance_index),
        ("kpi", lambda r: r.kpi),
    ):
        blocks = []
        solver_names = []
        for r in result.reports:
            if r.solver_name not in solver_names:
                solver_names.append(r.solver_name)
        for name in solver_names:
            rows = [f"# solver: {name}"]
            for r in result.reports:
                if r.solver_name == name:
                    rows.append(f"{r.k} {getter(r)!r}")
            blocks.append("\n".join(rows))
        out[index_name] = "\n\n".join(blocks) + "\n"
    return out


def compare_topologies(sweeps, labels=None) -> list[dict]:
    """Merge sweeps into one long-format table for plotting: columns
    topology, solver, k, jain, distance_index, kpi. Sweeps must share
    max_producers and kpi_alpha."""
    sweeps = list(sweeps)
    if not sweeps:
        raise WorkflowError("need at least one sweep to compare")
    if labels is None:
        labels = [s.provenance.get("label") for s in sweeps]
    labels = [str(x) if x is not None else f"sweep{i}" for i, x in enumerate(labels)]
    if len(labels) != len(sweeps):
        raise WorkflowError(
            f"got {len(labels)} labels for {len(sweeps)} sweeps"
        )
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
    rows = []
    for label, sweep in zip(labels, sweeps):
        for r in sweep.reports:
            rows.append(
                {
                    "topology": label,
                    "solver": r.solver_name,
                    "k": r.k,
                    "jain": r.jain,
                    "distance_index": r.distance_index,
                    "kpi": r.kpi,
                }
            )
    rows.sort(key=lambda row: (row["topology"], row["solver"], row["k"]))
    return rows


def comparison_to_csv_text(rows: list[dict]) -> str:
    lines = ["topology,solver,k,jain,distance_index,kpi"]
    for row in rows:
        lines.append(
            f"{row['topology']},{row['solver']},{row['k']},"
            f"{row['jain']!r},{row['distance_index']!r},{row['kpi']!r}"
        )
    return "\n".join(lines) + "\n"
