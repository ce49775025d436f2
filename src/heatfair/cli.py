"""Command-line entry point.

Subcommands: generate, weights, qubo, solve, sweep, compare. Every
output file is written atomically; failures leave no partial files and
exit nonzero with a single "error: ..." line on stderr.

Option precedence is defaults < --config file < explicit flags. All
randomness flows from --seed (default 0), and outputs contain no
timestamps or timings, so a repeated invocation with the same seed
produces byte-identical files. Relative output paths resolve against
$HEATFAIR_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import demand, graphs, qubo, workflow
from .fairness import FairnessError, KpiReport, score_assignment
from .ioutil import atomic_write_text
from .solvers import SolverError

OUTPUT_DIR_ENV = "HEATFAIR_OUTPUT_DIR"

_ERROR_TYPES = (
    graphs.TopologyError,
    demand.DemandError,
    qubo.QuboError,
    SolverError,
    FairnessError,
    workflow.WorkflowError,
    OSError,
)


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV)
    if not base:
        return path
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, path)


def _write_json(doc: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _distance_rule(args: dict) -> graphs.DistanceRule:
    return graphs.DistanceRule(
        kind=args["distance"], low=args["low"], high=args["high"]
    )


def _custom_penalty(args: dict) -> qubo.PenaltyConfig | None:
    """Penalties from flags, or None when all three are unset (use the
    instance-derived defaults then)."""
    if args["alpha"] is None and args["gamma"] is None and args["beta"] is None:
        return None
    if args["alpha"] is None or args["gamma"] is None:
        raise workflow.WorkflowError(
            "set --alpha and --gamma together (or neither, for defaults)"
        )
    beta = 1.0 if args["beta"] is None else args["beta"]
    return qubo.PenaltyConfig(beta=beta, alpha=args["alpha"], gamma=args["gamma"])


# the solver knobs of solve and sweep, defaulting as in SolverSpec
_SOLVER_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(workflow.SolverSpec) if f.name != "name"
}


def _solver_spec(args: dict, name: str) -> workflow.SolverSpec:
    return workflow.SolverSpec(name=name, **{key: args[key] for key in _SOLVER_DEFAULTS})


# what solve and sweep share
_SHARED_DEFAULTS = {
    "beta": None,
    "alpha": None,
    "gamma": None,
    **_SOLVER_DEFAULTS,
    "kpi_alpha": 0.5,
    "seed": 0,
}

# per-subcommand defaults; argparse fills None so a config file can sit
# between these and explicit flags
_DEFAULTS: dict[str, dict] = {
    "generate": {
        "nodes": None,
        "chords": 0,
        "branching": 2,
        "distance": "unit",
        "low": 0.5,
        "high": 2.0,
        "seed": 0,
        "output": "topology.json",
    },
    "weights": {"output": "weights.json"},
    "qubo": {
        "k": None,
        "weights": None,
        "unweighted": False,
        "beta": None,
        "alpha": None,
        "gamma": None,
        "output": "instance.qubo",
    },
    "solve": {
        "k": None,
        "weights": None,
        "solver": "heuristic",
        **_SHARED_DEFAULTS,
        "output": "result.json",
    },
    "sweep": {
        "demands": None,
        "max_producers": 4,
        "solvers": "heuristic",
        **_SHARED_DEFAULTS,
        "threads": 1,
        "format": "json,csv",
        "label": None,
        "output": "sweep",
    },
    "compare": {"output": "comparison.csv"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatfair",
        description="Balanced producer assignment and fairness scoring "
        "for district-heating networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic topology file")
    gen.add_argument("kind", choices=("tree", "ring"))
    gen.add_argument("--nodes", type=int)
    gen.add_argument("--chords", type=int, help="extra non-ring edges (ring only)")
    gen.add_argument("--branching", type=int, help="children per node (tree only)")
    gen.add_argument("--distance", choices=("unit", "uniform"))
    gen.add_argument("--low", type=float, help="uniform distance lower bound")
    gen.add_argument("--high", type=float, help="uniform distance upper bound")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--config")
    gen.add_argument("-o", "--output")

    wts = sub.add_parser("weights", help="derive node weights from a demand CSV")
    wts.add_argument("demands")
    wts.add_argument("--config")
    wts.add_argument("-o", "--output")

    qub = sub.add_parser("qubo", help="export an assignment instance in "
                         "coordinate format")
    qub.add_argument("topology")
    qub.add_argument("--k", type=int)
    qub.add_argument("--weights", help="weights JSON (omit with --unweighted)")
    qub.add_argument("--unweighted", action="store_true", default=None)
    qub.add_argument("--beta", type=float)
    qub.add_argument("--alpha", type=float)
    qub.add_argument("--gamma", type=float)
    qub.add_argument("--config")
    qub.add_argument("-o", "--output")

    slv = sub.add_parser("solve", help="solve one instance and score it")
    slv.add_argument("--weights")
    slv.add_argument("--k", type=int)
    slv.add_argument("--solver", choices=workflow.SOLVER_NAMES)

    swp = sub.add_parser("sweep", help="score k = 1..N for each solver")
    swp.add_argument("--demands")
    swp.add_argument("--max-producers", type=int)
    swp.add_argument("--solvers", help="comma-separated solver names")
    swp.add_argument("--threads", type=int)
    swp.add_argument("--format", help="comma-separated: json, csv, gnuplot")
    swp.add_argument("--label", help="topology label used by 'compare'")

    for command, output in ((slv, "result JSON path"), (swp, "output path prefix")):
        command.add_argument("topology")
        for flag, kind in (
            ("--beta", float), ("--alpha", float), ("--gamma", float),
            ("--sweeps", int), ("--restarts", int),
            ("--t-initial", float), ("--t-final", float),
            ("--exhaustive-cap", int), ("--kpi-alpha", float), ("--seed", int),
        ):
            command.add_argument(flag, type=kind)
        command.add_argument("--schedule", choices=("geometric", "linear"))
        command.add_argument("--config")
        command.add_argument("-o", "--output", help=output)

    cmp_ = sub.add_parser("compare", help="merge sweep JSON files into one table")
    cmp_.add_argument("sweeps", nargs="+")
    cmp_.add_argument("--config")
    cmp_.add_argument("-o", "--output")

    for command in sub.choices.values():
        command.set_defaults(option_actions={a.dest: a for a in command._actions})
    return parser


def _config_value(path: str, key: str, value, action: argparse.Action, default):
    """A config value as its flag would give it: an integer for an int
    option (never a boolean), a number as float for a float option,
    true or false for a switch, else a string; null where the default
    is null."""
    if value is None and default is None:
        return None
    kinds = {int: (int,), float: (int, float)}.get(
        action.type, (bool,) if action.nargs == 0 else (str,)
    )
    try:
        if isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)):
            return float(value) if action.type is float else value
    except OverflowError:
        pass
    names = " or ".join(kind.__name__ for kind in kinds)
    raise workflow.WorkflowError(f"{path}: {key!r} must be {names}, got {json.dumps(value)}")


def _effective_args(ns: argparse.Namespace) -> dict:
    defaults = dict(_DEFAULTS[ns.command])
    merged = dict(defaults)
    config_path = getattr(ns, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON, or an int past the digit limit
                raise workflow.WorkflowError(
                    f"{config_path}: not valid JSON ({exc})"
                ) from exc
        if not isinstance(doc, dict):
            raise workflow.WorkflowError(f"{config_path}: expected a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise workflow.WorkflowError(
                f"{config_path}: unknown config keys: {sorted(unknown)}"
            )
        merged.update(
            (key, _config_value(config_path, key, value, ns.option_actions[key], defaults[key]))
            for key, value in doc.items()
        )
    for key in defaults:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    if merged.get("seed", 0) < 0:  # numpy seeds are non-negative
        raise workflow.WorkflowError(f"--seed must be >= 0, got {merged['seed']}")
    return merged


def _cmd_generate(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    if args["nodes"] is None:
        raise workflow.WorkflowError("--nodes is required")
    rule = _distance_rule(args)
    if ns.kind == "ring":
        topo = graphs.generate_ring(
            args["nodes"], chords=args["chords"], rule=rule, seed=args["seed"]
        )
    else:
        topo = graphs.generate_tree(
            args["nodes"], branching=args["branching"], rule=rule, seed=args["seed"]
        )
    out = _resolve_output(args["output"])
    graphs.save_topology(topo, out)
    print(
        f"wrote {ns.kind} with {topo.nodes} nodes, {topo.num_edges} edges "
        f"to {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_weights(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    demands = demand.load_demands(ns.demands)
    weights = demand.compute_weights(demands)
    out = _resolve_output(args["output"])
    demand.save_weights(weights, out, labels=demands.labels)
    print(f"wrote {weights.nodes} weights to {out}", file=sys.stderr)
    return 0


def _cmd_qubo(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    if args["k"] is None:
        raise workflow.WorkflowError("--k is required")
    topo = graphs.load_topology(ns.topology)
    penalty = _custom_penalty(args)
    if args["unweighted"]:
        if penalty is None:
            penalty = qubo.default_penalties(
                topo, demand.uniform_weights(topo.nodes), args["k"]
            )
        instance = qubo.build_unweighted_qubo(topo, args["k"], penalty)
    else:
        if args["weights"] is None:
            raise workflow.WorkflowError(
                "--weights is required unless --unweighted is set"
            )
        weights = demand.load_weights(args["weights"])
        if penalty is None:
            penalty = qubo.default_penalties(topo, weights, args["k"])
        instance = qubo.build_qubo(topo, weights, args["k"], penalty)
    out = _resolve_output(args["output"])
    qubo.export_qubo(instance, out)
    print(
        f"wrote {instance.num_vars} variables, {len(instance.linear)} linear "
        f"and {len(instance.quadratic)} quadratic terms to {out} (+ .map)",
        file=sys.stderr,
    )
    return 0


def _cmd_solve(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    if args["weights"] is None:
        raise workflow.WorkflowError("--weights is required")
    if args["k"] is None:
        raise workflow.WorkflowError("--k is required")
    started = time.monotonic()
    topo = graphs.load_topology(ns.topology)
    weights = demand.load_weights(args["weights"])
    k = args["k"]
    penalty = _custom_penalty(args)
    if penalty is None:
        penalty = qubo.default_penalties(topo, weights, k)
    instance = qubo.build_qubo(topo, weights, k, penalty)
    name = args["solver"]
    result = workflow._solve_cell(_solver_spec(args, name), args["seed"], instance)
    report = score_assignment(
        result.assignment, topo, weights,
        kpi_alpha=args["kpi_alpha"], solver_name=name, energy=result.energy,
    )
    doc = result.as_dict()
    doc["wall_time"] = None  # keep outputs byte-stable; timing goes to stderr
    doc.update(
        {
            "jain": report.jain,
            "distance_index": report.distance_index,
            "kpi": report.kpi,
            "kpi_alpha": report.kpi_alpha,
        }
    )
    out = _resolve_output(args["output"])
    _write_json(doc, out)
    print(
        f"{name}: energy {result.energy!r}, kpi {report.kpi!r} "
        f"({time.monotonic() - started:.2f}s) -> {out}",
        file=sys.stderr,
    )
    return 0


def _sweep_formats(raw: str) -> list[str]:
    formats = [f.strip() for f in raw.split(",") if f.strip()]
    valid = {"json", "csv", "gnuplot"}
    unknown = set(formats) - valid
    if unknown:
        raise workflow.WorkflowError(
            f"unknown output formats: {sorted(unknown)}; valid: json, csv, gnuplot"
        )
    if not formats:
        raise workflow.WorkflowError("select at least one output format")
    return formats


def _cmd_sweep(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    if args["demands"] is None:
        raise workflow.WorkflowError("--demands is required")
    started = time.monotonic()
    topo = graphs.load_topology(ns.topology)
    demands = demand.load_demands(args["demands"])
    solver_names = [s.strip() for s in args["solvers"].split(",") if s.strip()]
    if not solver_names:
        raise workflow.WorkflowError("select at least one solver")
    specs = tuple(_solver_spec(args, name) for name in solver_names)
    penalty = _custom_penalty(args)
    cfg = workflow.SweepConfig(
        max_producers=args["max_producers"],
        solvers=specs,
        penalty=penalty,
        kpi_alpha=args["kpi_alpha"],
        seed=args["seed"],
    )
    label = args["label"]
    if label is None:
        label = os.path.splitext(os.path.basename(ns.topology))[0]
    result = workflow.run_sweep(
        topo, demands, cfg, threads=args["threads"], label=label
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    prefix = args["output"]
    written = []
    for fmt in _sweep_formats(args["format"]):
        if fmt == "json":
            path = _resolve_output(prefix + ".json")
            _write_json(workflow.sweep_to_dict(result), path)
            written.append(path)
        elif fmt == "csv":
            path = _resolve_output(prefix + ".csv")
            atomic_write_text(path, workflow.sweep_to_csv_text(result))
            written.append(path)
        else:
            for index_name, text in workflow.sweep_to_gnuplot_texts(result).items():
                path = _resolve_output(f"{prefix}.{index_name}.dat")
                atomic_write_text(path, text)
                written.append(path)
    print(
        f"swept k=1..{cfg.max_producers} with {len(specs)} solver(s) in "
        f"{time.monotonic() - started:.2f}s; wrote {', '.join(written)}",
        file=sys.stderr,
    )
    return 0


def _load_sweep_result(path: str) -> workflow.SweepResult:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, or an int past the digit limit
            raise workflow.WorkflowError(f"{path}: not valid JSON ({exc})") from exc
    try:
        reports = tuple(_report_from_dict(entry) for entry in doc["reports"])
        return workflow.SweepResult(
            reports=reports,
            warnings=tuple(doc.get("warnings", ())),
            provenance=doc["provenance"],
        )
    except (KeyError, TypeError) as exc:
        raise workflow.WorkflowError(
            f"{path}: not a sweep result file ({exc!r})"
        ) from exc


def _report_from_dict(entry: dict) -> KpiReport:
    return KpiReport(
        k=entry["k"],
        jain=entry["jain"],
        distance_index=entry["distance_index"],
        kpi=entry["kpi"],
        kpi_alpha=entry["kpi_alpha"],
        solver_name=entry["solver"],
        energy=entry["energy"],
        assignment=tuple(entry.get("assignment", ())),
    )


def _cmd_compare(ns: argparse.Namespace) -> int:
    args = _effective_args(ns)
    sweeps = [_load_sweep_result(path) for path in ns.sweeps]
    rows = workflow.compare_topologies(sweeps)
    out = _resolve_output(args["output"])
    atomic_write_text(out, workflow.comparison_to_csv_text(rows))
    print(f"wrote {len(rows)} comparison rows to {out}", file=sys.stderr)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "weights": _cmd_weights,
    "qubo": _cmd_qubo,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return _HANDLERS[ns.command](ns)
    except _ERROR_TYPES as exc:
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
