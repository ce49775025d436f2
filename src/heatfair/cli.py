"""Command-line entry point.

Subcommands: generate, weights, qubo, solve, sweep, compare. Every
output file is written atomically, so none is left half written, but
the files a command wrote before a failing one stay (the .qubo before
its .map, a sweep's formats). Failures exit nonzero with a single
"error: ..." line on stderr, which names the file a write failed on.

Option precedence is defaults < --config file < explicit flags. All
randomness flows from --seed (default 0), and outputs contain no
timestamps or timings, so a repeated invocation with the same seed
produces byte-identical files. Relative output paths resolve against
$HEATFAIR_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

from . import demand, graphs, qubo, workflow
from .fairness import FairnessError
from .ioutil import atomic_write_text, number, read_json, shown, write_json
from .solvers import SCHEDULES, SolverError

OUTPUT_DIR_ENV = "HEATFAIR_OUTPUT_DIR"

ERROR_TYPES = (
    graphs.TopologyError,
    demand.DemandError,
    qubo.QuboError,
    SolverError,
    FairnessError,
    workflow.WorkflowError,
    OSError,
    MemoryError,
)


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV)
    if not base:
        return path
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, path)


def _custom_penalty(args: dict) -> qubo.PenaltyConfig | None:
    """Penalties from flags, or None when all three are unset (use the
    instance-derived defaults then)."""
    if args["alpha"] is None and args["gamma"] is None and args["beta"] is None:
        return None
    if args["alpha"] is None or args["gamma"] is None:
        raise workflow.WorkflowError("set --alpha and --gamma together (or neither, for defaults)")
    beta = 1.0 if args["beta"] is None else args["beta"]
    return qubo.PenaltyConfig(beta=beta, alpha=args["alpha"], gamma=args["gamma"])


def _config_value(path: str, key: str, value, kind, default):
    """A config value as its flag would give it: an integer for an int
    option, a number as float for a float option (both read by
    ioutil.number), true or false for a switch, else a string; null
    where the default is null or the option is required (it is left
    unset then)."""
    if value is None and (default is None or default is ...):
        return default
    what = f"{path}: {key!r}"
    if kind in (int, float):
        return number(value, what, workflow.WorkflowError, integer=kind is int)
    if isinstance(value, bool if kind is bool else str):
        return value
    noun = "true or false" if kind is bool else "a string"
    raise workflow.WorkflowError(f"{what} must be {noun}, got {shown(value)}")


def _effective_args(ns: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[ns.command]
    merged = dict(defaults)
    config_path = ns.config
    if config_path:
        doc = read_json(config_path, workflow.WorkflowError)
        if not isinstance(doc, dict):
            raise workflow.WorkflowError(f"{config_path}: expected a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise workflow.WorkflowError(f"{config_path}: unknown config keys: {sorted(unknown)}")
        merged.update(
            (key, _config_value(config_path, key, value, _KINDS[ns.command][key], defaults[key]))
            for key, value in doc.items()
        )
    merged.update((key, getattr(ns, key)) for key in defaults if getattr(ns, key) is not None)
    for key, least in (("seed", 0), ("threads", 1)):  # numpy seeds are >= 0
        if merged.get(key, least) < least:
            raise workflow.WorkflowError(f"--{key} must be >= {least}, got {merged[key]}")
    missing = [key for key, value in merged.items() if value is ...]
    if missing:
        raise workflow.WorkflowError(f"--{missing[0].replace('_', '-')} is required")
    return merged


def _cmd_generate(ns: argparse.Namespace, args: dict) -> int:
    rule = graphs.DistanceRule(kind=args["distance"], low=args["low"], high=args["high"])
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


def _cmd_weights(ns: argparse.Namespace, args: dict) -> int:
    demands = demand.load_demands(ns.demands)
    weights = demand.compute_weights(demands)
    out = _resolve_output(args["output"])
    demand.save_weights(weights, out, labels=demands.labels)
    print(f"wrote {weights.nodes} weights to {out}", file=sys.stderr)
    return 0


def _cmd_qubo(ns: argparse.Namespace, args: dict) -> int:
    topo = graphs.load_topology(ns.topology)
    penalty = _custom_penalty(args)
    if args["unweighted"]:
        if args["weights"] is not None:
            raise workflow.WorkflowError("--weights and --unweighted exclude each other")
        instance = qubo.build_unweighted_qubo(topo, args["k"], penalty)
    else:
        if args["weights"] is None:
            raise workflow.WorkflowError(
                "--weights is required unless --unweighted is set"
            )
        weights = demand.load_weights(args["weights"])
        instance = qubo.build_qubo(topo, weights, args["k"], penalty)
    warning = workflow.precision_warning(instance)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    out = _resolve_output(args["output"])
    qubo.export_qubo(instance, out)
    print(
        f"wrote {instance.num_vars} variables, {instance.terms.lin_vals.size} linear "
        f"and {instance.terms.vals.size} quadratic terms to {out} (+ .map)",
        file=sys.stderr,
    )
    return 0


def _cmd_solve(ns: argparse.Namespace, args: dict) -> int:
    started = time.monotonic()
    topo = graphs.load_topology(ns.topology)
    weights = demand.load_weights(args["weights"])
    name = args["solver"]
    result, report = workflow.solve_cell(
        topo, weights, args["k"], _solver_spec(args, name), args["seed"],
        penalty=_custom_penalty(args), kpi_alpha=args["kpi_alpha"],
    )
    doc = result.as_dict()
    doc["wall_time"] = None  # keep outputs byte-stable; timing goes to stderr
    doc.update((key, getattr(report, key)) for key in ("jain", "distance_index", "kpi", "kpi_alpha"))
    out = _resolve_output(args["output"])
    write_json(out, doc)
    print(
        f"{name}: energy {result.energy!r}, kpi {report.kpi!r} "
        f"({time.monotonic() - started:.2f}s) -> {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(ns: argparse.Namespace, args: dict) -> int:
    started = time.monotonic()
    formats = [f.strip() for f in args["format"].split(",") if f.strip()]
    workflow.check_formats(formats)  # before any cell is solved or the output folder made
    topo = graphs.load_topology(ns.topology)
    if not 1 <= args["max_producers"] <= topo.nodes:
        raise workflow.WorkflowError(
            f"--max-producers must lie in 1..{topo.nodes}, got {args['max_producers']}"
        )
    demands = demand.load_demands(args["demands"])
    solver_names = [s.strip() for s in args["solvers"].split(",") if s.strip()]
    specs = tuple(_solver_spec(args, name) for name in solver_names)  # SweepConfig refuses none
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
    written = workflow.write_sweep(result, _resolve_output(args["output"]), formats)
    print(
        f"swept k=1..{cfg.max_producers} with {len(specs)} solver(s) in "
        f"{time.monotonic() - started:.2f}s; wrote {', '.join(written)}",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(ns: argparse.Namespace, args: dict) -> int:
    rows = workflow.compare_topologies([workflow.load_sweep(path) for path in ns.sweeps])
    out = _resolve_output(args["output"])
    atomic_write_text(out, workflow.comparison_to_csv_text(rows))
    print(f"wrote {len(rows)} comparison rows to {out}", file=sys.stderr)
    return 0


# One row per option, in help order: flag, kind, default, help text. A
# kind is int, float, str, a tuple of choices or bool (a switch). A
# default of ... marks an option the flag or the config must set. The
# long flag with "_" for "-" is the option's config key. argparse fills
# None, so a config file can sit between these defaults and the flags.
_PENALTIES = (
    ("--beta", float, None, None),
    ("--alpha", float, None, None),
    ("--gamma", float, None, None),
)

# the solver knobs of solve and sweep are SolverSpec's fields, with its
# defaults; an unset temperature is a float
_KNOBS = {f.name: f.default for f in dataclasses.fields(workflow.SolverSpec) if f.name != "name"}
_SOLVING = (
    *_PENALTIES,
    *(("--" + key.replace("_", "-"), float if default is None else type(default), default, None)
      for key, default in _KNOBS.items() if key != "schedule"),
    ("--kpi-alpha", float, 0.5, None),
    ("--seed", int, 0, None),
    ("--schedule", SCHEDULES, _KNOBS["schedule"], None),
)

# per subcommand: handler, help, positional argument, options
_COMMANDS = {
    "generate": (_cmd_generate, "generate a synthetic topology file",
                 ("kind", {"choices": ("tree", "ring")}), (
        ("--nodes", int, ..., None),
        ("--chords", int, 0, "extra non-ring edges (ring only)"),
        ("--branching", int, 2, "children per node (tree only)"),
        ("--distance", ("unit", "uniform"), "unit", None),
        ("--low", float, 0.5, "uniform distance lower bound"),
        ("--high", float, 2.0, "uniform distance upper bound"),
        ("--seed", int, 0, None),
        ("--output", str, "topology.json", None),
    )),
    "weights": (_cmd_weights, "derive node weights from a demand CSV", ("demands", {}), (
        ("--output", str, "weights.json", None),
    )),
    "qubo": (_cmd_qubo, "export an assignment instance in coordinate format", ("topology", {}), (
        ("--k", int, ..., None),
        ("--weights", str, None, "weights JSON (omit with --unweighted)"),
        ("--unweighted", bool, False, None),
        *_PENALTIES,
        ("--output", str, "instance.qubo", None),
    )),
    "solve": (_cmd_solve, "solve one instance and score it", ("topology", {}), (
        ("--weights", str, ..., None),
        ("--k", int, ..., None),
        ("--solver", workflow.SOLVER_NAMES, "heuristic", None),
        *_SOLVING,
        ("--output", str, "result.json", "result JSON path"),
    )),
    "sweep": (_cmd_sweep, "score k = 1..N for each solver", ("topology", {}), (
        ("--demands", str, ..., None),
        ("--max-producers", int, 4, None),
        ("--solvers", str, "heuristic", "comma-separated solver names"),
        ("--threads", int, 1, None),
        ("--format", str, "json,csv", "comma-separated: json, csv, gnuplot"),
        ("--label", str, None, "topology label used by 'compare'"),
        *_SOLVING,
        ("--output", str, "sweep", "output path prefix"),
    )),
    "compare": (_cmd_compare, "merge sweep JSON files into one table", ("sweeps", {"nargs": "+"}), (
        ("--output", str, "comparison.csv", None),
    )),
}
# per subcommand, config key -> kind and config key -> default
_KINDS, _DEFAULTS = (
    {name: {row[0][2:].replace("-", "_"): row[i] for row in rows}
     for name, (*_, rows) in _COMMANDS.items()}
    for i in (1, 2)
)


def _solver_spec(args: dict, name: str) -> workflow.SolverSpec:
    return workflow.SolverSpec(name=name, **{key: args[key] for key in _KNOBS})


class Parser(argparse.ArgumentParser):
    """Reports a bad command line as one "error: ..." line and exit
    status 2, like every other failure; subparsers share the class, and
    the scripts under scripts/ parse with it too."""

    def error(self, message: str):
        print(f"error: {' '.join(message.split())}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="heatfair",
        description="Balanced producer assignment and fairness scoring "
        "for district-heating networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, (positional, how), rows) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        command.add_argument(positional, **how)
        for flag, kind, _, text in rows:
            if flag == "--output":  # --config, then -o/--output, end every subcommand
                command.add_argument("--config")
                command.add_argument("-o", flag, help=text)
            elif kind is bool:
                command.add_argument(flag, action="store_true", default=None, help=text)
            elif isinstance(kind, tuple):
                command.add_argument(flag, choices=kind, help=text)
            else:
                command.add_argument(flag, type=kind, help=text)
    return parser


def guarded(body, *args) -> int:
    """body(*args)'s exit status; a refused input (ERROR_TYPES) is shown
    as one "error: ..." line instead, with exit status 2."""
    try:
        return body(*args)
    except ERROR_TYPES as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    return guarded(lambda: _COMMANDS[ns.command][0](ns, _effective_args(ns)))


if __name__ == "__main__":
    sys.exit(main())
