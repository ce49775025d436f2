"""The benchmark's workloads: their inputs, one pass each, and the
checks that every pass's outputs are right.

Inputs come from the seed. Seed 0 reproduces the networks and demand
profile of scripts/reproduce_trends.py (pipe lengths uniform in
[0.5, 2.0], topology seed 7, demand seed 11, anchor scale 20). Any
other seed relabels the nodes of those networks by a seeded random
permutation, permutes the demand columns to match, and seeds the
solvers with the seed itself. Every seed thus poses an isomorphic
problem in a different node order: the program sees new files and new
solver streams, while the work stays comparable across seeds. Fresh
random networks per seed would change the problem itself: the anchor
consumer's share of demand alone moves the heuristic's energies by a
factor of about 20 between seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import traceback

import numpy as np

from oracle import (
    Network,
    check_qubo,
    check_report,
    coefficient_arrays,
    coefficient_digest,
    probe_bits,
)

TOPOLOGY_SEED = 7
DEMAND_SEED = 11
ANCHOR_SCALE = 20.0
TIMESTEPS = 168


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    label: str
    kind: str  # "ring" or "tree"
    nodes: int
    shape: int  # chords of a ring, branching of a tree


@dataclasses.dataclass
class PassCheck:
    """What one pass produced, as the checks saw it. Operations are
    keyed by name; a key in `failed` is a failed operation."""

    attempted: list = dataclasses.field(default_factory=list)
    failed: set = dataclasses.field(default_factory=set)
    problems: list = dataclasses.field(default_factory=list)
    energies: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)
    op_times: list = dataclasses.field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.problems.append(f"{op}: {message}")


def permutation(seed: int, n: int) -> np.ndarray:
    if seed == 0:
        return np.arange(n)
    return np.random.default_rng([seed, n]).permutation(n)


def generate_inputs(hf, spec: NetworkSpec, seed: int):
    """(topology, demand table) for one network, relabelled by seed."""
    rule = hf.DistanceRule(kind="uniform", low=0.5, high=2.0)
    if spec.kind == "ring":
        topo = hf.generate_ring(spec.nodes, chords=spec.shape, rule=rule, seed=TOPOLOGY_SEED)
    else:
        topo = hf.generate_tree(spec.nodes, branching=spec.shape, rule=rule, seed=TOPOLOGY_SEED)
    demands = hf.synthetic_demands(
        spec.nodes, timesteps=TIMESTEPS, seed=DEMAND_SEED, anchor_scale=ANCHOR_SCALE
    )
    perm = permutation(seed, spec.nodes)
    coords = [None] * spec.nodes
    for old, new in enumerate(perm):
        coords[new] = topo.coords[old]
    topo = hf.Topology(
        nodes=topo.nodes,
        edges=tuple((int(perm[a]), int(perm[b]), d) for a, b, d in topo.edges),
        coords=tuple(coords),
    )
    demands = hf.DemandMatrix(values=demands.values[:, np.argsort(perm)])
    return topo, demands


def oracle_network(topo, demands) -> Network:
    peaks = np.asarray(demands.values).max(axis=0)
    return Network(topo.nodes, topo.edges, peaks / peaks.sum())


def files_digest(directory: str, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def call_cli(hf, argv) -> str | None:
    """Run one `heatfair` command in-process; None on success, else
    what went wrong. The CLI's progress lines are swallowed."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stderr(buffer):
            status = hf.cli.main(list(argv))
    except (Exception, SystemExit):
        return f"heatfair {argv[0]} raised:\n{traceback.format_exc()}"
    if status != 0:
        return f"heatfair {argv[0]} exited {status}: {buffer.getvalue().strip()}"
    return None


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """k = 1..max_producers sweeps of each network, through the
    `heatfair sweep` CLI (then `heatfair compare`) or the run_sweep API.
    One operation is one (network, k, solver) cell."""

    name: str
    why: str
    nominal_pass_s: float
    networks: tuple[NetworkSpec, ...]
    max_producers: int
    solvers: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    via_cli: bool
    formats: tuple[str, ...] = ("json", "csv")
    ops_from_windows = False

    def make_inputs(self, hf, seed: int, inputs_dir: str) -> dict:
        ctx = {"seed": seed, "paths": {}, "networks": {}}
        demands = None
        for spec in self.networks:
            topo, demands = generate_inputs(hf, spec, seed)
            path = os.path.join(inputs_dir, f"{spec.label}.json")
            hf.save_topology(topo, path)
            ctx["paths"][spec.label] = path
            ctx["networks"][spec.label] = (topo, demands)
        # the networks share one node count, so one demand table serves all
        ctx["demands_path"] = os.path.join(inputs_dir, "demands.csv")
        hf.ioutil.atomic_write_text(ctx["demands_path"], hf.demands_to_csv_text(demands))
        return ctx

    def prepare_checks(self, hf, ctx: dict) -> None:
        ctx["oracles"] = {
            label: oracle_network(topo, demands)
            for label, (topo, demands) in ctx["networks"].items()
        }

    def cells(self):
        for spec in self.networks:
            for k in range(1, self.max_producers + 1):
                for solver, _ in self.solvers:
                    yield spec.label, k, solver

    def run_pass(self, hf, ctx: dict, out_dir: str, clock) -> PassCheck:
        errors = {}
        with clock.timed():
            for spec in self.networks:
                runner = self._sweep_cli if self.via_cli else self._sweep_api
                errors[spec.label] = runner(hf, ctx, spec.label, out_dir)
            if self.via_cli and len(self.networks) > 1:
                errors["compare"] = call_cli(hf, [
                    "compare",
                    *(os.path.join(out_dir, f"{s.label}.json") for s in self.networks),
                    "-o", os.path.join(out_dir, "comparison.csv"),
                ])
        return self.check_outputs(ctx, out_dir, errors)

    def _sweep_cli(self, hf, ctx, label, out_dir):
        names = ",".join(name for name, _ in self.solvers)
        flags = [f for _, options in self.solvers for key, value in options
                 for f in (f"--{key}", str(value))]
        return call_cli(hf, [
            "sweep", ctx["paths"][label], "--demands", ctx["demands_path"],
            "--max-producers", str(self.max_producers), "--solvers", names, *flags,
            "--seed", str(ctx["seed"]), "--threads", "1", "--label", label,
            "--format", ",".join(self.formats), "-o", os.path.join(out_dir, label),
        ])

    def _sweep_api(self, hf, ctx, label, out_dir):
        try:
            topo = hf.load_topology(ctx["paths"][label])
            demands = hf.load_demands(ctx["demands_path"])
            cfg = hf.SweepConfig(
                max_producers=self.max_producers,
                solvers=tuple(hf.SolverSpec(name=n, **dict(o)) for n, o in self.solvers),
                seed=ctx["seed"],
            )
            result = hf.run_sweep(topo, demands, cfg, threads=1, label=label)
            base = os.path.join(out_dir, label)
            write = hf.ioutil.atomic_write_text
            write(base + ".json", json.dumps(hf.sweep_to_dict(result), indent=2) + "\n")
            write(base + ".csv", hf.sweep_to_csv_text(result))
            for index_name, text in hf.sweep_to_gnuplot_texts(result).items():
                write(f"{base}.{index_name}.dat", text)
        except Exception:
            return f"run_sweep raised:\n{traceback.format_exc()}"
        return None

    def check_outputs(self, ctx: dict, out_dir: str, errors: dict) -> PassCheck:
        """Check every cell's report in out_dir; errors maps each
        network label (and "compare") to its call's failure or None."""
        check = PassCheck(attempted=list(self.cells()))
        produced = sorted(os.listdir(out_dir))
        shared = [n for n in produced if n == "comparison.csv"]
        if errors.get("compare"):
            for op in check.attempted:
                check.fail(op, errors["compare"])
        for spec in self.networks:
            label = spec.label
            ops = [op for op in check.attempted if op[0] == label]
            if errors[label]:
                for op in ops:
                    check.fail(op, errors[label])
                continue
            digest = files_digest(out_dir, [n for n in produced if n.startswith(label + ".")] + shared)
            try:
                with open(os.path.join(out_dir, label + ".json"), encoding="utf-8") as fh:
                    reports = json.load(fh)["reports"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                for op in ops:
                    check.fail(op, f"unreadable sweep output: {exc!r}")
                continue
            by_cell = {(r.get("k"), r.get("solver")): r for r in reports if isinstance(r, dict)}
            for op in ops:
                _, k, solver = op
                check.digests[op] = digest
                report = by_cell.get((k, solver))
                if report is None:
                    check.fail(op, "cell missing from the sweep output")
                    continue
                check.energies[op] = report.get("energy")
                for problem in check_report(ctx["oracles"][label], k, report):
                    check.fail(op, problem)
        return check


@dataclasses.dataclass(frozen=True)
class QuboIoWorkload:
    """Weighted and unweighted `heatfair qubo` exports of one network
    for several k, each imported back with import_qubo and evaluated
    with qubo.energy at a seeded probe assignment. One operation is
    one such round-trip; no solver runs."""

    name: str
    why: str
    nominal_pass_s: float
    network: NetworkSpec
    ks: tuple[int, ...]
    ops_from_windows = True

    def make_inputs(self, hf, seed: int, inputs_dir: str) -> dict:
        topo, demands = generate_inputs(hf, self.network, seed)
        ctx = {
            "seed": seed,
            "topology": topo,
            "demands": demands,
            "topology_path": os.path.join(inputs_dir, f"{self.network.label}.json"),
            "weights_path": os.path.join(inputs_dir, "weights.json"),
        }
        hf.save_topology(topo, ctx["topology_path"])
        hf.save_weights(hf.compute_weights(demands), ctx["weights_path"])
        return ctx

    def ops(self):
        for k in self.ks:
            for weighted in (True, False):
                yield k, "weighted" if weighted else "unweighted"

    def prepare_checks(self, hf, ctx: dict) -> None:
        """Fingerprint the coefficients the program builds in memory,
        so each exported-and-imported copy can be compared bit for bit."""
        topo = ctx["topology"]
        weights = hf.load_weights(ctx["weights_path"])
        ctx["oracle"] = oracle_network(topo, ctx["demands"])
        ctx["reference"] = {}
        ctx["probes"] = {}
        for k, variant in self.ops():
            if variant == "weighted":
                q = hf.build_qubo(topo, weights, k, hf.default_penalties(topo, weights, k))
            else:
                uniform = hf.uniform_weights(topo.nodes)
                q = hf.build_unweighted_qubo(topo, k, hf.default_penalties(topo, uniform, k))
            ctx["reference"][(k, variant)] = coefficient_digest(coefficient_arrays(q))
            rng = np.random.default_rng([ctx["seed"], k])
            ctx["probes"][k] = rng.integers(0, k, size=topo.nodes)

    def run_pass(self, hf, ctx: dict, out_dir: str, clock) -> PassCheck:
        check = PassCheck(attempted=list(self.ops()))
        for op in check.attempted:
            k, variant = op
            path = os.path.join(out_dir, f"{self.network.label}_k{k}_{variant}.qubo")
            argv = ["qubo", ctx["topology_path"], "--k", str(k), "-o", path]
            argv += ["--unweighted"] if variant == "unweighted" else ["--weights", ctx["weights_path"]]
            probe = ctx["probes"][k]
            with clock.timed():
                error = call_cli(hf, argv)
                if error is None:
                    try:
                        q = hf.import_qubo(path)
                        energy = hf.energy(q, probe_bits(q.n, q.k, probe))
                    except Exception:
                        error = f"round-trip raised:\n{traceback.format_exc()}"
            start, end = clock.windows[-1]
            check.op_times.append(end - start)
            if error is not None:
                check.fail(op, error)
                continue
            arrays = coefficient_arrays(q)
            del q
            check.energies[op] = energy
            check.digests[op] = files_digest(out_dir, [os.path.basename(path), os.path.basename(path) + ".map"])
            if coefficient_digest(arrays) != ctx["reference"][op]:
                check.fail(op, "imported coefficients differ from the built instance")
            for problem in check_qubo(ctx["oracle"], k, variant == "weighted", arrays, energy, probe):
                check.fail(op, problem)
        return check


RING24 = NetworkSpec("ring", "ring", 24, 4)
TREE24 = NetworkSpec("tree", "tree", 24, 3)
RING160 = NetworkSpec("ring160", "ring", 160, 26)

# nominal_pass_s is one pass's wall time on a 2-core Xeon sandbox; the
# pass count of a run is fixed from it, so both sides of a comparison
# measure the same work. BENCHMARK.json gates trends24 and anneal24
# only: the 160-node workloads' timings swing too much on a shared host
# (see README.md), so they run by name, ungated.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="trends24",
            why="the paper's ring-vs-tree k-sweep via the CLI; heuristic local search is ~90% of the time",
            nominal_pass_s=0.5,
            networks=(RING24, TREE24),
            max_producers=8,
            solvers=(("heuristic", (("restarts", 8),)),),
            via_cli=True,
            formats=("json", "csv", "gnuplot"),
        ),
        SweepWorkload(
            name="anneal24",
            why="the same networks annealed at 2000 sweeps x 8 restarts; Metropolis proposals are ~99% of the time",
            nominal_pass_s=4.0,
            networks=(RING24, TREE24),
            max_producers=4,
            solvers=(("anneal", (("sweeps", 2000), ("restarts", 8))),),
            via_cli=True,
        ),
        SweepWorkload(
            name="scale160",
            why="a 160-node ring via run_sweep, past the ~100-node slowdown; dense (n*k)^2 arrays and dict QUBOs show",
            nominal_pass_s=4.0,
            networks=(RING160,),
            max_producers=8,
            solvers=(("heuristic", (("restarts", 1),)), ("anneal", (("sweeps", 50), ("restarts", 1)))),
            via_cli=False,
            formats=("json", "csv", "gnuplot"),
        ),
        QuboIoWorkload(
            name="qubo_io",
            why="weighted and unweighted QUBO export/import round-trips of the 160-node ring; no solver runs",
            nominal_pass_s=1.8,
            network=RING160,
            ks=(2, 4, 8),
        ),
    )
}
