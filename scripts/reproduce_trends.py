#!/usr/bin/env python3
"""Run the headline experiment: sweep producer counts k = 1..8 on a
24-node ring and a 24-node tree that share one synthetic heterogeneous
demand profile, then compare the fairness/compactness trade-off curves.

Writes per-topology CSV and gnuplot-ready files plus a merged
comparison table, and prints the blended-score table with the best k
per topology.

Usage:
    python scripts/reproduce_trends.py [--out DIR] [--max-producers N]
                                       [--seed S] [--threads T]

A bad argument ends with exit status 2 and one "error: ..." line, and
writes nothing.
"""

import os
import sys

from heatfair import (
    DistanceRule,
    SolverSpec,
    SweepConfig,
    compare_topologies,
    comparison_to_csv_text,
    generate_ring,
    generate_tree,
    run_sweep,
    synthetic_demands,
)
from heatfair.cli import Parser, guarded
from heatfair.ioutil import atomic_write_text
from heatfair.workflow import write_sweep

NODES = 24  # of each network


def reproduce(args) -> int:
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topologies = {
        "ring": generate_ring(NODES, chords=4, rule=rule, seed=7),
        "tree": generate_tree(NODES, branching=3, rule=rule, seed=7),
    }
    demands = synthetic_demands(NODES, timesteps=168, seed=11, anchor_scale=20.0)
    cfg = SweepConfig(
        max_producers=args.max_producers,
        solvers=(SolverSpec(name="heuristic", restarts=args.restarts),),
        kpi_alpha=0.5,
        seed=args.seed,
    )

    sweeps = {}
    for label, topo in topologies.items():
        result = run_sweep(topo, demands, cfg, threads=args.threads, label=label)
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        sweeps[label] = result
    os.makedirs(args.out, exist_ok=True)
    for label, result in sweeps.items():
        write_sweep(result, os.path.join(args.out, label), ("csv", "gnuplot"))

    rows = compare_topologies([sweeps["ring"], sweeps["tree"]])
    atomic_write_text(
        os.path.join(args.out, "comparison.csv"), comparison_to_csv_text(rows)
    )

    print(f"{'k':>3} {'ring jain':>10} {'ring kpi':>10} {'tree jain':>10} {'tree kpi':>10}")
    ring_by_k = {r.k: r for r in sweeps["ring"].reports}
    tree_by_k = {r.k: r for r in sweeps["tree"].reports}
    for k in range(1, args.max_producers + 1):
        ring, tree = ring_by_k[k], tree_by_k[k]
        print(
            f"{k:>3} {ring.jain:>10.4f} {ring.kpi:>10.4f} "
            f"{tree.jain:>10.4f} {tree.kpi:>10.4f}"
        )
    for label, by_k in (("ring", ring_by_k), ("tree", tree_by_k)):
        best_k = max(by_k, key=lambda k: by_k[k].kpi)
        print(f"{label}: blended score peaks at k={best_k} ({by_k[best_k].kpi:.4f})")
    wins = sum(
        1
        for k in ring_by_k
        if ring_by_k[k].kpi >= tree_by_k[k].kpi - 1e-12
    )
    print(f"ring >= tree at {wins}/{len(ring_by_k)} producer counts")
    print(f"outputs in {args.out}/")
    return 0


def main() -> int:
    parser = Parser(description="k-sweep fairness trends on a 24-node ring vs tree")
    parser.add_argument("--out", default="trend_output", help="output directory")
    parser.add_argument("--max-producers", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0, help="solver seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--restarts", type=int, default=8, help="local-search restarts per k"
    )
    args = parser.parse_args()
    if not 1 <= args.max_producers <= NODES:  # refused before any work, by the flag's name
        parser.error(f"--max-producers must lie in 1..{NODES}, got {args.max_producers}")
    for flag, least in (("threads", 1), ("restarts", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            parser.error(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
    return guarded(reproduce, args)


if __name__ == "__main__":
    sys.exit(main())
