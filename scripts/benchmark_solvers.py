#!/usr/bin/env python3
"""Benchmark the three solvers on small seeded networks where the
exhaustive optimum is known: hit rate against the global optimum and
wall time per run.

Usage:
    python scripts/benchmark_solvers.py [--runs N] [--sweeps S]
                                        [--restarts R] [--seed S0]

A bad argument ends with exit status 2 and one "error: ..." line.
"""

import sys
import time

from heatfair import (
    AnnealConfig,
    DistanceRule,
    build_qubo,
    compute_weights,
    generate_ring,
    generate_tree,
    solve_anneal,
    solve_exhaustive,
    solve_heuristic,
    synthetic_demands,
)
from heatfair.cli import Parser, guarded


def build_cases(seed: int):
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    cases = []
    for i, n in enumerate((5, 6, 7, 8)):
        for topo in (
            generate_ring(n, chords=i % 3, rule=rule, seed=seed + i),
            generate_tree(n, branching=2 + i % 2, rule=rule, seed=seed + i),
        ):
            demands = synthetic_demands(n, timesteps=48, seed=seed + 50 + i)
            cases.append((topo, compute_weights(demands)))
    return cases


def benchmark(args) -> int:
    cases = build_cases(args.seed)
    hits = {"anneal": 0, "heuristic": 0}
    spent = {"exhaustive": 0.0, "anneal": 0.0, "heuristic": 0.0}
    truths = {}
    for run in range(args.runs):
        topo, weights = cases[run % len(cases)]
        k = (run % 3) + 1
        q = build_qubo(topo, weights, k)
        key = (run % len(cases), k)
        if key not in truths:
            started = time.monotonic()
            truths[key] = solve_exhaustive(q).energy
            spent["exhaustive"] += time.monotonic() - started
        truth = truths[key]
        tol = 1e-9 * max(1.0, abs(truth))
        seed = args.seed + run

        started = time.monotonic()
        a = solve_anneal(
            q, AnnealConfig(sweeps=args.sweeps, restarts=args.restarts, seed=seed)
        )
        spent["anneal"] += time.monotonic() - started
        hits["anneal"] += a.energy <= truth + tol

        started = time.monotonic()
        h = solve_heuristic(q, seed=seed, restarts=args.restarts)
        spent["heuristic"] += time.monotonic() - started
        hits["heuristic"] += h.energy <= truth + tol

    print(f"{args.runs} runs over {len(cases)} networks, k in 1..3")
    print(f"exhaustive ground truths: {len(truths)} solves, {spent['exhaustive']:.2f}s")
    for name in ("anneal", "heuristic"):
        print(
            f"{name:>9}: {hits[name]}/{args.runs} optimal, "
            f"{spent[name] / args.runs * 1000:.1f} ms/run"
        )
    return 0


def main() -> int:
    parser = Parser(description="solver hit rates against the exhaustive optimum")
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--sweeps", type=int, default=2000)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7000)
    args = parser.parse_args()
    # refused before any work, by the flag's name
    for flag, least in (("runs", 1), ("sweeps", 1), ("restarts", 1), ("seed", 0)):
        if getattr(args, flag) < least:
            parser.error(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
    return guarded(benchmark, args)


if __name__ == "__main__":
    sys.exit(main())
