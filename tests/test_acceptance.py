"""Release acceptance gate.

Eight end-to-end criteria covering energy-model fidelity, constraint
dominance, solver quality, metric exactness, the k-sweep trends, the
ring-vs-tree comparison, CLI determinism, and file round-trips. Each
test prints one PASS/FAIL line with the measured evidence; thresholds
and tolerances are stated inline.
"""

import json
import time

import numpy as np
import pytest

from heatfair import (
    AnnealConfig,
    DistanceRule,
    PenaltyConfig,
    SolverSpec,
    SweepConfig,
    build_qubo,
    cli,
    default_penalties,
    demands_to_csv_text,
    distance_index,
    energies,
    export_qubo,
    generate_ring,
    generate_tree,
    import_qubo,
    jain_index,
    load_topology,
    run_sweep,
    save_topology,
    solve_anneal,
    solve_exhaustive,
    solve_heuristic,
    synthetic_demands,
)
from heatfair.solvers import Assignment
from oracles import all_bit_vectors, modified_cost_batch


def finish(number: int, problems: list[str], evidence: str) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {number}] {status}: {evidence}")
    assert not problems, "; ".join(problems)


def instance_grid(suite):
    for entry in suite:
        for k in (1, 2, 3):
            if k <= entry.topo.nodes:
                yield entry, k


def test_criterion_1_energy_matches_the_direct_objective(suite):
    # QUBO energy must reproduce the weighted objective (distance
    # coupling + balance squares + one-hot squares) to 1e-9 relative,
    # on every bit vector when nk <= 16, else on 500 random vectors
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    problems: list[str] = []
    worst = 0.0
    vectors = 0
    configs = 0
    for entry, k in instance_grid(suite):
        n = entry.topo.nodes
        candidates = [
            default_penalties(entry.topo, entry.weights, k),
            PenaltyConfig(
                beta=float(rng.uniform(0.2, 2.0)),
                alpha=float(rng.uniform(1.0, 6.0)),
                gamma=float(rng.uniform(1.0, 6.0)),
            ),
        ]
        for cfg in candidates:
            q = build_qubo(entry.topo, entry.weights, k, cfg)
            nv = n * k
            if nv <= 16:
                bits = all_bit_vectors(nv)
            else:
                bits = rng.integers(0, 2, size=(500, nv))
            x_batch = bits.reshape(len(bits), k, n).transpose(0, 2, 1)
            got = energies(q, bits)
            expected = modified_cost_batch(
                entry.topo, entry.weights.values, k,
                cfg.beta, cfg.alpha, cfg.gamma, x_batch,
            )
            rel = np.abs(got - expected) / np.maximum(1.0, np.abs(expected))
            worst = max(worst, float(rel.max()))
            vectors += len(bits)
            configs += 1
            if float(rel.max()) > 1e-9:
                problems.append(
                    f"{entry.name} k={k}: relative error {rel.max():.3e}"
                )
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    finish(
        1, problems,
        f"{configs} penalty configs, {vectors} bit vectors, worst relative "
        f"error {worst:.2e} (tol 1e-9), {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_default_penalties_make_minima_feasible(suite):
    # under derived default penalties, the unrestricted minimum over
    # ALL bit vectors must be a feasible one-hot assignment
    problems: list[str] = []
    checked = 0
    for entry, k in instance_grid(suite):
        n = entry.topo.nodes
        if n * k > 16:
            continue
        cfg = default_penalties(entry.topo, entry.weights, k)
        q = build_qubo(entry.topo, entry.weights, k, cfg)
        bits = all_bit_vectors(n * k)
        best = bits[int(np.argmin(energies(q, bits)))]
        picks_per_node = best.reshape(k, n).sum(axis=0)
        checked += 1
        if not np.all(picks_per_node == 1):
            problems.append(f"{entry.name} k={k}: minimum is not one-hot")
    finish(
        2, problems,
        f"{checked - len(problems)}/{checked} unrestricted minima are "
        f"feasible one-hot assignments",
    )


def test_criterion_3_stochastic_solvers_reach_the_optimum(suite):
    # 100 seeded runs across the suite: annealer must match the
    # exhaustive feasible optimum on >= 95, the heuristic on >= 80
    started = time.monotonic()
    problems: list[str] = []
    truths: dict[tuple[int, int], float] = {}
    anneal_hits = 0
    heuristic_hits = 0
    runs = 100
    for run in range(runs):
        entry = suite[run % len(suite)]
        n = entry.topo.nodes
        k = min((run % 3) + 1, n)
        cfg = default_penalties(entry.topo, entry.weights, k)
        q = build_qubo(entry.topo, entry.weights, k, cfg)
        key = (run % len(suite), k)
        if key not in truths:
            truths[key] = solve_exhaustive(q).energy
        truth = truths[key]
        tol = 1e-9 * max(1.0, abs(truth))
        seed = 7000 + run
        a = solve_anneal(q, AnnealConfig(sweeps=2000, restarts=8, seed=seed))
        if a.energy <= truth + tol:
            anneal_hits += 1
        h = solve_heuristic(q, seed=seed, restarts=8)
        if h.energy <= truth + tol:
            heuristic_hits += 1
    elapsed = time.monotonic() - started
    if anneal_hits < 95:
        problems.append(f"anneal reached the optimum on only {anneal_hits}/100")
    if heuristic_hits < 80:
        problems.append(f"heuristic reached the optimum on only {heuristic_hits}/100")
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    finish(
        3, problems,
        f"anneal {anneal_hits}/100 (>=95), heuristic {heuristic_hits}/100 "
        f"(>=80), {elapsed:.1f}s (<300s)",
    )


def test_criterion_4_fairness_metrics_hit_their_exact_anchors(suite):
    problems: list[str] = []
    if jain_index(np.array([0.5, 0.5])) != 1.0:
        problems.append("jain((0.5, 0.5)) != 1.0")
    if jain_index(np.array([1.0, 0.0])) != 0.5:
        problems.append("jain((1.0, 0.0)) != 0.5")
    rng = np.random.default_rng(14)
    for k in range(1, 9):
        equal = jain_index(np.full(k, float(rng.uniform(0.1, 9.0))))
        if abs(equal - 1.0) > 1e-12:
            problems.append(f"equal loads at k={k} scored {equal!r}")
        lone = np.zeros(k)
        lone[0] = float(rng.uniform(0.1, 9.0))
        if abs(jain_index(lone) - 1.0 / k) > 1e-12:
            problems.append(f"full concentration at k={k} missed 1/k")
    extremes = 0
    for entry in suite:
        n = entry.topo.nodes
        together = distance_index(Assignment(producer_of=(0,) * n, k=1), entry.topo)
        if together != 0.0:
            problems.append(f"{entry.name}: k=1 distance index {together!r} != 0.0")
        if n > 1:
            apart = distance_index(
                Assignment(producer_of=tuple(range(n)), k=n), entry.topo
            )
            if apart != 1.0:
                problems.append(f"{entry.name}: k=n distance index {apart!r} != 1.0")
        extremes += 1
    finish(
        4, problems,
        f"jain exact at both anchor points, equal/concentrated limits within "
        f"1e-12 for k=1..8, distance index exactly 0/1 at the extremes on "
        f"all {extremes} suite topologies",
    )


TREND_RULE = DistanceRule(kind="uniform", low=0.5, high=2.0)
TREND_MAX_K = 8


@pytest.fixture(scope="module")
def trend_sweeps():
    started = time.monotonic()
    ring = generate_ring(24, chords=4, rule=TREND_RULE, seed=7)
    tree = generate_tree(24, branching=3, rule=TREND_RULE, seed=7)
    demands = synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0)
    cfg = SweepConfig(
        max_producers=TREND_MAX_K,
        solvers=(SolverSpec(name="heuristic"),),
        kpi_alpha=0.5,
        seed=0,
    )
    ring_sweep = run_sweep(ring, demands, cfg, label="ring")
    tree_sweep = run_sweep(tree, demands, cfg, label="tree")
    return ring_sweep, tree_sweep, time.monotonic() - started


def test_criterion_5_k_sweep_reproduces_the_expected_trends(trend_sweeps):
    # heterogeneous demands on one 24-node ring and one 24-node tree:
    # fairness decays after its first peak (tolerance 0.02), compactness
    # strictly increases, and the blended score peaks strictly inside
    # k = 1..8
    problems: list[str] = []
    peaks = {}
    for sweep in trend_sweeps[:2]:
        label = sweep.provenance["label"]
        if sweep.warnings:
            problems.append(f"{label}: unexpected warnings {sweep.warnings}")
        jain = [r.jain for r in sweep.reports]
        dist = [r.distance_index for r in sweep.reports]
        kpi = [r.kpi for r in sweep.reports]
        if len(jain) != TREND_MAX_K:
            problems.append(f"{label}: expected {TREND_MAX_K} rows, got {len(jain)}")
            continue
        first_peak = jain.index(max(jain))
        decay = jain[first_peak:]
        if not all(b <= a + 0.02 for a, b in zip(decay, decay[1:])):
            problems.append(f"{label}: fairness rebounds after its peak: {jain}")
        if not all(b > a for a, b in zip(dist, dist[1:])):
            problems.append(f"{label}: distance index not strictly increasing: {dist}")
        best_k = kpi.index(max(kpi)) + 1
        peaks[label] = best_k
        if best_k in (1, TREND_MAX_K):
            problems.append(f"{label}: blended score peaks at the edge k={best_k}")
    elapsed = trend_sweeps[2]
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s, budget 120s")
    finish(
        5, problems,
        f"fairness decays after its peak (tol 0.02), compactness strictly "
        f"increases, blended score peaks at k={peaks.get('ring')}/{peaks.get('tree')} "
        f"(ring/tree, interior of 1..8), {elapsed:.1f}s (<120s)",
    )


def test_criterion_6_ring_beats_tree_at_most_producer_counts(trend_sweeps):
    ring_sweep, tree_sweep, _ = trend_sweeps
    ring_kpi = {r.k: r.kpi for r in ring_sweep.reports}
    tree_kpi = {r.k: r.kpi for r in tree_sweep.reports}
    wins = sum(
        1 for k in range(1, TREND_MAX_K + 1)
        if ring_kpi[k] >= tree_kpi[k] - 1e-12
    )
    problems: list[str] = []
    if wins <= TREND_MAX_K // 2:
        problems.append(
            f"ring scored at least as well on only {wins}/{TREND_MAX_K} counts"
        )
    finish(
        6, problems,
        f"ring blended score >= tree at {wins}/{TREND_MAX_K} producer counts "
        f"(majority needed)",
    )


def test_criterion_7_cli_reruns_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    demands_csv = tmp_path / "demands.csv"
    demands_csv.write_text(
        demands_to_csv_text(synthetic_demands(8, timesteps=48, seed=6))
    )

    def run_all(outdir):
        outdir.mkdir()
        topo = outdir / "topology.json"
        tree = outdir / "tree.json"
        weights = outdir / "weights.json"
        commands = [
            ["generate", "ring", "--nodes", "8", "--chords", "2",
             "--distance", "uniform", "--seed", "9", "-o", str(topo)],
            ["generate", "tree", "--nodes", "8", "--branching", "3",
             "--seed", "9", "-o", str(tree)],
            ["weights", str(demands_csv), "-o", str(weights)],
            ["qubo", str(topo), "--weights", str(weights), "--k", "3",
             "-o", str(outdir / "instance.qubo")],
            ["solve", str(topo), "--weights", str(weights), "--k", "3",
             "--solver", "anneal", "--seed", "42", "-o", str(outdir / "result.json")],
            ["sweep", str(topo), "--demands", str(demands_csv),
             "--max-producers", "4", "--solvers", "heuristic,anneal",
             "--sweeps", "300", "--seed", "5", "--label", "ring",
             "--format", "json,csv,gnuplot", "-o", str(outdir / "sweep")],
            ["sweep", str(tree), "--demands", str(demands_csv),
             "--max-producers", "4", "--seed", "5", "--label", "tree",
             "--format", "json", "-o", str(outdir / "treesweep")],
            ["compare", str(outdir / "sweep.json"), str(outdir / "treesweep.json"),
             "-o", str(outdir / "comparison.csv")],
        ]
        for argv in commands:
            assert cli.main(argv) == 0, f"command failed: {argv}"
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    problems: list[str] = []
    if set(first) != set(second):
        problems.append(f"file sets differ: {sorted(first)} vs {sorted(second)}")
    else:
        for name in first:
            if first[name] != second[name]:
                problems.append(f"{name} differs between reruns")
    finish(
        7, problems,
        f"{len(first)} output files byte-identical across repeated seeded "
        f"runs of all six subcommands",
    )


def test_criterion_8_file_round_trips_are_lossless(suite, tmp_path):
    problems: list[str] = []
    topo_trips = 0
    qubo_trips = 0
    for i, entry in enumerate(suite):
        topo_path = tmp_path / f"t{i}.json"
        save_topology(entry.topo, str(topo_path))
        if load_topology(str(topo_path)) != entry.topo:
            problems.append(f"{entry.name}: topology changed in round-trip")
        topo_trips += 1
        k = min(3, entry.topo.nodes)
        q = build_qubo(
            entry.topo, entry.weights, k,
            default_penalties(entry.topo, entry.weights, k),
        )
        q_path = tmp_path / f"q{i}.qubo"
        export_qubo(q, str(q_path))
        back = import_qubo(str(q_path))
        if (back.n, back.k, back.linear, back.quadratic, back.offset) != (
            q.n, q.k, q.linear, q.quadratic, q.offset
        ):
            problems.append(f"{entry.name}: instance changed in round-trip")
        qubo_trips += 1
    finish(
        8, problems,
        f"{topo_trips} topology and {qubo_trips} instance round-trips lossless",
    )
