import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import modified_cost_direct
from test_demand import CSV_LABELS

from heatfair import (
    DemandMatrix,
    PenaltyConfig,
    SolverError,
    SolverSpec,
    SweepConfig,
    SweepResult,
    Topology,
    WorkflowError,
    compare_topologies,
    compute_weights,
    comparison_to_csv_text,
    generate_ring,
    generate_tree,
    run_sweep,
    sweep_to_csv_text,
    sweep_to_dict,
    sweep_to_gnuplot_texts,
    synthetic_demands,
    workflow,
)

RING8 = generate_ring(8)
FLAT8 = DemandMatrix(values=np.ones((4, 8)))
EXHAUSTIVE32 = SweepConfig(
    max_producers=4, solvers=(SolverSpec(name="exhaustive", exhaustive_cap=32),)
)


def test_single_producer_sweep_scores_trivially():
    topo = generate_ring(5, seed=4)
    demands = synthetic_demands(5, timesteps=24, seed=3)
    cfg = SweepConfig(max_producers=1, solvers=(SolverSpec(name="exhaustive"),))
    res = run_sweep(topo, demands, cfg)
    assert len(res.reports) == 1
    r = res.reports[0]
    assert r.k == 1
    assert r.jain == 1.0
    assert r.distance_index == 0.0
    assert r.kpi == 0.5
    assert res.warnings == ()


def test_even_splits_keep_perfect_jain_on_ring():
    res = run_sweep(RING8, FLAT8, EXHAUSTIVE32)
    by_k = {r.k: r for r in res.reports}
    assert set(by_k) == {1, 2, 3, 4}
    for k in (1, 2, 4):
        assert by_k[k].jain == pytest.approx(1.0, abs=1e-12)
    assert by_k[3].jain < 1.0
    d_values = [by_k[k].distance_index for k in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(d_values, d_values[1:]))
    assert res.warnings == ()


def test_sweep_on_flat_demands_reaches_one_node_per_producer():
    res = run_sweep(generate_ring(12, chords=2), DemandMatrix(values=np.ones((4, 12))),
                    SweepConfig(max_producers=12))
    assert [r.k for r in res.reports] == list(range(1, 13))
    assert all(0.0 < r.jain <= 1.0 for r in res.reports)
    assert res.reports[-1].jain == 1.0


def test_size_capped_cells_become_warnings_not_gaps():
    cfg = SweepConfig(max_producers=4, solvers=(SolverSpec(name="exhaustive"),))
    res = run_sweep(RING8, FLAT8, cfg)
    assert sorted(r.k for r in res.reports) == [1, 2, 3]
    assert len(res.warnings) == 1
    assert "k=4 exhaustive: skipped" in res.warnings[0]


def test_energies_at_any_penalties_are_the_objective_without_warnings():
    # gamma = 1e20 leaves the offset's last digit above every pipe
    # coefficient, but a reported energy is the objective's closed form,
    # which sums no offset: no cell warns, and each energy is the direct
    # objective of its assignment within a relative n*eps
    topo = generate_ring(12, chords=2)
    demands = synthetic_demands(12, timesteps=24, seed=0)
    weights = compute_weights(demands).values
    solvers = (SolverSpec(name="heuristic", restarts=2),)
    penalty = PenaltyConfig(alpha=1.0, gamma=1e20)
    res = run_sweep(topo, demands, SweepConfig(max_producers=3, solvers=solvers, penalty=penalty))
    assert [r.k for r in res.reports] == [1, 2, 3] and res.warnings == ()
    for r in res.reports:
        x = np.eye(r.k)[list(r.assignment)]
        want = modified_cost_direct(topo, weights, r.k, penalty.beta, penalty.alpha, penalty.gamma, x)
        assert abs(r.energy - want) <= 12 * np.finfo(float).eps * abs(want), r.k
    assert run_sweep(topo, demands, SweepConfig(max_producers=3, solvers=solvers)).warnings == ()


def test_sweep_is_deterministic_and_thread_invariant():
    topo = generate_ring(7, chords=2, seed=5)
    demands = synthetic_demands(7, timesteps=36, seed=9)
    cfg = SweepConfig(
        max_producers=3,
        solvers=(
            SolverSpec(name="heuristic", restarts=4),
            SolverSpec(name="anneal", sweeps=150, restarts=2),
        ),
        seed=17,
    )
    first = sweep_to_csv_text(run_sweep(topo, demands, cfg))
    second = sweep_to_csv_text(run_sweep(topo, demands, cfg))
    threaded = sweep_to_csv_text(run_sweep(topo, demands, cfg, threads=3))
    assert first == second == threaded


def test_rows_are_ordered_by_k_then_solver_name():
    topo = generate_ring(5, seed=2)
    demands = synthetic_demands(5, timesteps=24, seed=2)
    cfg = SweepConfig(
        max_producers=2,
        solvers=(
            SolverSpec(name="heuristic", restarts=2),
            SolverSpec(name="anneal", sweeps=100, restarts=2),
        ),
    )
    res = run_sweep(topo, demands, cfg)
    order = [(r.k, r.solver_name) for r in res.reports]
    assert order == [(1, "anneal"), (1, "heuristic"), (2, "anneal"), (2, "heuristic")]


def test_provenance_identifies_the_inputs(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    topo = generate_ring(5, seed=2)
    demands = synthetic_demands(5, timesteps=24, seed=2)
    cfg = SweepConfig(max_producers=2)
    res = run_sweep(topo, demands, cfg, label="demo")
    p = res.provenance
    assert p["label"] == "demo"
    assert len(p["topology_hash"]) == 64 and len(p["demand_hash"]) == 64
    assert p["timestamp"] is None
    assert p["version"] == "0.1.0"
    assert p["config"]["max_producers"] == 2
    again = run_sweep(topo, demands, cfg, label="demo").provenance
    assert again["topology_hash"] == p["topology_hash"]
    assert again["demand_hash"] == p["demand_hash"]

    other = run_sweep(generate_ring(5, chords=2, seed=3), demands, cfg).provenance
    assert other["topology_hash"] != p["topology_hash"]

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    stamped = run_sweep(topo, demands, cfg)
    assert stamped.provenance["timestamp"] == 1700000000


def test_sweep_input_validation():
    demands = synthetic_demands(8, timesteps=12, seed=0)
    with pytest.raises(WorkflowError, match="threads"):
        run_sweep(RING8, demands, SweepConfig(max_producers=2), threads=0)
    with pytest.raises(WorkflowError, match="disconnected"):
        run_sweep(
            Topology(nodes=3, edges=((0, 1, 1.0),)),
            synthetic_demands(3, timesteps=12, seed=0),
            SweepConfig(max_producers=2),
        )
    with pytest.raises(WorkflowError, match="covers 5 nodes but topology has 8"):
        run_sweep(RING8, synthetic_demands(5, timesteps=12, seed=0), SweepConfig())
    with pytest.raises(WorkflowError, match="exceeds node count"):
        run_sweep(RING8, demands, SweepConfig(max_producers=9))


def test_sweep_refuses_a_bad_setup_before_the_shortest_paths(monkeypatch):
    # the O(n^3) paths run only once the cheap checks pass
    def refuse(topo):
        raise AssertionError("all_pairs_shortest_paths ran")
    monkeypatch.setattr(workflow.graphs, "all_pairs_shortest_paths", refuse)
    demands = synthetic_demands(8, timesteps=12, seed=0)
    for table, cfg, threads, message in (
        (synthetic_demands(5, timesteps=12, seed=0), SweepConfig(), 1, "covers 5 nodes"),
        (demands, SweepConfig(max_producers=9), 1, "exceeds node count"),
        (demands, SweepConfig(max_producers=2), 0, "threads must be >= 1, got 0"),
    ):
        with pytest.raises(WorkflowError, match=message):
            run_sweep(RING8, table, cfg, threads=threads)


def test_sweep_config_validation():
    with pytest.raises(WorkflowError, match="max_producers"):
        SweepConfig(max_producers=0)
    with pytest.raises(WorkflowError, match="at least one solver"):
        SweepConfig(solvers=())
    with pytest.raises(WorkflowError, match="kpi_alpha"):
        SweepConfig(kpi_alpha=1.5)
    with pytest.raises(WorkflowError, match="unknown solver 'magic'"):
        SolverSpec(name="magic")


def test_sweep_config_refuses_a_penalty_that_is_not_a_penalty_config():
    loose = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0}
    with pytest.raises(WorkflowError, match="^penalty must be a PenaltyConfig or None, got "):
        run_sweep(RING8, FLAT8, SweepConfig(max_producers=2, penalty=loose))
    assert SweepConfig(penalty=PenaltyConfig(**loose)).penalty == PenaltyConfig(**loose)


def test_a_solver_or_format_named_twice_is_refused(tmp_path):
    # its rows or files would be written twice, indistinguishably
    twice = (SolverSpec(name="anneal"), SolverSpec(name="heuristic"),
             SolverSpec(name="anneal", sweeps=10))
    with pytest.raises(WorkflowError, match="^solver named more than once: anneal$"):
        SweepConfig(solvers=twice)
    with pytest.raises(WorkflowError, match="must be SolverSpec objects"):
        SweepConfig(solvers=("heuristic",))
    res = run_sweep(RING8, FLAT8, SweepConfig(max_producers=1))
    prefix = str(tmp_path / "s")
    with pytest.raises(WorkflowError, match="^output format named more than once: csv, json$"):
        workflow.write_sweep(res, prefix, ["json", "csv", "json", "csv", "gnuplot"])
    assert list(tmp_path.iterdir()) == []


def test_format_names_are_read_once(tmp_path):
    # the check must not use up a generator of names before the files are written
    res = run_sweep(RING8, FLAT8, SweepConfig(max_producers=1))
    prefix = str(tmp_path / "s")
    assert workflow.write_sweep(res, prefix, (f for f in ["json"])) == [prefix + ".json"]
    assert workflow.load_sweep(prefix + ".json") == res
    with pytest.raises(WorkflowError, match="^select at least one output format$"):
        workflow.check_formats(iter([]))


@pytest.mark.parametrize(
    "settings",
    [{"sweeps": 0}, {"restarts": 0}, {"t_initial": 1.0, "t_final": 2.0},
     {"t_initial": math.inf, "t_final": 1.0}, {"exhaustive_cap": 0}],
    ids=["sweeps", "restarts", "temperatures", "infinite_temperature", "exhaustive_cap"],
)
def test_invalid_solver_settings_fail_the_sweep_not_its_cells(settings):
    # once a skipped warning per cell and an empty table; now one error
    with pytest.raises(WorkflowError, match="must be|need t_initial"):
        run_sweep(RING8, FLAT8, SweepConfig(
            max_producers=2, solvers=(SolverSpec(name="heuristic", **settings),)
        ))


def test_an_anneal_failure_fails_the_sweep_not_its_cell():
    # only the exhaustive size cap turns a cell into a warning
    spec = SolverSpec(name="anneal", sweeps=2**62, restarts=1)
    with pytest.raises(SolverError, match="too many"):
        run_sweep(RING8, FLAT8, SweepConfig(max_producers=2, solvers=(spec,)))


def test_explicit_penalty_overrides_defaults():
    topo = generate_ring(5, seed=1)
    demands = synthetic_demands(5, timesteps=24, seed=1)
    pinned = SweepConfig(
        max_producers=2,
        solvers=(SolverSpec(name="exhaustive"),),
        penalty=PenaltyConfig(beta=1.0, alpha=50.0, gamma=100.0),
    )
    res = run_sweep(topo, demands, pinned)
    assert res.provenance["config"]["penalty"]["alpha"] == 50.0
    auto = run_sweep(topo, demands, SweepConfig(
        max_producers=2, solvers=(SolverSpec(name="exhaustive"),)
    ))
    assert auto.provenance["config"]["penalty"] is None
    assert len(res.reports) == len(auto.reports) == 2


def test_serialisations_agree_on_content():
    res = run_sweep(RING8, FLAT8, EXHAUSTIVE32)
    doc = sweep_to_dict(res)
    assert set(doc) == {"provenance", "warnings", "reports"}
    assert len(doc["reports"]) == 4
    csv_text = sweep_to_csv_text(res)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "k,solver,jain,distance_index,kpi,energy"
    assert len(lines) == 5
    assert lines[1].startswith("1,exhaustive,1.0,0.0,0.5,")
    plots = sweep_to_gnuplot_texts(res)
    assert set(plots) == {"jain", "distance_index", "kpi"}
    for text in plots.values():
        assert text.startswith("# solver: exhaustive\n")
        assert len(text.strip().split("\n")) == 5  # header + one row per k


def test_sweep_from_dict_reads_back_sweep_to_dict(tmp_path):
    res = run_sweep(RING8, FLAT8, SweepConfig(max_producers=4, solvers=(SolverSpec(name="exhaustive"),)))
    assert res.warnings  # k=4 is past the exhaustive cap
    assert workflow.sweep_from_dict(json.loads(json.dumps(sweep_to_dict(res)))) == res
    # the same through files: write_sweep writes in the order asked, load_sweep reads back
    prefix = str(tmp_path / "s")
    with pytest.raises(WorkflowError, match=r"unknown output formats: \['xml'\]"):
        workflow.write_sweep(res, prefix, ["csv", "xml"])
    assert list(tmp_path.iterdir()) == []
    written = workflow.write_sweep(res, prefix, ["gnuplot", "json", "csv"])
    assert written == [f"{prefix}.{name}" for name in (
        "jain.dat", "distance_index.dat", "kpi.dat", "json", "csv")]
    assert workflow.load_sweep(f"{prefix}.json") == res
    assert (tmp_path / "s.csv").read_text() == sweep_to_csv_text(res)


def test_sweep_from_dict_reads_a_file_without_assignments():
    res = run_sweep(RING8, FLAT8, SweepConfig(max_producers=3))
    doc = json.loads(json.dumps(sweep_to_dict(res)))
    for report in doc["reports"]:
        del report["assignment"]
    back = workflow.sweep_from_dict(doc)
    assert [r.assignment for r in back.reports] == [()] * 3
    assert back == dataclasses.replace(res, reports=tuple(
        dataclasses.replace(r, assignment=()) for r in res.reports))
    assert sweep_to_csv_text(back) == sweep_to_csv_text(res)


def test_compare_topologies_merges_and_sorts():
    demands = synthetic_demands(8, timesteps=24, seed=6)
    cfg = SweepConfig(max_producers=3)
    ring = run_sweep(RING8, demands, cfg, label="ring")
    tree = run_sweep(generate_tree(8, branching=2, seed=6), demands, cfg, label="tree")
    rows = compare_topologies([ring, tree])
    assert {row["topology"] for row in rows} == {"ring", "tree"}
    assert len(rows) == 6
    assert rows == sorted(
        rows, key=lambda r: (r["topology"], r["solver"], r["k"])
    )
    text = comparison_to_csv_text(rows)
    assert text.startswith("topology,solver,k,jain,distance_index,kpi\n")
    assert text.count("\n") == 7


def test_compare_topologies_rejects_mismatches():
    demands = synthetic_demands(8, timesteps=24, seed=6)
    ring = run_sweep(RING8, demands, SweepConfig(max_producers=3), label="x")
    deeper = run_sweep(RING8, demands, SweepConfig(max_producers=4), label="y")
    with pytest.raises(WorkflowError, match="max_producers"):
        compare_topologies([ring, deeper])
    with pytest.raises(WorkflowError, match="distinct"):
        compare_topologies([ring, ring])
    with pytest.raises(WorkflowError, match="at least one sweep"):
        compare_topologies([])


@pytest.mark.parametrize("penalty, kpi_alpha", [
    (None, 0.5), (PenaltyConfig(beta=2.0, alpha=40.0, gamma=90.0), 0.3),
])
def test_sweep_reports_are_the_solve_cells(penalty, kpi_alpha):
    topo = generate_ring(7, chords=2, seed=5)
    demands = synthetic_demands(7, timesteps=36, seed=9)
    specs = (SolverSpec(name="heuristic", restarts=4), SolverSpec(name="anneal", sweeps=150, restarts=2))
    cfg = SweepConfig(max_producers=3, solvers=specs, penalty=penalty, kpi_alpha=kpi_alpha, seed=17)
    reports = run_sweep(topo, demands, cfg).reports
    weights = compute_weights(demands)
    cells = {
        (k, spec.name): workflow.solve_cell(
            topo, weights, k, spec, workflow._cell_seed(17, k, index),
            penalty=penalty, kpi_alpha=kpi_alpha,
        )[1]
        for k in (1, 2, 3) for index, spec in enumerate(specs)
    }
    assert len(reports) == len(cells) == 6
    for report in reports:
        assert report == cells[report.k, report.solver_name]


def _relabelled(sweep, label, solver):
    """sweep under another provenance label, each report under another solver name."""
    reports = tuple(dataclasses.replace(r, solver_name=solver) for r in sweep.reports)
    return SweepResult(reports, sweep.warnings, {**sweep.provenance, "label": label})


SWEEP8 = run_sweep(RING8, synthetic_demands(8, timesteps=24, seed=6), SweepConfig(max_producers=3))


@given(st.lists(CSV_LABELS, min_size=2, max_size=2, unique=True), CSV_LABELS)
def test_csv_tables_read_back_whole(labels, solver):
    sweeps = [_relabelled(SWEEP8, label, solver) for label in labels]
    rows = compare_topologies(sweeps)
    for text, expected, header in (
        (comparison_to_csv_text(rows), [list(row.values()) for row in rows],
         ["topology", "solver", "k", "jain", "distance_index", "kpi"]),
        (sweep_to_csv_text(sweeps[0]), [[r.k, r.solver_name, r.jain, r.distance_index, r.kpi, r.energy]
                                        for r in sweeps[0].reports],
         ["k", "solver", "jain", "distance_index", "kpi", "energy"]),
    ):
        read = list(csv.reader(io.StringIO(text, newline="")))
        assert read[0] == header
        assert len(read) == len(expected) + 1
        for got, want in zip(read[1:], expected):
            assert len(got) == len(header)
            assert [type(v)(g) for g, v in zip(got, want)] == want
