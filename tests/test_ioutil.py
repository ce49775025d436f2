"""The one check of a number read from outside (ioutil.number), as every
reader and constructor applies it, the one CSV rule (ioutil.csv_text),
and the mode of written files."""

import csv
import io
import json
import os
import re
import stat

import numpy as np
import pytest

from heatfair import (
    AnnealConfig,
    Assignment,
    DemandError,
    DemandMatrix,
    DistanceRule,
    FairnessError,
    KpiReport,
    PenaltyConfig,
    QuboError,
    QuboInstance,
    SolverError,
    SolverSpec,
    SweepConfig,
    Terms,
    Topology,
    TopologyError,
    WeightVector,
    WorkflowError,
    build_qubo,
    build_unweighted_qubo,
    canonical_form,
    cli,
    distance_index,
    generate_ring,
    generate_tree,
    run_sweep,
    save_topology,
    save_weights,
    score_assignment,
    solve_exhaustive,
    solve_heuristic,
    sweep_to_dict,
    synthetic_demands,
    uniform_weights,
)
from heatfair.ioutil import atomic_write_text, csv_text, number, shown

HUGE = 10**400  # an integer past the float range


@pytest.mark.parametrize("value, text", [
    (True, "true"), (None, "null"), ("0.5", '"0.5"'), ([0.5], "[0.5]"), (HUGE, str(HUGE)),
    (np.int64(3), "np.int64(3)"), ({(1, 2): 0}, "{(1, 2): 0}"), (10**5000, "a value of type int"),
], ids=["bool", "null", "text", "list", "huge", "numpy", "tuple-key", "past-repr"])
def test_shown_is_json_then_repr_and_never_raises(value, text):
    assert shown(value) == text


def test_number_reads_integers_and_reals_but_never_bools():
    assert number(np.int32(4), "n", ValueError, integer=True) == 4
    assert type(number(np.int32(4), "n", ValueError, integer=True)) is int
    assert number(3, "x", ValueError) == 3.0 and type(number(3, "x", ValueError)) is float
    assert number(np.float32(0.5), "x", ValueError) == 0.5
    for value, integer in ((True, True), (np.True_, True), (False, False), (2.0, True),
                           ("1", False), (HUGE, False), (None, False)):
        with pytest.raises(ValueError, match=r"^x must be (an integer|a number), got "):
            number(value, "x", ValueError, integer)


@pytest.mark.parametrize("build, error", [
    (lambda: SweepConfig(max_producers=2.5), WorkflowError),
    (lambda: SweepConfig(seed=-1), WorkflowError),
    (lambda: SweepConfig(kpi_alpha="0.5"), WorkflowError),
    (lambda: AnnealConfig(t_initial="a", t_final="b"), SolverError),
    (lambda: AnnealConfig(seed=True), SolverError),
    (lambda: DistanceRule(kind="uniform", low="a"), TopologyError),
    (lambda: Topology(nodes=True, edges=()), TopologyError),
    (lambda: Topology(nodes=1, edges=(), coords=(("0", 0.0),)), TopologyError),
    (lambda: SolverSpec(name="exhaustive", exhaustive_cap=True), WorkflowError),
], ids=["max-producers-float", "seed-negative", "kpi-alpha-text", "temperatures-text",
        "anneal-seed-bool", "low-text", "nodes-bool", "coords-text", "cap-bool"])
def test_constructors_refuse_what_is_not_their_number(build, error):
    with pytest.raises(error, match="must be (an integer|a number), got|must be >= 0"):
        build()


RING = generate_ring(4)
RING_QUBO = build_qubo(RING, uniform_weights(4), 2)
NO_TERMS = Terms(*(np.zeros(0, dtype) for dtype in (np.int64, float, np.int64, np.int64, float)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: solve_heuristic(RING_QUBO, seed=-1), SolverError, "seed must be >= 0, got -1"),
    (lambda: solve_heuristic(RING_QUBO, seed=None), SolverError, "seed must be an integer, got null"),
    (lambda: solve_heuristic(RING_QUBO, restarts=True), SolverError,
     "restarts must be an integer, got true"),
    (lambda: solve_heuristic(RING_QUBO, restarts=2.5), SolverError,
     "restarts must be an integer, got 2.5"),
    (lambda: solve_exhaustive(RING_QUBO, max_vars=True), SolverError,
     "max_vars must be an integer, got true"),
    (lambda: generate_ring(5.5), TopologyError, "nodes must be an integer, got 5.5"),
    (lambda: generate_ring(5, chords=1.5), TopologyError, "chords must be an integer, got 1.5"),
    (lambda: generate_tree(3, branching=True), TopologyError,
     "branching must be an integer, got true"),
    (lambda: uniform_weights(2.5), DemandError, "nodes must be an integer, got 2.5"),
    (lambda: synthetic_demands(4, timesteps=2.5), DemandError,
     "timesteps must be an integer, got 2.5"),
    (lambda: synthetic_demands(4, anchor_scale="2"), DemandError,
     'anchor_scale must be a number, got "2"'),
    (lambda: build_qubo(RING, uniform_weights(4), True), QuboError, "k must be an integer, got true"),
    (lambda: build_qubo(RING, uniform_weights(4), 2.5), QuboError, "k must be an integer, got 2.5"),
    (lambda: build_unweighted_qubo(RING, 2.0), QuboError, "k must be an integer, got 2.0"),
    (lambda: WeightVector(np.array(["0.25"] * 4)), DemandError,
     "weights must be numbers, got an array of <U4"),
    (lambda: WeightVector([True]), DemandError, "weights must be numbers, got an array of bool"),
    (lambda: DemandMatrix(values=[["1.0", "2.0"]]), DemandError,
     "demands must be numbers, got an array of <U3"),
    (lambda: DemandMatrix(values=[[True, False]]), DemandError,
     "demands must be numbers, got an array of bool"),
    (lambda: build_qubo(RING, [True] * 4, 2), QuboError, "weights must be numbers, got an array of bool"),
    (lambda: build_qubo(RING, ["0.25"] * 4, 2, PenaltyConfig()), QuboError,
     "weights must be numbers, got an array of <U4"),
    (lambda: score_assignment(Assignment(producer_of=(0, 1, 0, 1), k=2), RING, uniform_weights(4),
                              kpi_alpha="0.5"), FairnessError, 'kpi_alpha must be a number, got "0.5"'),
    (lambda: generate_ring(5, seed=-1), TopologyError, "seed must be >= 0, got -1"),
    (lambda: generate_ring(5, seed=1.5), TopologyError, "seed must be an integer, got 1.5"),
    (lambda: generate_ring(5, seed=True), TopologyError, "seed must be an integer, got true"),
    (lambda: generate_tree(5, seed=-1), TopologyError, "seed must be >= 0, got -1"),
    (lambda: generate_tree(5, seed=1.5), TopologyError, "seed must be an integer, got 1.5"),
    (lambda: generate_tree(5, seed=True), TopologyError, "seed must be an integer, got true"),
    (lambda: synthetic_demands(4, seed=-1), DemandError, "seed must be >= 0, got -1"),
    (lambda: synthetic_demands(4, seed=1.5), DemandError, "seed must be an integer, got 1.5"),
    (lambda: synthetic_demands(4, seed=True), DemandError, "seed must be an integer, got true"),
    (lambda: QuboInstance(n="2", k=1, offset=0.0, terms=NO_TERMS), QuboError,
     'n must be an integer, got "2"'),
    (lambda: QuboInstance(k=True, objective=RING_QUBO.objective), QuboError,
     "k must be an integer, got true"),
    (lambda: QuboInstance(n=4, k=2, offset="0", terms=NO_TERMS), QuboError,
     'offset must be a number, got "0"'),
    (lambda: Assignment(producer_of=(0, 1), k=1.5), SolverError, "k must be an integer, got 1.5"),
    (lambda: run_sweep(RING, synthetic_demands(4, timesteps=4), SweepConfig(max_producers=2),
                       threads=2.5), WorkflowError, "threads must be an integer, got 2.5"),
    (lambda: run_sweep(RING, synthetic_demands(4, timesteps=4), SweepConfig(max_producers=2),
                       threads=True), WorkflowError, "threads must be an integer, got true"),
    (lambda: Topology(nodes=0, edges=()), TopologyError, "nodes must be >= 1, got 0"),
    (lambda: generate_tree(3, branching=0), TopologyError, "branching must be >= 1, got 0"),
    (lambda: generate_ring(5, chords=-1), TopologyError, "chords must be >= 0, got -1"),
    (lambda: uniform_weights(0), DemandError, "nodes must be >= 1, got 0"),
    (lambda: synthetic_demands(0), DemandError, "nodes must be >= 1, got 0"),
    (lambda: synthetic_demands(4, timesteps=0), DemandError, "timesteps must be >= 1, got 0"),
    (lambda: build_qubo(RING, uniform_weights(4), 0), QuboError, "k must be >= 1, got 0"),
    (lambda: QuboInstance(n=0, k=1, offset=0.0, terms=NO_TERMS), QuboError,
     "n must be >= 1, got 0"),
    (lambda: QuboInstance(k=0, objective=RING_QUBO.objective), QuboError,
     "k must be >= 1, got 0"),
    (lambda: distance_index(Assignment(producer_of=(0, 1, 0, 1), k=2), RING, sp=np.zeros((2, 2))),
     FairnessError, "sp has shape (2, 2), but 4 nodes need (4, 4)"),
    (lambda: score_assignment(Assignment(producer_of=(0, 1, 0, 1), k=2), RING, uniform_weights(4),
                              sp=np.ones((5, 5))), FairnessError,
     "sp has shape (5, 5), but 4 nodes need (4, 4)"),
], ids=["heuristic-seed", "heuristic-seed-none", "heuristic-restarts-bool",
        "heuristic-restarts-float", "exhaustive-cap-bool", "ring-nodes", "ring-chords",
        "tree-branching", "uniform-nodes", "demand-timesteps", "demand-anchor", "qubo-k-bool",
        "qubo-k-float", "unweighted-k-float", "weights-text", "weights-bool", "demands-text",
        "demands-bool", "qubo-weights-bool", "qubo-weights-text", "kpi-alpha-text",
        "ring-seed-negative", "ring-seed-float", "ring-seed-bool", "tree-seed-negative",
        "tree-seed-float", "tree-seed-bool", "demand-seed-negative", "demand-seed-float",
        "demand-seed-bool",
        "instance-n-text", "instance-k-bool", "instance-offset-text", "assignment-k-float",
        "sweep-threads-float", "sweep-threads-bool", "topology-nodes-0", "tree-branching-0",
        "ring-chords-negative", "uniform-nodes-0", "demand-nodes-0", "demand-timesteps-0",
        "qubo-k-0", "instance-n-0", "instance-k-0", "distance-sp-small", "score-sp-large"])
def test_api_arguments_refuse_what_is_not_their_number(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A good topology, weights file and sweep file, and the documents
    the table below spoils one value of."""
    at = tmp_path_factory.mktemp("inputs")
    topo = Topology(nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
    save_topology(topo, str(at / "t.json"))
    save_weights(uniform_weights(3), str(at / "w.json"))
    sweep = run_sweep(topo, synthetic_demands(3, timesteps=4), SweepConfig(max_producers=2),
                      label="good")
    (at / "good.json").write_text(json.dumps(sweep_to_dict(sweep)))
    return at, {
        "topology": json.loads((at / "t.json").read_text()),
        "weights": json.loads((at / "w.json").read_text()),
        "config": {},
        "sweep": {**sweep_to_dict(sweep), "provenance": {**sweep.provenance, "label": "bad"}},
    }


# reader -> (whether an integer is due, where) for each value spoilt
SLOTS = {
    "topology": ((True, ("edges", 0, "a")), (False, ("edges", 0, "distance"))),
    "weights": ((False, ("weights", 1)),),
    "config": ((True, ("seed",)), (False, ("kpi_alpha",))),
    "sweep": ((True, ("reports", 0, "k")), (False, ("reports", 0, "jain")),
              (True, ("reports", 0, "assignment", 1)), (False, ("reports", 0, "energy")),
              (True, ("provenance", "config", "max_producers"))),
}
SHARED = {"bool": "true", "null": "null", "text": '"1"', "list": "[1]"}
BAD = {True: {**SHARED, "fraction": "1.5"}, False: {**SHARED, "huge": str(HUGE)}}


@pytest.mark.parametrize("reader, integer, path, text", [
    pytest.param(reader, integer, path, text, id=f"{reader}-{path[-1]}-{name}")
    for reader, slots in SLOTS.items()
    for integer, path in slots
    for name, text in BAD[integer].items()
])
def test_every_reader_shows_a_bad_number_the_same_way(inputs, capsys, reader, integer, path, text):
    at, docs = inputs
    doc = json.loads(json.dumps(docs[reader]))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = json.loads(text)
    bad = at / f"bad-{reader}.json"
    bad.write_text(json.dumps(doc))
    topo, weights = str(at / "t.json"), str(at / "w.json")
    argv = {
        "topology": ["solve", str(bad), "--weights", weights, "--k", "2"],
        "weights": ["solve", topo, "--weights", str(bad), "--k", "2"],
        "config": ["solve", topo, "--weights", weights, "--k", "2", "--config", str(bad)],
        "sweep": ["compare", str(at / "good.json"), str(bad)],
    }[reader]
    assert cli.main([*argv, "-o", str(at / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert f" must be {'an integer' if integer else 'a number'}, got {text}" in err
    assert not (at / "out").exists()


def test_constructors_store_what_number_returns():
    spec = SolverSpec(name="anneal", sweeps=np.int64(20), restarts=np.int32(1), t_initial=5,
                      t_final=np.float32(0.5), exhaustive_cap=np.int16(8))
    cfg = SweepConfig(max_producers=np.int64(2), solvers=(spec,), kpi_alpha=1, seed=np.uint8(3))
    assert [type(v) for v in (spec.sweeps, spec.restarts, spec.exhaustive_cap)] == [int] * 3
    assert (spec.t_initial, spec.t_final, cfg.kpi_alpha) == (5.0, 0.5, 1.0)
    assert [type(v) for v in (cfg.max_producers, cfg.seed)] == [int] * 2
    # so the sweep's config echo is JSON
    sweep = run_sweep(generate_ring(4), synthetic_demands(4, timesteps=4), cfg)
    echo = json.loads(json.dumps(sweep_to_dict(sweep)))["provenance"]["config"]
    assert echo["solvers"][0]["sweeps"] == 20 and echo["max_producers"] == 2


# constructor -> its error, a build where an integer is due, one where a number is due
BUILDS = {
    "Topology": (TopologyError, lambda v: Topology(nodes=v, edges=()),
                 lambda v: Topology(nodes=2, edges=((0, 1, v),))),
    "DistanceRule": (TopologyError, None, lambda v: DistanceRule(kind="uniform", high=v)),
    "PenaltyConfig": (QuboError, None, lambda v: PenaltyConfig(gamma=v)),
    # a temperature of null is derived, so it has no place here
    "AnnealConfig": (SolverError, lambda v: AnnealConfig(restarts=v), None),
    "SolverSpec": (WorkflowError, lambda v: SolverSpec(name="heuristic", exhaustive_cap=v), None),
    "SweepConfig": (WorkflowError, lambda v: SweepConfig(seed=v),
                    lambda v: SweepConfig(kpi_alpha=v)),
    "Assignment": (SolverError, lambda v: Assignment(producer_of=(0, v), k=2), None),
    "canonical_form": (SolverError, lambda v: canonical_form((0, v), 2), None),
    "KpiReport": (FairnessError, lambda v: KpiReport(
        k=1, jain=1.0, distance_index=1.0, kpi_alpha=0.5, solver_name="heuristic",
        energy=0.0, assignment=(v,)), lambda v: KpiReport(
        k=1, jain=1.0, distance_index=1.0, kpi_alpha=0.5, solver_name="heuristic", energy=v)),
}


@pytest.mark.parametrize("owner, integer, text", [
    pytest.param(owner, integer, text, id=f"{owner}-{'integer' if integer else 'number'}-{name}")
    for owner, (_, *builds) in BUILDS.items()
    for integer, build in zip((True, False), builds) if build
    for name, text in BAD[integer].items()
])
def test_every_constructor_shows_a_bad_number_the_same_way(owner, integer, text):
    error, *builds = BUILDS[owner]
    noun = "an integer" if integer else "a number"
    with pytest.raises(error, match=re.escape(f" must be {noun}, got {text}")):
        builds[not integer](json.loads(text))


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_written_files_get_the_mode_a_plain_open_gives(tmp_path, mask):
    old = os.umask(mask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_text(str(tmp_path / "atomic.txt"), "x")
        save_topology(generate_ring(4), str(tmp_path / "ring.json"))
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
    assert want == 0o666 & ~mask
    for name in ("atomic.txt", "ring.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt", "ring.json"]


def test_csv_text_quotes_exactly_the_fields_that_need_it():
    fields = ["plain", "a,b", 'say "hi"', "cr\rlone", "lf\nlone", "", 3, 0.1, 1e-05, float("inf")]
    text = csv_text([fields])
    assert text == 'plain,"a,b","say ""hi""","cr\rlone","lf\nlone",,3,0.1,1e-05,inf\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [[str(f) for f in fields]]
    assert csv_text([]) == ""
