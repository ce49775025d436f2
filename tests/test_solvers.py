import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    AnnealConfig,
    Assignment,
    PenaltyConfig,
    QuboInstance,
    SolverError,
    SolverSpec,
    SweepConfig,
    Topology,
    build_qubo,
    build_unweighted_qubo,
    canonical_form,
    decode_and_repair,
    default_penalties,
    energy,
    export_qubo,
    feasible_energies,
    generate_ring,
    generate_tree,
    import_qubo,
    run_sweep,
    solve_anneal,
    solve_exhaustive,
    solve_heuristic,
    uniform_weights,
)
from heatfair import qubo, solvers
from heatfair.demand import compute_weights, synthetic_demands
from heatfair.graphs import DistanceRule
from oracles import (
    anneal_reference,
    auto_temperatures_reference,
    build_suite,
    closed_form_temperatures,
    encode,
    feasible_assignments,
    greedy_seed_reference,
    local_search_reference,
    modified_cost_direct,
    relocate_delta,
    repair_reference,
    swap_delta,
    unweighted_cost_direct,
    var_index,
)

PATH4 = Topology(nodes=4, edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
TRIANGLE = Topology(nodes=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def brute_optimum(topo, w, k, cfg):
    best = None
    for producer_of in feasible_assignments(topo.nodes, k):
        x = np.zeros((topo.nodes, k))
        for i, p in enumerate(producer_of):
            x[i, p] = 1
        cost = modified_cost_direct(
            topo, np.asarray(w.values if hasattr(w, "values") else w), k,
            cfg.beta, cfg.alpha, cfg.gamma, x,
        )
        if best is None or cost < best:
            best = cost
    return best


def test_assignment_validation():
    with pytest.raises(SolverError, match="outside 0..1"):
        Assignment(producer_of=(0, 2), k=2)
    with pytest.raises(SolverError, match=r"^k must be >= 1, got 0$"):
        Assignment(producer_of=(0,), k=0)
    with pytest.raises(SolverError, match="at least one node"):
        Assignment(producer_of=(), k=1)
    with pytest.raises(SolverError, match="at least one node"):
        Assignment(producer_of=np.array([], dtype=int), k=1)
    # an id array reads like a list, whatever its length
    assert Assignment(producer_of=np.array([0]), k=1).producer_of == (0,)
    assert Assignment(producer_of=np.array([0, 1]), k=2).producer_of == (0, 1)
    with pytest.raises(SolverError, match=r"^producer_of must be producer ids, got 3$"):
        Assignment(producer_of=3, k=4)
    # a map or a set has no node order: a dict would read as its keys, a set in hash order
    for given, text in (({0: 1, 1: 0}, '{"0": 1, "1": 0}'), ({1, 0}, "{0, 1}"),
                        (frozenset({0}), "frozenset({0})"), ({0: 1}.keys(), "dict_keys([0])")):
        with pytest.raises(SolverError, match=rf"^producer_of must be producer ids, got {re.escape(text)}$"):
            Assignment(producer_of=given, k=2)
    assert Assignment(producer_of=[1, 0], k=2).producer_of == (1, 0)


def test_encode_round_trips_through_repair():
    q = build_qubo(PATH4, uniform_weights(4), 2, PenaltyConfig())
    a = Assignment(producer_of=(0, 1, 1, 0), k=2)
    bits = encode(a, q)
    assert bits.sum() == 4
    assert decode_and_repair(q, bits).producer_of == (0, 1, 1, 0)
    with pytest.raises(SolverError, match="assignment is"):
        encode(Assignment(producer_of=(0,), k=2), q)


def test_canonical_form_relabels_by_first_appearance():
    assert canonical_form((2, 2, 0, 1), 3).producer_of == (0, 0, 1, 2)
    assert canonical_form((1, 0), 2).producer_of == (0, 1)
    assert canonical_form((0, 0), 4).producer_of == (0, 0)


def test_canonical_form_refuses_ids_outside_the_producers():
    # the row is read as an Assignment first, so it is not relabelled into range
    for row, at, p in (([5, 7], 0, 5), ([-1, 3, -1], 0, -1), ((0, 1, 2), 2, 2)):
        with pytest.raises(SolverError, match=rf"^node {at} assigned to producer {p}, outside 0..1$"):
            canonical_form(row, 2)
    with pytest.raises(SolverError, match=r"^producer_of must be producer ids, got \{0, 1\}$"):
        canonical_form({0, 1}, 2)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.permutations([0, 1, 2, 3]))
def test_canonical_form_is_permutation_invariant(raw, perm):
    k = 4
    relabelled = [perm[p] for p in raw]
    assert canonical_form(raw, k) == canonical_form(relabelled, k)


def test_relabelling_preserves_cost():
    q = build_qubo(PATH4, uniform_weights(4), 3, PenaltyConfig(alpha=2.0, gamma=5.0))
    for producer_of in feasible_assignments(4, 3):
        base = energy(q, encode(Assignment(producer_of=producer_of, k=3), q))
        canon = canonical_form(producer_of, 3)
        assert energy(q, encode(canon, q)) == pytest.approx(base, rel=1e-12)


def test_exhaustive_single_node():
    topo = Topology(nodes=1, edges=())
    q = build_qubo(topo, uniform_weights(1), 1, PenaltyConfig())
    r = solve_exhaustive(q)
    assert r.assignment.producer_of == (0,)
    assert r.energy == 0.0
    assert r.solver_name == "exhaustive"
    assert r.iterations == 1


def test_exhaustive_splits_single_edge():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    w = uniform_weights(2)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    r = solve_exhaustive(q)
    assert r.assignment.producer_of == (0, 1)
    assert r.energy == pytest.approx(0.0, abs=1e-12)


def test_exhaustive_alternates_along_a_path():
    # minimising the kept within-group distance on a path spreads
    # neighbours apart, so the optimum interleaves the two producers
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 2)
    q = build_qubo(PATH4, w, 2, cfg)
    r = solve_exhaustive(q)
    assert r.energy == pytest.approx(brute_optimum(PATH4, w, 2, cfg), rel=1e-9, abs=1e-12)
    assert r.assignment.producer_of == (0, 1, 0, 1)
    assert r.energy == pytest.approx(0.0, abs=1e-12)


def test_exhaustive_tie_break_is_lexicographic():
    # node-count objective on K3 with beta = alpha = 1: every feasible
    # assignment costs exactly 6, so the first enumerated one wins
    cfg = PenaltyConfig(beta=1.0, alpha=1.0, gamma=4.0)
    q = build_unweighted_qubo(TRIANGLE, 3, cfg)
    for producer_of in feasible_assignments(3, 3):
        x = np.zeros((3, 3))
        for i, p in enumerate(producer_of):
            x[i, p] = 1
        assert unweighted_cost_direct(TRIANGLE, 3, 1.0, 1.0, 4.0, x) == pytest.approx(
            6.0, rel=1e-12
        )
    r = solve_exhaustive(q)
    assert r.assignment.producer_of == (0, 0, 0)
    assert r.energy == pytest.approx(6.0, rel=1e-12)

    # unit 7-ring, uniform weights, k=3: both assignments load the
    # producers {3, 2, 2} with no internal edge, and their energies
    # differ only by summation noise
    ring = generate_ring(7)
    w = uniform_weights(7)
    cfg = default_penalties(ring, w, 3)
    q = build_qubo(ring, w, 3, cfg)
    first, later = (0, 1, 0, 1, 2, 0, 2), (0, 1, 0, 1, 2, 1, 2)
    for producer_of in (first, later):
        bits = encode(Assignment(producer_of=producer_of, k=3), q)
        assert energy(q, bits) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert solve_exhaustive(q).assignment.producer_of == first


def test_exhaustive_on_unweighted_single_edge():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    cfg = default_penalties(topo, uniform_weights(2), 2)
    q = build_unweighted_qubo(topo, 2, cfg)
    r = solve_exhaustive(q)
    # node-count objective keeps the Laplacian diagonal, so the split
    # pays the full cut both ways
    assert r.energy == pytest.approx(2.0 * cfg.beta, rel=1e-9)
    assert r.assignment.producer_of == (0, 1)


def test_exhaustive_cap_is_enforced():
    topo = generate_ring(9, seed=1)
    q = build_qubo(topo, uniform_weights(9), 3, PenaltyConfig())
    with pytest.raises(SolverError, match="exhaustive cap is 24"):
        solve_exhaustive(q)
    r = solve_exhaustive(q, max_vars=27)
    assert r.iterations == 3**9


def test_exhaustive_scores_in_blocks(monkeypatch):
    # 2**16 assignments of 16 nodes, 8.4 MB as one (k^n, n) int64 table
    topo = generate_ring(16, chords=2, rule=DistanceRule(kind="uniform", low=0.5, high=2.0),
                         seed=1)
    q = build_qubo(topo, uniform_weights(16), 2)
    tracemalloc.start()
    try:
        r = solve_exhaustive(q, max_vars=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert r.iterations == 2**16
    assert r.assignment.producer_of == (0, 1) * 4 + (1, 0) * 4
    # block ends fall inside runs of tied assignments; the first still wins
    ring = generate_ring(7)
    tied = build_qubo(ring, uniform_weights(7), 3)
    triangle = build_unweighted_qubo(TRIANGLE, 3, PenaltyConfig(beta=1.0, alpha=1.0, gamma=4.0))
    for block in (1, 5, 64):
        monkeypatch.setattr(solvers, "_EXHAUSTIVE_BLOCK", block)
        assert solve_exhaustive(tied).assignment.producer_of == (0, 1, 0, 1, 2, 0, 2)
        assert solve_exhaustive(triangle).assignment.producer_of == (0, 0, 0)


def test_exhaustive_holds_no_energy_per_assignment():
    # beyond what one block of 512 assignments needs, the parent held
    # 8 bytes per assignment: 32 KB at n=12, 512 KB at n=16
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n in (12, 16):
        topo = generate_ring(n, chords=2, rule=DistanceRule(kind="uniform"), seed=1)
        q = build_qubo(topo, uniform_weights(n), 2)
        places = 2 ** np.arange(n - 1, -1, -1)
        block = traced_peak(lambda: feasible_energies(q, np.arange(512)[:, None] // places % 2))
        whole = traced_peak(lambda: solve_exhaustive(q, max_vars=2 * n))
        assert whole - block < 64 * 2**10


@pytest.mark.parametrize("energies, code", [
    ({3: -1.0 + 5e-10, 600: -1.0}, 3),  # within the tolerance of a later, lower energy
    ({3: -0.5, 600: -1.0, 900: -1.0}, 600),  # lowest of its block, passed by a later one
], ids=["near-tie-first", "lowest-falls"])
def test_exhaustive_keeps_near_ties_across_blocks(monkeypatch, energies, code):
    # 2**10 assignments make two blocks; energies are read from a table by code
    n = 10
    places = 2 ** np.arange(n - 1, -1, -1)
    table = np.zeros(2**n)
    for at, value in energies.items():
        table[at] = value
    monkeypatch.setattr(solvers, "feasible_energies", lambda q, rows: table[np.asarray(rows) @ places])
    q = build_qubo(generate_ring(n), uniform_weights(n), 2)
    r = solve_exhaustive(q, max_vars=2 * n)
    assert r.assignment == canonical_form(code // places % 2, 2)
    assert r.iterations == 2**n


def test_exhaustive_matches_brute_force_minimum(suite):
    for entry in suite[:6]:
        n = entry.topo.nodes
        for k in (1, 2):
            if k > n:
                continue
            cfg = default_penalties(entry.topo, entry.weights, k)
            q = build_qubo(entry.topo, entry.weights, k, cfg)
            r = solve_exhaustive(q)
            expected = brute_optimum(entry.topo, entry.weights, k, cfg)
            assert r.energy == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_solve_result_energy_is_recomputable(suite):
    entry = suite[1]
    cfg = default_penalties(entry.topo, entry.weights, 2)
    q = build_qubo(entry.topo, entry.weights, 2, cfg)
    for r in (
        solve_exhaustive(q),
        solve_anneal(q, AnnealConfig(sweeps=300, restarts=2, seed=4)),
        solve_heuristic(q, seed=4),
    ):
        assert r.energy == pytest.approx(
            energy(q, encode(r.assignment, q)), rel=1e-9, abs=1e-12
        )
        assert r.assignment.producer_of == canonical_form(
            r.assignment.producer_of, 2
        ).producer_of


def test_anneal_config_validation():
    with pytest.raises(SolverError, match="sweeps"):
        AnnealConfig(sweeps=0)
    with pytest.raises(SolverError, match="restarts"):
        AnnealConfig(restarts=0)
    with pytest.raises(SolverError, match="both t_initial and t_final"):
        AnnealConfig(t_initial=5.0)
    with pytest.raises(SolverError, match="t_initial > t_final > 0"):
        AnnealConfig(t_initial=1.0, t_final=2.0)
    with pytest.raises(SolverError, match="must be finite"):
        AnnealConfig(t_initial=float("inf"), t_final=1.0)
    with pytest.raises(SolverError, match="must be finite"):
        AnnealConfig(t_initial=float("nan"), t_final=float("nan"))
    with pytest.raises(SolverError, match="schedule"):
        AnnealConfig(schedule="exponential")


@pytest.mark.parametrize("field, value", [
    ("sweeps", 2.5), ("sweeps", True), ("sweeps", "10"), ("restarts", 2.0),
    ("restarts", False), ("restarts", None),
])
def test_anneal_config_checks_types(field, value):
    with pytest.raises(SolverError, match=f"{field} must be an integer"):
        AnnealConfig(**{field: value})


def test_anneal_config_stores_numpy_integers_as_ints():
    cfg = AnnealConfig(sweeps=np.int64(30), restarts=np.int32(2))
    assert (cfg.sweeps, cfg.restarts) == (30, 2)
    assert type(cfg.sweeps) is int and type(cfg.restarts) is int


@pytest.mark.parametrize("schedule", ["geometric", "linear"])
def test_anneal_rejects_a_schedule_too_big_to_lay_out(schedule):
    cfg = AnnealConfig(sweeps=2**62, restarts=1, schedule=schedule)
    for k in (1, 2):  # k = 1 needs no walk, yet its config is checked
        q = build_qubo(PATH4, uniform_weights(4), k, PenaltyConfig())
        with pytest.raises(SolverError, match="sweeps=4611686018427387904 is too many"):
            solve_anneal(q, cfg)


@pytest.mark.parametrize("schedule", ["geometric", "linear"])
def test_anneal_at_temperatures_near_the_float_limit_matches_the_reference(schedule):
    # limits and ceilings past the largest float are +inf, as the
    # reference's Python floats give them, and no overflow is warned of
    topo = generate_ring(6, chords=2, seed=9)
    w = uniform_weights(6)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    assert_anneal_matches_reference(q, 30, 2, schedule, 1e308, 1e-308, seed=5)


def test_anneal_refuses_a_derived_temperature_past_the_float_range():
    # the offset stays finite, but a QUBO row's |coupling| sum does not; the
    # schedule is laid out before k = 1 is answered, so k = 1 is refused too
    star = Topology(nodes=4, edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    for q in (build_qubo(generate_ring(12), uniform_weights(12), 12, PenaltyConfig(alpha=1.0, gamma=1e307)),
              *(build_qubo(star, uniform_weights(4), k, PenaltyConfig(beta=4e307)) for k in (1, 2))):
        assert np.isfinite(q.offset)
        with pytest.raises(SolverError, match=r"derived initial temperature, is not finite; "
                                              r"scale the penalties down$"):
            solve_anneal(q, AnnealConfig(sweeps=10, restarts=1))


def test_anneal_is_deterministic_per_seed():
    topo = generate_ring(6, chords=2, seed=9)
    w = uniform_weights(6)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    cfg = AnnealConfig(sweeps=400, restarts=3, seed=11)
    first = solve_anneal(q, cfg)
    second = solve_anneal(q, cfg)
    assert first.assignment == second.assignment
    assert first.energy == second.energy
    assert first.seed == 11
    assert first.solver_name == "anneal"


def test_anneal_handles_flat_landscape():
    flat = qubo.Objective(ends=np.zeros((0, 2), dtype=np.int64), edge_coeff=np.zeros(0),
                          node_linear=np.zeros(2), weights=np.ones(2), target=2.0,
                          alpha=0.0, gamma=0.0)
    q = QuboInstance(k=1, objective=flat)
    assert q.offset == 0.0
    r = solve_anneal(q, AnnealConfig(sweeps=50, restarts=1, seed=0))
    assert r.assignment.producer_of == (0, 0)
    assert r.energy == 0.0


def test_anneal_respects_explicit_schedules():
    topo = generate_ring(5, seed=3)
    w = uniform_weights(5)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    for schedule in ("geometric", "linear"):
        cfg = AnnealConfig(
            sweeps=300, restarts=2, t_initial=10.0, t_final=0.01,
            schedule=schedule, seed=2,
        )
        r = solve_anneal(q, cfg)
        assert r.energy == pytest.approx(energy(q, encode(r.assignment, q)), rel=1e-9)


def test_anneal_never_beats_the_global_optimum(suite):
    for i, entry in enumerate(suite[:5]):
        k = min(2, entry.topo.nodes)
        cfg = default_penalties(entry.topo, entry.weights, k)
        q = build_qubo(entry.topo, entry.weights, k, cfg)
        truth = solve_exhaustive(q).energy
        got = solve_anneal(q, AnnealConfig(sweeps=500, restarts=3, seed=40 + i)).energy
        assert got >= truth - 1e-9 * max(1.0, abs(truth))


def test_anneal_finds_small_optimum_across_seeds():
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 2)
    q = build_qubo(PATH4, w, 2, cfg)
    truth = solve_exhaustive(q).energy
    for seed in range(5):
        r = solve_anneal(q, AnnealConfig(sweeps=800, restarts=4, seed=seed))
        assert r.energy == pytest.approx(truth, rel=1e-9, abs=1e-9)


def test_repair_keeps_feasible_vectors():
    q = build_qubo(PATH4, uniform_weights(4), 3, PenaltyConfig())
    for producer_of in ((0, 1, 2, 0), (2, 2, 1, 0)):
        bits = encode(Assignment(producer_of=producer_of, k=3), q)
        assert decode_and_repair(q, bits).producer_of == producer_of


def test_repair_resolves_all_zeros_by_conditional_energy():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    w = uniform_weights(2)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    a = decode_and_repair(q, np.zeros(4))
    assert a.producer_of == (0, 1)


def test_repair_picks_the_cheaper_of_the_set_bits():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    w = uniform_weights(2)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    bits = np.zeros(4)
    bits[var_index(q, 0, 0)] = 1
    bits[var_index(q, 0, 1)] = 1  # node 0 double-assigned
    bits[var_index(q, 1, 0)] = 1  # node 1 fixed on producer 0
    a = decode_and_repair(q, bits)
    assert a.producer_of[1] == 0
    candidates = {}
    for j in range(2):
        probe = np.zeros(4)
        probe[var_index(q, 0, j)] = 1
        probe[var_index(q, 1, 0)] = 1
        candidates[j] = energy(q, probe)
    assert a.producer_of[0] == min(candidates, key=lambda j: (candidates[j], j))


@given(st.data())
def test_repair_output_is_always_feasible(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, min(3, n)))
    edges = tuple((i, i + 1, 1.0) for i in range(n - 1))
    topo = Topology(nodes=n, edges=edges)
    q = build_qubo(topo, uniform_weights(n), k, PenaltyConfig(alpha=2.0, gamma=3.0))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=q.num_vars, max_size=q.num_vars)
    )
    a = decode_and_repair(q, bits)
    assert a.n == n and a.k == k
    again = decode_and_repair(q, encode(a, q))
    assert again.producer_of == a.producer_of


def reference_repair(q, bits):
    obj = q.objective
    return repair_reference(q.linear, q.quadratic, q.offset, q.n, q.k, obj.weights,
                            obj.alpha, obj.ends, obj.edge_coeff, bits)


def test_repair_matches_reference(suite):
    rng = np.random.default_rng(9)
    for entry in suite:
        uniform = uniform_weights(entry.topo.nodes)
        for k in range(1, min(4, entry.topo.nodes) + 1):
            for q in (
                build_qubo(entry.topo, entry.weights, k,
                           default_penalties(entry.topo, entry.weights, k)),
                build_unweighted_qubo(entry.topo, k,
                                      default_penalties(entry.topo, uniform, k)),
            ):
                probes = [np.zeros(q.num_vars), np.ones(q.num_vars)] + [
                    (rng.random(q.num_vars) < density).astype(float)
                    for density in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
                ]
                for bits in probes:
                    assert list(decode_and_repair(q, bits).producer_of) == reference_repair(
                        q, bits), (entry.name, k, bits)


def test_repair_breaks_exact_ties_to_the_lower_id():
    # With every bit set, each producer holds all other nodes, so node 0's
    # candidates tie exactly; summation noise must not pick among them.
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    tree = generate_tree(24, branching=3, rule=rule, seed=7)
    w = compute_weights(synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0))
    for k in range(2, 9):
        q = build_qubo(tree, w, k, default_penalties(tree, w, k))
        ones = np.ones(q.num_vars)
        got = decode_and_repair(q, ones).producer_of
        assert got[0] == 0, k
        assert list(got) == reference_repair(q, ones)


def test_heuristic_single_producer_is_trivial():
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 1)
    r = solve_heuristic(build_qubo(PATH4, w, 1, cfg))
    assert r.assignment.producer_of == (0, 0, 0, 0)
    assert r.solver_name == "heuristic"


def test_one_producer_is_answered_without_search(monkeypatch):
    # every node on producer 0 is the only feasible assignment at k = 1
    for name in ("_walk", "_start", "_greedy_seed", "_local_search"):
        monkeypatch.setattr(solvers, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    w = uniform_weights(4)
    q = build_qubo(PATH4, w, 1)
    for r, iterations in ((solve_anneal(q, AnnealConfig(sweeps=50, restarts=3)), 50 * 4 * 3),
                          (solve_heuristic(q, restarts=3), 0)):
        assert r.assignment.producer_of == (0, 0, 0, 0)
        assert r.energy == feasible_energies(q, [[0, 0, 0, 0]])[0]
        assert r.iterations == iterations


def test_heuristic_matches_exhaustive_on_path(suite):
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 2)
    q = build_qubo(PATH4, w, 2, cfg)
    truth = solve_exhaustive(q)
    r = solve_heuristic(q, seed=3)
    assert r.energy == pytest.approx(truth.energy, rel=1e-9, abs=1e-9)
    assert r.assignment == truth.assignment
    # the unweighted variant: node terms are paid once by every
    # feasible assignment, so the same search reaches its optimum too
    for entry in suite:
        n = entry.topo.nodes
        for k in range(1, min(n, 4) + 1):
            if n * k > 24:
                continue
            cfg = default_penalties(entry.topo, uniform_weights(n), k)
            q = build_unweighted_qubo(entry.topo, k, cfg)
            truth = solve_exhaustive(q)
            r = solve_heuristic(q, seed=k)
            assert r.energy <= truth.energy + 1e-9 * abs(truth.energy), (entry.name, k)


def test_heuristic_is_deterministic_per_seed(suite):
    entry = suite[3]
    cfg = default_penalties(entry.topo, entry.weights, 3)
    q = build_qubo(entry.topo, entry.weights, 3, cfg)
    first = solve_heuristic(q, seed=9)
    second = solve_heuristic(q, seed=9)
    assert first.assignment == second.assignment and first.energy == second.energy


def test_heuristic_ties_go_to_the_first_restart(suite, monkeypatch):
    # uniform weights on a unit 6-ring, k=5: every restart ends at the
    # same energy in a different assignment; the first restart's wins
    entry = next(e for e in suite if e.name == "ring6c0s102")
    w = uniform_weights(6)
    cfg = default_penalties(entry.topo, w, 5)
    q = build_qubo(entry.topo, w, 5, cfg)
    scored = []
    real = solvers.feasible_energies
    monkeypatch.setattr(solvers, "feasible_energies",
                        lambda q, rows: scored.append(np.asarray(rows)) or real(q, rows))
    r = solve_heuristic(q, seed=0)

    finals, answer = scored  # the restarts' final rows, then the answer's
    assert answer.tolist() == [list(r.assignment.producer_of)]
    scores = real(q, finals)
    assert len({canonical_form(row, 5) for row in finals}) > 1
    assert np.all(np.abs(scores - scores.min()) <= 1e-9 * abs(scores.min()))
    assert r.assignment == canonical_form(finals[0], 5)
    assert r.assignment.producer_of == (0, 1, 2, 3, 4, 1)
    assert r.energy == pytest.approx(energy(q, encode(r.assignment, q)), rel=1e-12)


@pytest.mark.parametrize("network", ["ring", "tree"])
def test_heuristic_answer_does_not_depend_on_gamma(network):
    # the heuristic never reads gamma, and the closed form it is scored
    # by has no gamma term: gamma = 1e300, whose offset swamps every
    # energy summed through it, gives the default answer bit for bit
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = (generate_ring(24, chords=4, rule=rule, seed=7) if network == "ring"
            else generate_tree(24, branching=3, rule=rule, seed=7))
    w = compute_weights(synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0))
    for k in (2, 3, 4, 6, 8):
        cfg = default_penalties(topo, w, k)
        want = solve_heuristic(build_qubo(topo, w, k, cfg))
        got = solve_heuristic(build_qubo(topo, w, k, PenaltyConfig(beta=1.0, alpha=cfg.alpha, gamma=1e300)))
        assert (got.assignment, got.energy) == (want.assignment, want.energy), k


def test_heuristic_beats_random_sampling_on_large_ring():
    topo = generate_ring(24, seed=0)
    w = uniform_weights(24)
    cfg = default_penalties(topo, w, 4)
    q = build_qubo(topo, w, 4, cfg)
    r = solve_heuristic(q, seed=1)
    assert r.energy == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(123)
    sample = rng.integers(0, 4, size=(100_000, 24))
    assert r.energy <= qubo.feasible_energies(q, sample).min() + 1e-9


def imported_message(who: str) -> str:
    """The whole refusal a solver gives an instance read back by import_qubo."""
    return f"^{who} needs the instance's objective; an imported one has none$"


def test_heuristic_validates_inputs(tmp_path):
    q = build_qubo(PATH4, uniform_weights(4), 2, PenaltyConfig())
    with pytest.raises(SolverError, match="restarts"):
        solve_heuristic(q, restarts=0)
    path = str(tmp_path / "path4.qubo")
    export_qubo(q, path)
    imported = import_qubo(path)
    assert imported.objective is None
    with pytest.raises(SolverError, match=imported_message("the heuristic")):
        solve_heuristic(imported)


def test_results_serialise_without_wall_time_surprises():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    w = uniform_weights(2)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    doc = solve_exhaustive(q).as_dict()
    assert set(doc) == {
        "assignment", "k", "energy", "solver_name", "seed", "iterations",
    }
    assert doc["assignment"] == [0, 1]
    assert dataclasses.asdict(AnnealConfig())["schedule"] == "geometric"


def neighbour_lists(topo):
    neighbours = [[] for _ in range(topo.nodes)]
    for u, v, dist in topo.edges:
        neighbours[u].append((v, dist))
        neighbours[v].append((u, dist))
    return neighbours


def hub_topology(seed, n=30):
    """Node 0 wired to all others (degree n - 1, past numpy's 8-element
    pairwise-summation block) plus a path through the rest."""
    rng = np.random.default_rng(seed)
    spokes = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return Topology(
        nodes=n,
        edges=tuple((a, b, float(rng.uniform(0.5, 2.0))) for a, b in spokes),
    )


def search_problem(topo, weights, k):
    """Plain-list inputs of the local search under default penalties:
    neighbour lists, weights, beta and alpha. No target: the balance
    change of a move, 2 * alpha * w_i * L_j for seeding and its
    relocation and swap forms, does not read it."""
    w = [float(x) for x in np.asarray(getattr(weights, "values", weights))]
    cfg = default_penalties(topo, w, k)
    return neighbour_lists(topo), w, cfg.beta, cfg.alpha


def edge_coefficients(neighbours, beta):
    """The kernels' neighbour lists: (neighbour, 2 * beta * dist)."""
    return [[(u, 2.0 * beta * dist) for u, dist in nb] for nb in neighbours]


def kernel_inputs(neighbours, w, beta, alpha):
    """The kernels' fixed tables: neighbour entries, weights and the
    balance products."""
    return solvers._fixed_tables(edge_coefficients(neighbours, beta), np.array(w, dtype=float), alpha)


def loads_of(producer_of, w, k):
    loads = [0.0] * k
    for i, p in enumerate(producer_of):
        loads[p] += w[i]
    return loads


def lockstep(starts, neighbours, w, beta, alpha, steps=None):
    """_local_search from the starts. With steps set, a descent that asks
    for more move tables than that fails at once, so a kernel whose
    deltas let it cycle fails instead of running on."""
    p = np.array([s[0] for s in starts])
    loads = np.array([s[1] for s in starts])
    tables, real = itertools.count(1), solvers._move_tables

    def bounded(*args):
        if steps is not None and next(tables) > steps:
            pytest.fail(f"the descent took more than {steps} steps")
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_move_tables", bounded)
        moves = solvers._local_search(p, loads, kernel_inputs(neighbours, w, beta, alpha))
    return p, loads, moves


def equivalence_cases():
    for entry in build_suite():
        n = entry.topo.nodes
        yield entry.name, entry.topo, entry.weights
        yield entry.name + "-uniform", entry.topo, uniform_weights(n)
    demands = synthetic_demands(30, timesteps=48, seed=5, anchor_scale=3.0)
    yield "hub30", hub_topology(5), compute_weights(demands)


def complete_topology(seed, n=12):
    """Every pair of nodes joined: neighbour lists n - 1 long."""
    rng = np.random.default_rng(seed)
    return Topology(nodes=n, edges=tuple(
        (a, b, float(rng.uniform(0.5, 2.0))) for a in range(n) for b in range(a + 1, n)
    ))


def signed_cases():
    """equivalence_cases with edge coefficient sign +1.0, then a ring
    with chords, the degree-29 hub and a tree again with -1.0 (the
    unweighted builder hands the heuristic -2 * beta per edge), then a
    complete graph."""
    cases = list(equivalence_cases())
    yield from ((*case, 1.0) for case in cases)
    negated = ("ring8c5s109", "tree8b3s116", "hub30")
    yield from ((*case, -1.0) for case in cases if case[0] in negated)
    demands = synthetic_demands(12, timesteps=48, seed=6, anchor_scale=3.0)
    yield "complete12", complete_topology(6), compute_weights(demands), 1.0


def seeding_orders(w, rng, randoms=3):
    n = len(w)
    return [sorted(range(n), key=lambda i: (-w[i], i))] + [
        rng.permutation(n).tolist() for _ in range(randoms)
    ]


@pytest.mark.parametrize("k", range(1, 9))
def test_lockstep_seeding_matches_scalar_reference(k):
    rng = np.random.default_rng(100 + k)
    for name, topo, weights, sign in signed_cases():
        if k > topo.nodes:
            continue
        neighbours, w, beta, alpha = search_problem(topo, weights, k)
        beta *= sign
        orders = seeding_orders(w, rng)
        coeffs = edge_coefficients(neighbours, beta)
        p, loads = solvers._greedy_seed(orders, coeffs, w, alpha, k)
        for r, order in enumerate(orders):
            ref_p, ref_loads = greedy_seed_reference(order, coeffs, w, k, alpha)
            assert p[r].tolist() == ref_p, (name, r)
            assert loads[r].tolist() == ref_loads, (name, r)
    if k > 1:
        # nodes 0..2, at producer 0 when node 3 comes, carry coefficients that
        # sum to 1e-30 in node 3's list order and to 0.0 in reverse, so only
        # that order sends node 3 to producer 1 rather than 0
        coeffs = [[(3, 1.0)], [(3, -1.0)], [(3, 1e-30)], [(0, 1.0), (1, -1.0), (2, 1e-30)]]
        w = [0.0] * 4
        orders = [[0, 1, 2, 3], [2, 0, 1, 3], [0, 3, 1, 2]]
        p, loads = solvers._greedy_seed(orders, coeffs, w, 1.0, k)
        for r, order in enumerate(orders):
            assert (p[r].tolist(), loads[r].tolist()) == greedy_seed_reference(order, coeffs, w, k, 1.0)
        assert p[:2, 3].tolist() == [1, 1]


@pytest.mark.parametrize("k", range(1, 9))
def test_lockstep_search_matches_scalar_reference(k):
    rng = np.random.default_rng(k)
    for name, topo, weights, sign in signed_cases():
        n = topo.nodes
        if k > n:
            continue
        neighbours, w, beta, alpha = search_problem(topo, weights, k)
        beta *= sign
        orders = seeding_orders(w, rng)
        coeffs = edge_coefficients(neighbours, beta)
        starts = [
            greedy_seed_reference(order, coeffs, w, k, alpha)
            for order in orders
        ]
        randoms = [rng.integers(0, k, size=n).tolist() for _ in range(2)]
        starts += [(p, loads_of(p, w, k)) for p in randoms]
        refs = [
            local_search_reference(start_p, start_loads, neighbours, w, beta, alpha)
            for start_p, start_loads in starts
        ]
        # with every restart in one group, a step per move of the longest
        # descent and one to find that no move is left
        steps = max(ref_moves for _, _, ref_moves in refs) + 1
        p, loads, moves = lockstep(starts, neighbours, w, beta, alpha, steps)
        for r, (ref_p, ref_loads, ref_moves) in enumerate(refs):
            assert p[r].tolist() == ref_p, (name, r)
            assert loads[r].tolist() == ref_loads, (name, r)
            assert moves[r] == ref_moves, (name, r)
    if k == 2:
        # on the path 0-1-2 (edge coefficients 1.0, alpha 0) from (0, 0, 1),
        # relocating node 0 and swapping nodes 1 and 2 both change the
        # energy by exactly -1.0: the tie goes to the relocation
        neighbours, w = [[(1, 1.0)], [(0, 1.0), (2, 1.0)], [(1, 1.0)]], [1 / 3] * 3
        start = ([0, 0, 1], loads_of([0, 0, 1], w, 2))
        args = (*start, neighbours, w, 0.5, 0.0)
        assert relocate_delta(0, 1, *args) == swap_delta(1, 2, *args) == -1.0
        ref = local_search_reference(*args)
        assert ref == ([1, 0, 1], loads_of([1, 0, 1], w, 2), 1)
        p, loads, moves = lockstep([start], neighbours, w, 0.5, 0.0, steps=2)
        assert (p[0].tolist(), loads[0].tolist(), moves[0]) == ref


def test_move_tables_equal_reference_deltas_bit_for_bit():
    rng = np.random.default_rng(17)
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    demands = synthetic_demands(30, timesteps=48, seed=8, anchor_scale=3.0)
    tree_demands = synthetic_demands(13, timesteps=48, seed=9, anchor_scale=3.0)
    # (topology, weights, penalty scale, edge coefficient sign): a
    # degree-29 hub beside nodes of degree 2 and 3, degree-1 leaves, no
    # edges at all, coefficients and balance terms at subnormal scale,
    # and the hub, ring and tree again with negated edge coefficients
    cases = [
        (hub_topology(2), compute_weights(demands), 1.0, 1.0),
        (generate_ring(12, chords=5, rule=rule, seed=3), uniform_weights(12), 1.0, 1.0),
        (generate_tree(13, branching=3, rule=rule, seed=4), compute_weights(tree_demands), 1.0, 1.0),
        (Topology(nodes=1, edges=()), uniform_weights(1), 1.0, 1.0),
        (Topology(nodes=5, edges=()), compute_weights(synthetic_demands(5, timesteps=48, seed=10)), 1.0,
         1.0),
        (generate_ring(12, chords=5, rule=rule, seed=5), uniform_weights(12), 2.0**-1060, 1.0),
    ]
    cases += [(topo, weights, 1.0, -1.0) for topo, weights, _, _ in cases[:3]]
    for topo, weights, scale, sign in cases:
        n = topo.nodes
        for k in (1, 2, 3, 5, 8):
            if k > n:
                continue
            neighbours, w, beta, alpha = search_problem(topo, weights, k)
            beta, alpha = beta * scale * sign, alpha * scale
            if scale < 1.0:  # meant to run on subnormal edge coefficients
                assert 0.0 < 2.0 * beta * max(d for _, _, d in topo.edges) < np.finfo(float).tiny
            states = [rng.integers(0, k, size=n).tolist() for _ in range(3)]
            p = np.array(states)
            loads = np.array([loads_of(s, w, k) for s in states])
            table = solvers._move_tables(p, loads, kernel_inputs(neighbours, w, beta, alpha))
            rel, swp = table[:, :n * k], table[:, n * k:]
            assert table.shape == (3, n * k + n * n)
            args = (neighbours, w, beta, alpha)
            for r, state in enumerate(states):
                state_loads = loads[r].tolist()
                for i in range(n):
                    for dest in range(k):
                        got = rel[r, i * k + dest]
                        if dest == state[i]:
                            assert got == np.inf
                        else:
                            want = relocate_delta(i, dest, state, state_loads, *args)
                            assert float(got).hex() == want.hex(), (r, i, dest)
                    for j in range(n):
                        got = swp[r, i * n + j]
                        if state[i] == state[j]:
                            assert got == np.inf
                        elif j < i:  # the swap block is symmetric bit for bit
                            assert float(got).hex() == float(swp[r, j * n + i]).hex(), (r, i, j)
                        else:
                            want = swap_delta(i, j, state, state_loads, *args)
                            assert float(got).hex() == want.hex(), (r, i, j)


@pytest.mark.parametrize("k", range(2, 6))
def test_move_tables_price_the_objective(k):
    """Every finite entry of _move_tables is the change of the QUBO's own
    energy, feasible_energies after the move less before, within 1e-9 of
    the energy's scale, at three random states of each case."""
    rng = np.random.default_rng(50 + k)
    for name, topo, weights in equivalence_cases():
        n = topo.nodes
        if k > n:
            continue
        q = build_qubo(topo, weights, k, default_penalties(topo, weights, k))
        obj = q.objective
        p = rng.integers(0, k, size=(3, n))
        loads = np.array([loads_of(s, obj.weights.tolist(), k) for s in p.tolist()])
        fixed = solvers._fixed_tables(solvers._neighbours(obj), obj.weights, obj.alpha)
        table = solvers._move_tables(p.copy(), loads, fixed)
        rel, swp = table[:, :n * k], table[:, n * k:]
        for r, state in enumerate(p):
            before = feasible_energies(q, [state])[0]
            afters, got = [], []
            for i, dest in zip(*np.nonzero(np.isfinite(rel[r].reshape(n, k)))):
                afters.append(state.copy())
                afters[-1][i] = dest
                got.append(rel[r, i * k + dest])
            for i, j in zip(*np.nonzero(np.isfinite(swp[r].reshape(n, n)))):
                afters.append(state.copy())
                afters[-1][[i, j]] = state[[j, i]]
                got.append(swp[r, i * n + j])
            want = feasible_energies(q, afters) - before
            assert len(got) == n * (k - 1) + int((state[:, None] != state).sum())
            tolerance = 1e-9 * (abs(q.offset) + abs(before))
            assert np.abs(np.array(got) - want).max() <= tolerance, (name, r)


def test_local_search_memory_stays_bounded():
    n, k = 400, 8
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(n, chords=n // 6, rule=rule, seed=1)
    weights = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    neighbours, w, beta, alpha = search_problem(topo, weights, k)
    rng = np.random.default_rng(0)
    coeffs = edge_coefficients(neighbours, beta)
    starts = [
        greedy_seed_reference(rng.permutation(n).tolist(), coeffs, w, k, alpha)
        for _ in range(8)
    ]
    tracemalloc.start()
    try:
        lockstep(starts, neighbours, w, beta, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


# (sweeps, restarts, schedule, t_initial, t_final), dealt round-robin over
# the cases below: one sweep (nothing to skip), short and long runs, both
# schedules, derived and explicit temperatures, restarts 1 and 8
ANNEAL_CONFIGS = [
    (1, 1, "geometric", None, None),
    (300, 8, "linear", None, None),
    (2000, 1, "geometric", None, None),
    (300, 1, "geometric", 5.0, 0.01),
    (1, 8, "linear", 2.0, 1.0),
    (2000, 1, "linear", 50.0, 0.001),
    (300, 8, "geometric", None, None),
    (2000, 8, "geometric", None, None),
]


def assert_anneal_matches_reference(q, sweeps, restarts, schedule, t_initial, t_final, seed):
    """solve_anneal's raw best bits per restart, from the routine it walks
    its restarts with, and its result equal the scalar reference loop's,
    compared with ==. The bits are compared at k = 1 too, where
    solve_anneal walks nothing: k = 1 instances give exact ties most
    easily, and the walk treats every k alike."""
    cfg = AnnealConfig(sweeps=sweeps, restarts=restarts, schedule=schedule,
                       t_initial=t_initial, t_final=t_final, seed=seed)
    obj = q.objective
    temps = solvers._temperature_schedule(obj, q.k, cfg)
    raw = [best.tolist() for best in solvers._restart_bests(q, temps, cfg)]
    want_raw = anneal_reference(obj.ends, obj.edge_coeff, obj.node_linear, obj.weights,
                                obj.target, obj.alpha, obj.gamma, q.k, sweeps, restarts,
                                seed, schedule, t_initial, t_final)
    assert raw == want_raw
    got = solve_anneal(q, cfg)
    rows = [solvers._repair(obj, np.array(bits)).producer_of for bits in want_raw]
    want = solvers._result(q, rows, "anneal", seed, sweeps * q.num_vars * restarts)
    assert got.assignment == want.assignment
    assert got.energy.hex() == want.energy.hex()
    assert (got.iterations, got.seed, got.solver_name) == (
        want.iterations, want.seed, want.solver_name)


@pytest.mark.parametrize("block_sweeps", [1, 2, 3])
def test_anneal_matches_reference_across_limit_blocks(block_sweeps, suite, monkeypatch):
    # blocks of 1, 2 or 3 sweeps, so that the skip windows of every frozen
    # stretch cross block ends; each suite entry takes the next config
    for case, entry in enumerate(suite):
        k = 1 + case % min(4, entry.topo.nodes)
        q = build_qubo(entry.topo, entry.weights, k,
                       default_penalties(entry.topo, entry.weights, k))
        monkeypatch.setattr(solvers, "_LIMIT_BLOCK", block_sweeps * q.num_vars)
        config = ANNEAL_CONFIGS[case % len(ANNEAL_CONFIGS)]
        assert_anneal_matches_reference(q, *config, seed=case)


@pytest.mark.parametrize("block_sweeps", [1, 3, 7, None])
def test_limit_blocks_equal_the_whole_table(block_sweeps, monkeypatch):
    # numpy's log1p dispatches to SIMD loops; this pins that a term's bits
    # do not depend on where a block cuts the stream (None: the default)
    temps = np.geomspace(50.0, 1e-3, 500)
    for nv in (1, 5, 96, 2**15 + 3):
        sweeps = temps if nv < 2**15 else temps[:3]
        if block_sweeps is not None:
            monkeypatch.setattr(solvers, "_LIMIT_BLOCK", block_sweeps * nv)
        rows = max(1, solvers._LIMIT_BLOCK // nv)
        ceiling = np.full(len(sweeps), np.inf)
        limits = solvers._Limits(np.random.default_rng(nv), sweeps, ceiling, nv)
        table, blocks = [], []
        for sweep in range(len(sweeps)):
            table.append(limits.row(sweep))
            if (limits.lo, limits.hi) not in blocks:
                blocks.append((limits.lo, limits.hi))
        assert len(limits.buf) == min(rows, len(sweeps))  # one buffer, refilled
        assert [hi - lo for lo, hi in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= blocks[-1][1] - blocks[-1][0] <= rows
        u = np.random.default_rng(nv).random((len(sweeps), nv))
        whole = -sweeps[:, None] * np.log1p(-u)
        assert np.array_equal(np.array(table).view(np.int64), whole.view(np.int64))


def test_anneal_memory_stays_bounded():
    # limits are drawn a block at a time; the whole table of this solve
    # would be 2000 x 3200 floats, ~49 MB a copy. Cold temperatures
    # freeze the walk at once, so the skips cover nearly every sweep.
    n, k = 400, 8
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(n, chords=n // 6, rule=rule, seed=1)
    weights = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    q = build_qubo(topo, weights, k, default_penalties(topo, weights, k))
    auto = solvers._auto_temperatures(q.objective, k)[0]
    cfg = AnnealConfig(sweeps=2000, restarts=2, t_initial=1e-7 * auto, t_final=1e-9 * auto)
    tracemalloc.start()
    try:
        solve_anneal(q, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def ring_instance(n, k):
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(n, chords=n // 6, rule=rule, seed=1)
    weights = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    return build_qubo(topo, weights, k, default_penalties(topo, weights, k))


@pytest.mark.parametrize("k", range(1, 9))
def test_auto_temperatures_equal_the_dense_rows(k, suite):
    # the closed form equals its scalar reference bit for bit, and the dense
    # rows, summed in column order, within (n + k) roundings; the extra
    # objectives are signed_cases' negated edge coefficients, its degree-11
    # complete graph and, at k = 1, one node without edges
    instances = [ring_instance(n, k) for n in ((24, 160, 1000) if k == 8 else (24, 160))]
    for entry in suite:
        if k <= entry.topo.nodes:
            uniform = uniform_weights(entry.topo.nodes)
            instances += [
                build_qubo(entry.topo, entry.weights, k,
                           default_penalties(entry.topo, entry.weights, k)),
                build_unweighted_qubo(entry.topo, k, default_penalties(entry.topo, uniform, k)),
            ]
    objectives = [q.objective for q in instances]
    for name, topo, weights, sign in signed_cases():
        if (sign < 0 or name == "complete12") and k <= topo.nodes:
            obj = build_qubo(topo, weights, k, default_penalties(topo, weights, k)).objective
            objectives.append(dataclasses.replace(obj, edge_coeff=sign * obj.edge_coeff))
    if k == 1:
        objectives.append(build_qubo(Topology(nodes=1, edges=()), uniform_weights(1), 1).objective)
    assert len(objectives) == len(instances) + (5 if k == 1 else 4)
    for obj in objectives:
        got = solvers._auto_temperatures(obj, k)
        want = closed_form_temperatures(obj.ends, obj.edge_coeff, obj.lin, obj.weights,
                                        obj.alpha, obj.gamma, k)
        assert [t.hex() for t in got] == [t.hex() for t in want]
        bound = (obj.weights.size + k) * np.finfo(float).eps
        for t, dense in zip(got, auto_temperatures_reference(obj, k)):
            assert abs(t - dense) <= bound * dense


def test_auto_temperatures_build_no_square_array():
    # the reach is read per node and per edge, in O(n + m) floats; the
    # dense rows' n x n pair matrix alone would be 8 MB here
    q = ring_instance(1000, 8)
    tracemalloc.start()
    try:
        solvers._auto_temperatures(q.objective, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 * 2**20


@pytest.mark.parametrize("k", range(1, 5))
def test_anneal_matches_scalar_reference(k, suite):
    case = k
    for entry in suite:
        if k > entry.topo.nodes:
            continue
        uniform = uniform_weights(entry.topo.nodes)
        for q in (
            build_qubo(entry.topo, entry.weights, k,
                       default_penalties(entry.topo, entry.weights, k)),
            build_unweighted_qubo(entry.topo, k,
                                  default_penalties(entry.topo, uniform, k)),
        ):
            config = ANNEAL_CONFIGS[case % len(ANNEAL_CONFIGS)]
            assert_anneal_matches_reference(q, *config, seed=case)
            case += 1


def test_exhaustive_rejects_an_imported_instance(tmp_path):
    q = build_qubo(PATH4, uniform_weights(4), 2, PenaltyConfig())
    path = str(tmp_path / "path4.qubo")
    export_qubo(q, path)
    with pytest.raises(SolverError, match=imported_message("the exhaustive solver")):
        solve_exhaustive(import_qubo(path))


def test_solvers_and_sweeps_never_expand_the_dicts(monkeypatch):
    # the dicts are an export view: scoring, repair and every solver
    # read the objective alone
    def refuse(*args):
        raise AssertionError("coefficient dicts expanded")

    monkeypatch.setattr(qubo, "_expand", refuse)
    topo = generate_ring(6, chords=2, seed=4)
    demands = synthetic_demands(6, timesteps=24, seed=3)
    w = compute_weights(demands)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    solve_exhaustive(q)
    solve_heuristic(q, seed=1)
    solve_anneal(q, AnnealConfig(sweeps=20, restarts=2, seed=1))
    decode_and_repair(q, np.zeros(q.num_vars))
    specs = (SolverSpec(name="exhaustive"), SolverSpec(name="anneal", sweeps=20, restarts=2),
             SolverSpec(name="heuristic"))
    result = run_sweep(topo, demands, SweepConfig(max_producers=3, solvers=specs))
    assert len(result.reports) == 9
    with pytest.raises(AssertionError, match="expanded"):
        q.linear


def test_anneal_rejects_an_imported_instance(suite, tmp_path):
    entry = suite[7]
    q = build_qubo(entry.topo, entry.weights, 3,
                   default_penalties(entry.topo, entry.weights, 3))
    export_qubo(q, str(tmp_path / "q.qubo"))
    imported = import_qubo(str(tmp_path / "q.qubo"))
    assert imported.objective is None
    with pytest.raises(SolverError, match=imported_message("the annealer")):
        solve_anneal(imported, AnnealConfig(sweeps=10, restarts=1))
    with pytest.raises(SolverError, match=imported_message("repair")):
        decode_and_repair(imported, np.zeros(q.num_vars))


def test_anneal_matches_reference_on_exact_ties(monkeypatch):
    # Energies and temperatures a few subnormal steps wide, so each limit
    # rounds to a whole number of steps and often equals a move's cost.
    # The path 0-1-2 with unit weights, target 1/2, alpha = 20 steps and
    # gamma = 1 step expands to linear terms (-5, 52, -5), couplings -41
    # on both edges and 40 on (0, 2), and offset 8, every field a whole
    # number of steps. With k = 1 every restart starts at bits 111
    # (energy 8); turning off bit 0 or bit 2 costs 6 steps, after which
    # bit 1 drops the state to 001 or 100 (3). The barrier is crossed
    # during frozen stretches, often on an exact tie, and which bit
    # crosses first is the answer.
    tick = 5e-324
    path = qubo.Objective(ends=np.array([[0, 1], [1, 2]]), edge_coeff=np.array([-81 * tick, -81 * tick]),
                          node_linear=np.array([-4, 53, -4]) * tick, weights=np.ones(3), target=0.5,
                          alpha=20 * tick, gamma=tick)
    q = QuboInstance(k=1, objective=path)
    assert q.linear == {0: -5 * tick, 1: 52 * tick, 2: -5 * tick}
    assert q.quadratic == {(0, 1): -41 * tick, (1, 2): -41 * tick, (0, 2): 40 * tick}
    assert q.offset == 8 * tick
    # the default block holds all 400 sweeps; blocks of 1, 2 and 3 sweeps
    # cut every frozen stretch
    for block in (solvers._LIMIT_BLOCK, *(rows * q.num_vars for rows in (1, 2, 3))):
        monkeypatch.setattr(solvers, "_LIMIT_BLOCK", block)
        for seed in range(4):
            for schedule in ("geometric", "linear"):
                assert_anneal_matches_reference(q, 400, 8, schedule, 2 * tick, tick, seed=seed)


def test_structured_field_matches_the_qubo(suite):
    # The reference shares the field rule, so only the QUBO itself can
    # catch a wrong formula: at random bit vectors, mostly infeasible,
    # the deltas a frozen sweep hands to first_acceptance must equal
    # sign * (lin + Q.x) (Q the symmetric matrix of the quadratic dict,
    # sign = 1 - 2 * bit) and the tracked energies the QUBO energy, to
    # 1e-9 of the penalty scale (the largest single-flip reach plus
    # |offset|), at the start and at a walk's best state.
    rng = np.random.default_rng(8)
    for entry in suite:
        uniform = uniform_weights(entry.topo.nodes)
        for k in range(1, min(4, entry.topo.nodes) + 1):
            for q in (
                build_qubo(entry.topo, entry.weights, k,
                           default_penalties(entry.topo, entry.weights, k)),
                build_unweighted_qubo(entry.topo, k,
                                      default_penalties(entry.topo, uniform, k)),
            ):
                lin = np.zeros(q.num_vars)
                lin[list(q.linear)] = list(q.linear.values())
                dense = np.zeros((q.num_vars, q.num_vars))
                for (a, b), coeff in q.quadratic.items():
                    dense[a, b] = dense[b, a] = coeff
                scale = solvers._auto_temperatures(q.objective, k)[0] + abs(q.offset)
                obj = q.objective
                for density in (0.1, 0.5, 0.9):
                    bits = (rng.random(q.num_vars) < density).astype(float)
                    x, S, L, c, tracked = solvers._start(obj, q.offset, bits)
                    frozen = FrozenLimits(q.num_vars)
                    solvers._walk(obj, x, S, L, c, tracked, frozen)
                    want = (1.0 - 2.0 * bits) * (lin + dense @ bits)
                    assert len(frozen.handed) == 1
                    assert np.abs(frozen.handed[0] - want).max() <= 1e-9 * scale
                    assert abs(tracked - energy(q, bits)) <= 1e-9 * scale

                    limits = rng.exponential(0.02 * scale, size=(20, q.num_vars))
                    best_raw, best = solvers._walk(obj, x, S, L, c, tracked, TableLimits(limits))
                    assert abs(best_raw - energy(q, np.ravel(best))) <= 1e-9 * scale


def first_acceptance_scan(deltas, limits, sweep):
    """The first sweep from `sweep` on that holds a passing proposal, by
    a row-major scan of the table limits; None if there is none."""
    for s in range(sweep, len(limits)):
        for i in range(deltas.size):
            if deltas[i] <= limits[s, i]:
                return s
    return None


class TableLimits(solvers._Limits):
    """The annealer's limit stream over a given (sweeps, nv) table, its
    blocks ending before each sweep in cuts and at the last sweep. Its
    ceiling is infinite, so the scan never stops early and must find
    what a full scan finds."""

    def __init__(self, table, cuts=()):
        sweeps, nv = table.shape
        super().__init__(None, np.full(sweeps, np.inf), np.full(sweeps, np.inf), nv)
        self.ends = [*cuts, sweeps]
        self.buf = np.empty((max(np.diff([0, *self.ends])), nv))
        self.table = table

    def _next_block(self):
        lo = self.hi
        hi = next(end for end in self.ends if end > lo)
        self.buf[:hi - lo] = self.table[lo:hi]
        self.lo, self.hi = lo, hi


class FrozenLimits(TableLimits):
    """One sweep of limits that reject every finite delta; keeps the
    deltas the walk hands to first_acceptance and ends the walk."""

    def __init__(self, nv):
        super().__init__(np.full((1, nv), -np.inf))
        self.handed = []

    def first_acceptance(self, deltas, sweep):
        self.handed.append(deltas.copy())
        return None


def first_acceptance(deltas, limits, sweep, cuts=()):
    """_Limits.first_acceptance from sweep `sweep` of the table limits
    cut into blocks before each sweep in cuts, once the sweeps before it
    are read as the walk reads them; a sweep or None."""
    stream = TableLimits(limits, cuts)
    for before in range(sweep):
        stream.row(before)
    return stream.first_acceptance(deltas, sweep)


def test_first_acceptance_matches_a_row_major_scan():
    rng, cut_rng = np.random.default_rng(3), np.random.default_rng(4)
    for trial in range(300):
        sweeps, nv = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        # few distinct values, so exact ties and misses are both common
        deltas = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0], size=nv)
        limits = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0], size=(sweeps, nv),
                            p=[0.1, 0.1, 0.3, 0.3, 0.2])
        sweep = int(rng.integers(0, sweeps + 1))
        cuts = sorted(set(cut_rng.integers(1, sweeps, size=int(cut_rng.integers(0, 6))).tolist())
                      if sweeps > 1 else ())
        want = first_acceptance_scan(deltas, limits, sweep)
        assert first_acceptance(deltas, limits, sweep) == want, trial
        assert first_acceptance(deltas, limits, sweep, cuts) == want, (trial, cuts)


def test_first_acceptance_edge_cases():
    deltas = np.array([2.0, 0.0, 5.0])
    misses = np.full((9, 3), 1.0)
    misses[:, 1] = -1.0
    tie = misses.copy()
    tie[0, 2] = 5.0  # a hit in the first sweep, on an exact tie
    last = misses.copy()
    last[8, 1] = -0.0  # u = 0 draws log1p(-0.0) = -0.0: 0.0 <= -0.0 holds
    last[8, 2] = 6.0
    for cuts in ((), (1,), (3, 4), tuple(range(1, 9))):
        assert first_acceptance(deltas, misses, 0, cuts) is None
        assert first_acceptance(deltas, misses, 9, cuts) is None
        assert first_acceptance(deltas, tie, 0, cuts) == 0
        assert first_acceptance(deltas, tie, 1, cuts) is None
        assert first_acceptance(deltas, last, 0, cuts) == 8
        assert first_acceptance(-deltas, misses, 0, cuts) == 0
    assert first_acceptance(np.array([-0.0]), np.array([[0.0]]), 0) == 0


def cold_stream(temps, nv, seed):
    """A restart's limit stream over temps, as solve_anneal builds it,
    and the whole table it draws."""
    ceiling = solvers._CEILING * np.maximum.accumulate(temps[::-1])[::-1]
    whole = -temps[:, None] * np.log1p(-np.random.default_rng(seed).random((len(temps), nv)))
    return solvers._Limits(np.random.default_rng(seed), temps, ceiling, nv), ceiling, whole


def test_no_limit_reaches_the_ceiling():
    # the largest u below 1 that rng.random draws gives the largest limit
    assert -np.log1p(-np.array([1.0 - 2.0**-53]))[0] < solvers._CEILING


def test_scan_stops_at_the_first_unreachable_sweep(monkeypatch):
    # a NaN never passes and +inf passes no finite limit, so the lowest
    # delta that counts is 1.0; from sweep `cold` on no limit reaches it
    sweeps, nv = 400, 4
    temps = np.geomspace(0.05, 1e-6, sweeps)
    deltas = np.array([np.nan, 1.0, np.inf, 3.0])
    for rows in (1, 2, 5, 64, sweeps):
        monkeypatch.setattr(solvers, "_LIMIT_BLOCK", rows * nv)
        for seed in range(5):
            limits, ceiling, whole = cold_stream(temps, nv, seed)
            cold = int(np.argmax(1.0 > ceiling))
            assert 0 < cold < sweeps
            assert first_acceptance_scan(deltas, whole, 0) is None
            assert limits.first_acceptance(deltas, 0) is None
            assert limits.lo < cold  # no block drawn from `cold` on
            # a hit before `cold` is still found, after the same reads
            limits, _, whole = cold_stream(temps, nv, seed)
            for sweep in range(cold // 2):
                limits.row(sweep)
            low = np.array([np.nan, 0.9 * whole[cold // 2:cold, 1].max(), np.inf, 3.0])
            want = first_acceptance_scan(low, whole, cold // 2)
            assert want is not None and want < cold
            assert limits.first_acceptance(low, cold // 2) == want


def test_scan_with_nan_and_infinite_deltas_matches_a_row_major_scan(monkeypatch):
    rng = np.random.default_rng(12)
    for trial in range(300):
        sweeps, nv = int(rng.integers(1, 60)), int(rng.integers(1, 7))
        monkeypatch.setattr(solvers, "_LIMIT_BLOCK", int(rng.integers(1, sweeps + 1)) * nv)
        hot, cold = 10.0 ** rng.uniform(-1, 1), 10.0 ** rng.uniform(-9, -2)
        space = np.geomspace if rng.random() < 0.5 else np.linspace
        temps = space(hot, cold, sweeps)
        deltas = rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 2.0, 20.0, 200.0],
                            size=nv)
        limits, _, whole = cold_stream(temps, nv, trial)
        sweep = int(rng.integers(0, sweeps + 1))
        for before in range(sweep):
            limits.row(before)
        assert limits.first_acceptance(deltas, sweep) == first_acceptance_scan(
            deltas, whole, sweep), trial


def test_anneal24_sized_solve_holds_one_small_buffer():
    # a 24-node ring at k=4, 2000 sweeps x 2 restarts: one buffer of at
    # most 2**15 limits (256 KB) and the scan's windows over it; a solve
    # that kept each restart's buffer would hold two
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(24, chords=4, rule=rule, seed=7)
    weights = compute_weights(synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0))
    q = build_qubo(topo, weights, 4, default_penalties(topo, weights, 4))
    tracemalloc.start()
    try:
        solve_anneal(q, AnnealConfig(sweeps=2000, restarts=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20
