import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    AnnealConfig,
    Assignment,
    PenaltyConfig,
    QuboInstance,
    SolverError,
    Topology,
    assignment_cost,
    build_qubo,
    build_unweighted_qubo,
    canonical_form,
    decode_and_repair,
    default_penalties,
    encode,
    energy,
    generate_ring,
    solve_anneal,
    solve_exhaustive,
    solve_heuristic,
    uniform_weights,
)
from oracles import (
    feasible_assignments,
    modified_cost_direct,
    unweighted_cost_direct,
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
    with pytest.raises(SolverError, match="k >= 1"):
        Assignment(producer_of=(0,), k=0)
    with pytest.raises(SolverError, match="at least one node"):
        Assignment(producer_of=(), k=1)


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


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.permutations([0, 1, 2, 3]))
def test_canonical_form_is_permutation_invariant(raw, perm):
    k = 4
    relabelled = [perm[p] for p in raw]
    assert canonical_form(raw, k) == canonical_form(relabelled, k)


def test_relabelling_preserves_cost():
    cfg = PenaltyConfig(alpha=2.0, gamma=5.0)
    w = uniform_weights(4)
    for producer_of in feasible_assignments(4, 3):
        base = assignment_cost(PATH4, w, 3, cfg, producer_of)
        canon = canonical_form(producer_of, 3).producer_of
        assert assignment_cost(PATH4, w, 3, cfg, canon) == pytest.approx(
            base, rel=1e-12
        )


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
        assert assignment_cost(ring, w, 3, cfg, producer_of) == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )
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
        solve_heuristic(entry.topo, entry.weights, 2, cfg, seed=4),
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
    with pytest.raises(SolverError, match="schedule"):
        AnnealConfig(schedule="exponential")


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
    q = QuboInstance(n=2, k=1, linear={}, quadratic={}, offset=5.0)
    r = solve_anneal(q, AnnealConfig(sweeps=50, restarts=1, seed=0))
    assert r.assignment.producer_of == (0, 0)
    assert r.energy == 5.0


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
    bits[q.var_index(0, 0)] = 1
    bits[q.var_index(0, 1)] = 1  # node 0 double-assigned
    bits[q.var_index(1, 0)] = 1  # node 1 fixed on producer 0
    a = decode_and_repair(q, bits)
    assert a.producer_of[1] == 0
    candidates = {}
    for j in range(2):
        probe = np.zeros(4)
        probe[q.var_index(0, j)] = 1
        probe[q.var_index(1, 0)] = 1
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


def test_heuristic_single_producer_is_trivial():
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 1)
    r = solve_heuristic(PATH4, w, 1, cfg)
    assert r.assignment.producer_of == (0, 0, 0, 0)
    assert r.solver_name == "heuristic"


def test_heuristic_matches_exhaustive_on_path():
    w = uniform_weights(4)
    cfg = default_penalties(PATH4, w, 2)
    q = build_qubo(PATH4, w, 2, cfg)
    truth = solve_exhaustive(q)
    r = solve_heuristic(PATH4, w, 2, cfg, seed=3)
    assert r.energy == pytest.approx(truth.energy, rel=1e-9, abs=1e-9)
    assert r.assignment == truth.assignment


def test_heuristic_is_deterministic_per_seed(suite):
    entry = suite[3]
    cfg = default_penalties(entry.topo, entry.weights, 3)
    first = solve_heuristic(entry.topo, entry.weights, 3, cfg, seed=9)
    second = solve_heuristic(entry.topo, entry.weights, 3, cfg, seed=9)
    assert first.assignment == second.assignment and first.energy == second.energy


def test_heuristic_beats_random_sampling_on_large_ring():
    topo = generate_ring(24, seed=0)
    w = uniform_weights(24)
    cfg = default_penalties(topo, w, 4)
    q = build_qubo(topo, w, 4, cfg)
    r = solve_heuristic(topo, w, 4, cfg, seed=1, qubo=q)
    assert r.energy == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(123)
    sample = rng.integers(0, 4, size=(100_000, 24))
    bits = np.zeros((100_000, q.num_vars), dtype=np.int8)
    rows = np.arange(100_000)[:, None]
    bits[rows, sample * 24 + np.arange(24)[None, :]] = 1
    from heatfair import energies

    assert r.energy <= energies(q, bits).min() + 1e-9


def test_heuristic_validates_inputs():
    w = uniform_weights(4)
    with pytest.raises(SolverError, match="restarts"):
        solve_heuristic(PATH4, w, 2, PenaltyConfig(), restarts=0)


def test_results_serialise_without_wall_time_surprises():
    topo = Topology(nodes=2, edges=((0, 1, 1.0),))
    w = uniform_weights(2)
    q = build_qubo(topo, w, 2, default_penalties(topo, w, 2))
    doc = solve_exhaustive(q).as_dict()
    assert set(doc) == {
        "assignment", "k", "energy", "solver_name", "seed", "iterations", "wall_time",
    }
    assert doc["assignment"] == [0, 1]
    assert dataclasses.asdict(AnnealConfig())["schedule"] == "geometric"
