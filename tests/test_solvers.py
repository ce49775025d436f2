import dataclasses
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
    Topology,
    build_qubo,
    build_unweighted_qubo,
    canonical_form,
    decode_and_repair,
    default_penalties,
    encode,
    energy,
    export_qubo,
    generate_ring,
    generate_tree,
    import_qubo,
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
    build_suite,
    feasible_assignments,
    local_search_reference,
    modified_cost_direct,
    relocate_delta,
    repair_reference,
    swap_delta,
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
    q = QuboInstance(n=2, k=1, linear={}, quadratic={}, offset=5.0, objective=flat)
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
    real = solvers.energies
    monkeypatch.setattr(solvers, "energies", lambda q, bits: scored.append(bits) or real(q, bits))
    r = solve_heuristic(q, seed=0)

    (bits,) = scored
    finals = bits.reshape(len(bits), 5, 6).argmax(axis=1)
    scores = real(q, bits)
    assert len({canonical_form(row, 5) for row in finals}) > 1
    assert np.all(np.abs(scores - scores.min()) <= 1e-9 * abs(scores.min()))
    assert r.assignment == canonical_form(finals[0], 5)
    assert r.assignment.producer_of == (0, 1, 2, 3, 4, 1)
    assert r.energy == energy(q, encode(r.assignment, q))


def test_heuristic_beats_random_sampling_on_large_ring():
    topo = generate_ring(24, seed=0)
    w = uniform_weights(24)
    cfg = default_penalties(topo, w, 4)
    q = build_qubo(topo, w, 4, cfg)
    r = solve_heuristic(q, seed=1)
    assert r.energy == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(123)
    sample = rng.integers(0, 4, size=(100_000, 24))
    bits = np.zeros((100_000, q.num_vars), dtype=np.int8)
    rows = np.arange(100_000)[:, None]
    bits[rows, sample * 24 + np.arange(24)[None, :]] = 1
    from heatfair import energies

    assert r.energy <= energies(q, bits).min() + 1e-9


def test_heuristic_validates_inputs(tmp_path):
    q = build_qubo(PATH4, uniform_weights(4), 2, PenaltyConfig())
    with pytest.raises(SolverError, match="restarts"):
        solve_heuristic(q, restarts=0)
    path = str(tmp_path / "path4.qubo")
    export_qubo(q, path)
    imported = import_qubo(path)
    assert imported.objective is None
    with pytest.raises(SolverError, match="imported one has none"):
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
    """Plain-list inputs of the local search under default penalties;
    alpha is the kernels' scalar, so the oracles take [alpha] * k."""
    w = [float(x) for x in np.asarray(getattr(weights, "values", weights))]
    cfg = default_penalties(topo, w, k)
    return neighbour_lists(topo), w, cfg.beta, cfg.alpha, sum(w) / k


def edge_coefficients(neighbours, beta):
    """The kernels' neighbour lists: (neighbour, 2 * beta * dist)."""
    return [[(u, 2.0 * beta * dist) for u, dist in nb] for nb in neighbours]


def loads_of(producer_of, w, k):
    loads = [0.0] * k
    for i, p in enumerate(producer_of):
        loads[p] += w[i]
    return loads


def lockstep(starts, neighbours, w, beta, alpha, target):
    p = np.array([s[0] for s in starts])
    loads = np.array([s[1] for s in starts])
    moves = solvers._local_search(
        p, loads, solvers._neighbour_slots(edge_coefficients(neighbours, beta)),
        np.array(w), alpha, target,
    )
    return p, loads, moves


def equivalence_cases():
    for entry in build_suite():
        n = entry.topo.nodes
        yield entry.name, entry.topo, entry.weights
        yield entry.name + "-uniform", entry.topo, uniform_weights(n)
    demands = synthetic_demands(30, timesteps=48, seed=5, anchor_scale=3.0)
    yield "hub30", hub_topology(5), compute_weights(demands)


@pytest.mark.parametrize("k", range(1, 9))
def test_lockstep_search_matches_scalar_reference(k):
    rng = np.random.default_rng(k)
    for name, topo, weights in equivalence_cases():
        n = topo.nodes
        if k > n:
            continue
        neighbours, w, beta, alpha, target = search_problem(topo, weights, k)
        orders = [sorted(range(n), key=lambda i: (-w[i], i))]
        orders += [rng.permutation(n).tolist() for _ in range(3)]
        coeffs = edge_coefficients(neighbours, beta)
        starts = [
            solvers._greedy_seed(order, coeffs, w, k, alpha, target)
            for order in orders
        ]
        randoms = [rng.integers(0, k, size=n).tolist() for _ in range(2)]
        starts += [(p, loads_of(p, w, k)) for p in randoms]
        p, loads, moves = lockstep(starts, neighbours, w, beta, alpha, target)
        for r, (start_p, start_loads) in enumerate(starts):
            ref_p, ref_loads, ref_moves = local_search_reference(
                start_p, start_loads, neighbours, w, beta, [alpha] * k, target
            )
            assert p[r].tolist() == ref_p, (name, r)
            assert loads[r].tolist() == ref_loads, (name, r)
            assert moves[r] == ref_moves, (name, r)


def test_move_tables_equal_reference_deltas_bit_for_bit():
    rng = np.random.default_rng(17)
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    demands = synthetic_demands(30, timesteps=48, seed=8, anchor_scale=3.0)
    cases = [
        (hub_topology(2), compute_weights(demands)),
        (generate_ring(12, chords=5, rule=rule, seed=3), uniform_weights(12)),
    ]
    for topo, weights in cases:
        n = topo.nodes
        for k in (2, 3, 5):
            neighbours, w, beta, alpha, target = search_problem(topo, weights, k)
            states = [rng.integers(0, k, size=n).tolist() for _ in range(3)]
            p = np.array(states)
            loads = np.array([loads_of(s, w, k) for s in states])
            rel, swp = solvers._move_tables(
                p, loads, solvers._neighbour_slots(edge_coefficients(neighbours, beta)),
                np.array(w), alpha, target,
            )
            args = (neighbours, w, beta, [alpha] * k, target)
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
                        if j <= i or state[i] == state[j]:
                            assert got == np.inf
                        else:
                            want = swap_delta(i, j, state, state_loads, *args)
                            assert float(got).hex() == want.hex(), (r, i, j)


def test_square_matches_python_power_bit_for_bit():
    rng = np.random.default_rng(2024)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e8), size=200_000))
    x *= rng.choice([-1.0, 1.0], size=x.size)
    want = np.array([v ** 2 for v in x.tolist()])
    assert np.array_equal(solvers._square(x).view(np.int64), want.view(np.int64))


def test_local_search_memory_stays_bounded():
    n, k = 400, 8
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(n, chords=n // 6, rule=rule, seed=1)
    weights = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    neighbours, w, beta, alpha, target = search_problem(topo, weights, k)
    rng = np.random.default_rng(0)
    coeffs = edge_coefficients(neighbours, beta)
    starts = [
        solvers._greedy_seed(rng.permutation(n).tolist(), coeffs, w, k, alpha, target)
        for _ in range(8)
    ]
    tracemalloc.start()
    try:
        lockstep(starts, neighbours, w, beta, alpha, target)
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


def assert_anneal_matches_reference(q, sweeps, restarts, schedule, t_initial, t_final,
                                    seed, monkeypatch):
    """solve_anneal's raw best bits per restart and its result equal the
    scalar reference loop's, compared with ==."""
    cfg = AnnealConfig(sweeps=sweeps, restarts=restarts, schedule=schedule,
                       t_initial=t_initial, t_final=t_final, seed=seed)
    raw = []
    repair = solvers._repair
    monkeypatch.setattr(
        solvers, "_repair", lambda obj, vec: raw.append(vec.tolist()) or repair(obj, vec)
    )
    got = solve_anneal(q, cfg)
    monkeypatch.setattr(solvers, "_repair", repair)

    obj = q.objective
    want_raw = anneal_reference(obj.ends, obj.edge_coeff, obj.node_linear, obj.weights,
                                obj.target, obj.alpha, obj.gamma, q.k, sweeps, restarts,
                                seed, schedule, t_initial, t_final)
    assert raw == want_raw
    rows = [repair(obj, np.array(bits)).producer_of for bits in want_raw]
    want = solvers._result(q, rows, "anneal", seed, sweeps * q.num_vars * restarts)
    assert got.assignment == want.assignment
    assert got.energy.hex() == want.energy.hex()
    assert (got.iterations, got.seed, got.solver_name) == (
        want.iterations, want.seed, want.solver_name)


@pytest.mark.parametrize("k", range(1, 5))
def test_anneal_matches_scalar_reference(k, suite, monkeypatch):
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
            assert_anneal_matches_reference(q, *config, seed=case, monkeypatch=monkeypatch)
            case += 1


def test_anneal_rejects_an_imported_instance(suite, tmp_path):
    entry = suite[7]
    q = build_qubo(entry.topo, entry.weights, 3,
                   default_penalties(entry.topo, entry.weights, 3))
    export_qubo(q, str(tmp_path / "q.qubo"))
    imported = import_qubo(str(tmp_path / "q.qubo"))
    assert imported.objective is None
    with pytest.raises(SolverError, match="imported one has none"):
        solve_anneal(imported, AnnealConfig(sweeps=10, restarts=1))
    with pytest.raises(SolverError, match="imported one has none"):
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
    path = Topology(nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
    q = qubo._assemble(path, 1, PenaltyConfig(alpha=20 * tick, gamma=tick),
                       np.array([-81 * tick, -81 * tick]), np.array([-4, 53, -4]) * tick,
                       np.ones(3), 0.5)
    assert q.linear == {0: -5 * tick, 1: 52 * tick, 2: -5 * tick}
    assert q.quadratic == {(0, 1): -41 * tick, (1, 2): -41 * tick, (0, 2): 40 * tick}
    assert q.offset == 8 * tick
    for seed in range(4):
        for schedule in ("geometric", "linear"):
            assert_anneal_matches_reference(q, 400, 8, schedule, 2 * tick, tick,
                                            seed=seed, monkeypatch=monkeypatch)


def test_structured_field_matches_the_qubo(suite):
    # The reference shares the field rule, so only the QUBO itself can
    # catch a wrong formula: at random bit vectors, mostly infeasible,
    # the rule's fields must equal lin + Q.x (Q the symmetric matrix of
    # the quadratic dict) and its tracked energies the QUBO energy, to
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
                    got = solvers._fields(obj, np.array(x), np.array(S),
                                          np.array(L), np.array(c)).ravel()
                    want = lin + dense @ bits
                    assert np.abs(got - want).max() <= 1e-9 * scale
                    assert abs(tracked - energy(q, bits)) <= 1e-9 * scale

                    limits = rng.exponential(0.02 * scale, size=(20, q.num_vars))
                    best_raw, best = solvers._walk(obj, x, S, L, c, tracked, limits)
                    assert abs(best_raw - energy(q, np.ravel(best))) <= 1e-9 * scale


def first_acceptance_scan(deltas, limits, sweep):
    for s in range(sweep, len(limits)):
        for i in range(deltas.size):
            if deltas[i] <= limits[s, i]:
                return s, i
    return None


def test_first_acceptance_matches_a_row_major_scan():
    rng = np.random.default_rng(3)
    for trial in range(300):
        sweeps, nv = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        # few distinct values, so exact ties and misses are both common
        deltas = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0], size=nv)
        limits = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0], size=(sweeps, nv),
                            p=[0.1, 0.1, 0.3, 0.3, 0.2])
        sweep = int(rng.integers(0, sweeps + 1))
        assert solvers._first_acceptance(deltas, limits, sweep) == first_acceptance_scan(
            deltas, limits, sweep), trial


def test_first_acceptance_edge_cases():
    deltas = np.array([2.0, 0.0, 5.0])
    misses = np.full((9, 3), 1.0)
    misses[:, 1] = -1.0
    assert solvers._first_acceptance(deltas, misses, 0) is None
    assert solvers._first_acceptance(deltas, misses, 9) is None

    tie = misses.copy()
    tie[0, 2] = 5.0  # a hit in the first sweep, on an exact tie
    assert solvers._first_acceptance(deltas, tie, 0) == (0, 2)
    assert solvers._first_acceptance(deltas, tie, 1) is None

    last = misses.copy()
    last[8, 1] = -0.0  # u = 0 draws log1p(-0.0) = -0.0: 0.0 <= -0.0 holds
    last[8, 2] = 6.0
    assert solvers._first_acceptance(deltas, last, 0) == (8, 1)
    assert solvers._first_acceptance(-deltas, misses, 0) == (0, 0)
    assert solvers._first_acceptance(np.array([-0.0]), np.array([[0.0]]), 0) == (0, 0)
