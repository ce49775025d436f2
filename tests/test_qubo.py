import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    AnnealConfig,
    PenaltyConfig,
    QuboError,
    QuboFormatError,
    QuboInstance,
    Terms,
    Topology,
    build_qubo,
    build_unweighted_qubo,
    compute_weights,
    decode_and_repair,
    default_penalties,
    energies,
    energy,
    export_qubo,
    feasible_energies,
    generate_ring,
    generate_tree,
    import_qubo,
    solve_anneal,
    solve_heuristic,
    synthetic_demands,
    uniform_weights,
)
from heatfair import qubo
from heatfair.graphs import DistanceRule, save_topology
from oracles import (
    accumulated_terms,
    all_bit_vectors,
    bits_to_x,
    feasible_assignments,
    instance_of,
    internal_and_cut,
    modified_cost_batch,
    modified_cost_direct,
    qubo_energy_direct,
    unweighted_cost_direct,
    var_index,
)

SINGLE_EDGE = Topology(nodes=2, edges=((0, 1, 1.0),))


def test_penalty_config_validation():
    with pytest.raises(QuboError, match="beta"):
        PenaltyConfig(beta=0.0)
    with pytest.raises(QuboError, match="alpha"):
        PenaltyConfig(alpha=-1.0)
    with pytest.raises(QuboError, match="gamma must be a number"):
        PenaltyConfig(gamma=(1.0, 0.0))
    with pytest.raises(QuboError, match="alpha must be a number"):
        PenaltyConfig(alpha=True)
    with pytest.raises(QuboError, match="beta must be a number"):
        PenaltyConfig(beta="3")
    with pytest.raises(QuboError, match="alpha must be a number, got 1000"):
        PenaltyConfig(alpha=10**400)
    cfg = PenaltyConfig(beta=2, alpha=np.float64(1.5), gamma=4)
    assert (cfg.beta, cfg.alpha, cfg.gamma) == (2.0, 1.5, 4.0)
    assert all(type(v) is float for v in (cfg.beta, cfg.alpha, cfg.gamma))


def test_single_node_energies_by_hand():
    topo = Topology(nodes=1, edges=())
    q = build_qubo(topo, uniform_weights(1), 1, PenaltyConfig(alpha=2.0, gamma=3.0))
    assert energy(q, [1]) == 0.0
    assert energy(q, [0]) == 5.0  # alpha + gamma, the empty-assignment offset


def test_single_edge_all_sixteen_vectors():
    cfg = PenaltyConfig(beta=1.0, alpha=4.0, gamma=6.0)
    w = uniform_weights(2)
    q = build_qubo(SINGLE_EDGE, w, 2, cfg)
    for bits in all_bit_vectors(4):
        expected = modified_cost_direct(
            SINGLE_EDGE, w.values, 2, 1.0, 4.0, 6.0, bits_to_x(bits, 2, 2)
        )
        assert energy(q, bits) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_ring_against_direct_oracle_on_random_vectors():
    topo = generate_ring(6, chords=1, seed=21)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.2, 1.0, size=6)
    cfg = PenaltyConfig(
        beta=0.7,
        alpha=float(rng.uniform(1.0, 4.0)),
        gamma=float(rng.uniform(1.0, 4.0)),
    )
    q = build_qubo(topo, w, 2, cfg)
    bits = rng.integers(0, 2, size=(500, 12))
    got = energies(q, bits)
    expected = modified_cost_batch(
        topo, w, 2, cfg.beta, cfg.alpha, cfg.gamma,
        np.stack([bits_to_x(row, 6, 2) for row in bits]),
    )
    scale = np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(got - expected) <= 1e-9 * scale)


def test_batch_energies_match_scalar_energy():
    topo = generate_ring(5, seed=3)
    q = build_qubo(topo, uniform_weights(5), 2, PenaltyConfig(alpha=3.0, gamma=9.0))
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, size=(40, 10))
    batch = energies(q, bits)
    for row, value in zip(bits, batch):
        assert value == pytest.approx(energy(q, row), rel=1e-12)


def test_energies_are_exact_dict_order_sums(suite, tmp_path):
    # every energy is offset + the set terms added one by one in key
    # order; a pairwise sum or a matmul over the same terms differs in
    # the last bits on some of these rows
    def check(q, rows):
        expected = [qubo_energy_direct(q.linear, q.quadratic, q.offset, r) for r in rows]
        assert energies(q, rows).tolist() == expected
        assert [energy(q, r) for r in rows] == expected

    for entry in suite:
        n = entry.topo.nodes
        for k in range(1, min(5, n) + 1):
            rng = np.random.default_rng([n, k, entry.topo.num_edges])
            cfg = default_penalties(entry.topo, entry.weights, k)
            for q in (
                build_qubo(entry.topo, entry.weights, k, cfg),
                build_unweighted_qubo(entry.topo, k, cfg),
            ):
                feasible = np.zeros((16, q.num_vars), dtype=np.int8)
                producers = rng.integers(0, k, size=(16, n))
                np.put_along_axis(feasible, producers * n + np.arange(n), 1, axis=1)
                check(q, np.concatenate([rng.integers(0, 2, size=(16, q.num_vars)), feasible]))

    entry = suite[-1]
    q = build_qubo(entry.topo, entry.weights, 3, default_penalties(entry.topo, entry.weights, 3))
    path = tmp_path / "exact.qubo"
    export_qubo(q, str(path))
    check(import_qubo(str(path)), np.random.default_rng(3).integers(0, 2, size=(64, q.num_vars)))


def test_energy_of_all_zeros_is_offset(suite):
    for entry in suite[:5]:
        k = min(2, entry.topo.nodes)
        q = build_qubo(
            entry.topo, entry.weights, k, PenaltyConfig(alpha=2.0, gamma=5.0)
        )
        assert energy(q, np.zeros(q.num_vars)) == q.offset


def test_term_arrays_are_built_once_and_read_only(suite):
    entry = suite[3]
    cfg = default_penalties(entry.topo, entry.weights, 3)
    q = build_qubo(entry.topo, entry.weights, 3, cfg)
    energy(q, np.zeros(q.num_vars))
    first = vars(q)["terms"]
    energies(q, np.ones((2, q.num_vars)))
    energy(q, np.ones(q.num_vars))
    assert q.terms is first
    lin_vars, lin_vals, rows, cols, vals = first
    assert lin_vars.tolist() == list(q.linear)
    assert lin_vals.tolist() == list(q.linear.values())
    assert list(zip(rows.tolist(), cols.tolist())) == list(q.quadratic)
    assert vals.tolist() == list(q.quadratic.values())
    obj = q.objective
    assert (obj.alpha, obj.gamma) == (cfg.alpha, cfg.gamma)
    assert type(obj.alpha) is float and type(obj.gamma) is float
    for arr in (*first, obj.ends, obj.edge_coeff, obj.node_linear, obj.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:1] = 0


@given(st.integers(0, 10_000))
def test_energy_matches_term_by_term_oracle(seed):
    rng = np.random.default_rng(seed)
    topo = generate_ring(5, chords=2, seed=seed)
    w = rng.uniform(0.1, 1.0, size=5)
    k = int(rng.integers(1, 4))
    cfg = PenaltyConfig(
        beta=float(rng.uniform(0.1, 2.0)),
        alpha=float(rng.uniform(0.5, 5.0)),
        gamma=float(rng.uniform(0.5, 5.0)),
    )
    q = build_qubo(topo, w, k, cfg)
    bits = rng.integers(0, 2, size=q.num_vars)
    assert energy(q, bits) == pytest.approx(
        qubo_energy_direct(q.linear, q.quadratic, q.offset, bits), rel=1e-12
    )


def test_variable_layout_is_a_bijection(suite, tmp_path):
    entry = suite[4]
    q = build_qubo(entry.topo, entry.weights, 3, PenaltyConfig())
    export_qubo(q, str(tmp_path / "q.qubo"))
    head, *rows = (tmp_path / "q.qubo.map").read_text().splitlines()
    assert head == f"map {q.n} {q.k}"
    triples = [tuple(map(int, row.split())) for row in rows]
    assert [var for var, _, _ in triples] == list(range(q.num_vars))
    assert sorted((i, j) for _, i, j in triples) == [(i, j) for i in range(q.n) for j in range(q.k)]
    assert all(var_index(q, i, j) == var for var, i, j in triples)


def test_stored_coefficients_are_canonical(suite):
    for entry in suite:
        k = min(3, entry.topo.nodes)
        q = build_qubo(entry.topo, entry.weights, k, PenaltyConfig(alpha=2.5))
        nv = q.num_vars
        for (a, b), coeff in q.quadratic.items():
            assert 0 <= a < b < nv
            assert coeff != 0.0
        for v, coeff in q.linear.items():
            assert 0 <= v < nv
            assert coeff != 0.0


def test_assembly_matches_term_by_term_accumulation(suite):
    # energy() adds stored terms in key order, so the float arithmetic
    # of every coefficient is part of the output
    isolated = Topology(nodes=5, edges=((0, 1, 1.5), (1, 3, 0.5)))
    cases = [(e.topo, e.weights.values) for e in suite] + [(isolated, np.arange(1.0, 6.0))]
    for topo, w in cases:
        n = topo.nodes
        for k in range(1, min(3, n) + 1):
            rng = np.random.default_rng([n, k])
            drawn = PenaltyConfig(
                beta=0.7,
                alpha=float(rng.uniform(0.5, 4.0)),
                gamma=float(rng.uniform(1.0, 9.0)),
            )
            cancelling = PenaltyConfig(beta=1.0, alpha=1.0, gamma=2.0)
            for cfg in (drawn, cancelling):
                for unweighted in (False, True):
                    if unweighted:
                        q = build_unweighted_qubo(topo, k, cfg)
                    else:
                        q = build_qubo(topo, w, k, cfg)
                    expected = accumulated_terms(
                        topo, w, k, cfg.beta, cfg.alpha, cfg.gamma, unweighted
                    )
                    got = (list(q.linear.items()), list(q.quadratic.items()), q.offset)
                    assert got == expected


def arrays(lin_vars=(), lin_vals=(), rows=(), cols=(), vals=()):
    """Terms of int64 ids and float values."""
    ids, values = (lambda x: np.array(x, dtype=np.int64)), (lambda x: np.array(x, dtype=float))
    return Terms(ids(lin_vars), values(lin_vals), ids(rows), ids(cols), values(vals))


def test_instance_invariants_enforced():
    with pytest.raises(QuboError, match="zero linear coefficient"):
        instance_of(1, 2, {0: 0.0}, {})
    with pytest.raises(QuboError, match="not strictly upper-triangular"):
        instance_of(1, 2, {}, {(1, 0): 1.0})
    with pytest.raises(QuboError, match="outside"):
        instance_of(1, 2, {5: 1.0}, {})
    # each case names the first bad term in term order, by its first broken rule
    for linear, quadratic, message in (
        ({}, {(0, 2): 1.0}, r"quadratic key \(0, 2\) is not strictly upper-triangular within 0\.\.1"),
        ({}, {(-1, 1): 1.0}, r"quadratic key \(-1, 1\) is not strictly upper-triangular within 0\.\.1"),
        ({}, {(1, 1): 1.0}, r"quadratic key \(1, 1\) is not strictly upper-triangular within 0\.\.1"),
        ({}, {(0, 1): 0.0}, r"zero quadratic coefficient stored for \(0, 1\)"),
        ({1: 0.0, 0: np.inf}, {}, "zero linear coefficient stored for variable 1"),
        ({0: np.inf, 1: 0.0}, {}, "linear coefficient of variable 0 is inf, not finite"),
        ({1: 1.0, 7: 0.0, 0: 0.0}, {}, r"linear variable 7 outside 0\.\.1"),
        ({0: np.nan}, {(1, 0): 0.0}, "linear coefficient of variable 0 is nan, not finite"),
        ({0: 1.0}, {(0, 1): np.nan, (1, 0): 1.0}, r"quadratic coefficient of \(0, 1\) is nan, not finite"),
    ):
        with pytest.raises(QuboError, match=f"^{message}$"):
            instance_of(1, 2, linear, quadratic)
    # only arrays can repeat a key; a repeat is named before its value
    for terms, message in (
        (arrays([0, 1, 0], [1.0, 2.0, 0.0]), "linear variable 0 stored twice"),
        (arrays([1, 1], [0.0, 1.0]), "zero linear coefficient stored for variable 1"),
        (arrays([], [], [0, 0, 0], [1, 2, 1], [1.0, 1.0, np.nan]), r"quadratic key \(0, 1\) stored twice"),
        (arrays([1, 1], [1.0, 1.0], [0, 0], [1, 1], [1.0, 1.0]), "linear variable 1 stored twice"),
    ):
        with pytest.raises(QuboError, match=f"^{message}$"):
            QuboInstance(n=1, k=3, offset=0.0, terms=terms)
    # ids are arrays of an integer type that int64 holds and values
    # arrays of a float type, one value per key: never floats, bools,
    # objects or lists, and nothing is truncated
    good = arrays([0], [1.0], [0], [1], [1.0])
    for terms in (
        good._replace(lin_vars=np.array([0.5])),
        good._replace(lin_vars=np.array([True])),
        good._replace(rows=np.array([2**70], dtype=object)),
        good._replace(cols=np.array([1], dtype=np.uint64)),
        good._replace(lin_vals=np.array([1])),
        good._replace(vals=np.array([1.0 + 0j])),
        good._replace(vals=np.array(["1.0"])),
        good._replace(rows=np.array([[0]])),
        good._replace(cols=np.array([1, 1])),
        good._replace(lin_vals=np.array([1.0, 2.0])),
        good._replace(rows=[0]),
        tuple(good),
        "terms",
    ):
        with pytest.raises(QuboError, match="^terms must be a Terms of 1-D arrays, integer ids and float values"):
            QuboInstance(n=1, k=2, offset=0.0, terms=terms)
    q = QuboInstance(n=1, k=2, offset=0.0, terms=Terms(
        np.array([0, 1], dtype=np.int32), np.array([1.0, 2.0], dtype=np.float32),
        np.array([0], dtype=np.uint8), np.array([1], dtype=np.int16), np.array([3.0])))
    assert (q.linear, q.quadratic) == ({0: 1.0, 1: 2.0}, {(0, 1): 3.0})
    assert [x.dtype for x in q.terms] == [np.int64, np.float64, np.int64, np.int64, np.float64]
    given = arrays([1, 0], [2.0, 1.0], [0], [1], [3.0])
    q = QuboInstance(n=1, k=2, offset=0.0, terms=given)
    assert (q.linear, q.quadratic) == ({1: 2.0, 0: 1.0}, {(0, 1): 3.0})
    given.lin_vals[0] = 0.0  # the instance holds read-only copies, in key order
    assert q.terms.lin_vals.tolist() == [1.0, 2.0] and not q.terms.lin_vals.flags.writeable
    assert q == instance_of(1, 2, {0: 1.0, 1: 2.0}, {(0, 1): 3.0})
    assert q != instance_of(1, 2, {0: 1.0, 1: 2.5}, {(0, 1): 3.0})
    assert q != instance_of(1, 2, {0: 1.0}, {(0, 1): 3.0})
    assert q != instance_of(1, 2, {0: 1.0, 1: 2.0}, {(0, 1): 3.0}, offset=1.0)


def test_instance_rejects_non_finite_terms(tmp_path):
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(QuboError, match="variable 0 is .*, not finite"):
            instance_of(1, 2, {0: bad}, {})
        with pytest.raises(QuboError, match=r"\(0, 1\) is .*, not finite"):
            instance_of(1, 2, {}, {(0, 1): bad})
        with pytest.raises(QuboError, match="offset is .*, not finite"):
            instance_of(1, 2, {}, {}, offset=bad)
    path = tmp_path / "inf.qubo"
    export_qubo(instance_of(1, 2, {0: 1.0}, {}), str(path))
    path.write_text(path.read_text().replace("0 0 1.0", "0 0 inf"))
    with pytest.raises(QuboError, match="not finite"):
        import_qubo(str(path))


def first_non_finite_message(topo, w, k, cfg, unweighted):
    """QuboInstance's message for the first non-finite term of
    accumulated_terms, checked in key order, or None."""
    linear, quadratic, offset = accumulated_terms(
        topo, w, k, cfg.beta, cfg.alpha, cfg.gamma, unweighted
    )
    if not np.isfinite(offset):
        return f"offset is {offset!r}, not finite"
    for v, coeff in linear:
        if not np.isfinite(coeff):
            return f"linear coefficient of variable {v} is {coeff!r}, not finite"
    for (a, b), coeff in quadratic:
        if not np.isfinite(coeff):
            return f"quadratic coefficient of ({a}, {b}) is {coeff!r}, not finite"
    return None


def test_built_instances_reject_the_first_non_finite_term():
    # the check of a built instance reads its objective, not dicts, yet
    # must name the term that the dict-order check would name first
    isolated = Topology(nodes=5, edges=((0, 1, 1.5), (1, 3, 0.5)))
    ring = generate_ring(6, chords=2, seed=4)
    configs = [
        PenaltyConfig(beta=1e308, alpha=1.0, gamma=1.0),
        PenaltyConfig(beta=1.0, alpha=1e308, gamma=1.0),
        PenaltyConfig(beta=1.0, alpha=1.0, gamma=1e308),
        PenaltyConfig(beta=1e308, alpha=1e308, gamma=1.0),
        PenaltyConfig(beta=1.0, alpha=1e300, gamma=1e300),
    ]
    checked = 0
    for topo in (isolated, ring):
        n = topo.nodes
        w = np.linspace(1.0, 2.0, n) * np.array([1e154] + [1.0] * (n - 1))
        for k in (1, 2, 3):
            for cfg in configs:
                for unweighted in (False, True):
                    expected = first_non_finite_message(topo, w, k, cfg, unweighted)
                    build = (lambda: build_unweighted_qubo(topo, k, cfg)) if unweighted else (
                        lambda: build_qubo(topo, w, k, cfg))
                    if expected is None:
                        build()
                        continue
                    with pytest.raises(QuboError) as caught:
                        build()
                    assert str(caught.value) == expected
                    checked += 1
    assert checked > 40
    # pairs are named in key order: here both an edge, (0, 1), and a
    # non-edge, (0, 2), overflow
    ring = generate_ring(6)
    w = np.array([1e150, 1.0, 1e150, 1.0, 1.0, 1.0])
    cfg = PenaltyConfig(beta=1e308, alpha=1.5e8, gamma=1.0)
    message = first_non_finite_message(ring, w, 4, cfg, False)
    assert message.startswith("quadratic coefficient of (0, 1) is inf")
    with pytest.raises(QuboError, match=r"^quadratic coefficient of \(0, 1\) is inf, not finite$"):
        build_qubo(ring, w, 4, cfg)
    # a hand-made objective, a term no builder can overflow alone: the
    # linear terms come first, the lowest variable first, though the
    # pair (0, 1) is not finite either
    q = build_qubo(SINGLE_EDGE, uniform_weights(2), 2, PenaltyConfig())
    obj = dataclasses.replace(q.objective, node_linear=np.array([-np.inf, np.inf]),
                              edge_coeff=np.array([np.inf]))
    with pytest.raises(QuboError, match=r"^linear coefficient of variable 0 is -inf, not finite$"):
        QuboInstance(k=2, objective=obj)
    # the offset adds gamma once per node, so at n >= 2 it is at least
    # 2*gamma in floats: a one-hot pair 2*gamma past the float range
    # makes the offset non-finite, which is named before any term, here
    # before an edge of row 0, (0, 1), and before the one-hot (0, 3)
    with pytest.raises(QuboError, match=r"^offset is inf, not finite$"):
        build_qubo(SINGLE_EDGE, uniform_weights(2), 2, PenaltyConfig(gamma=9e307))
    path = Topology(nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
    q = build_qubo(path, uniform_weights(3), 2, PenaltyConfig())
    for edge_coeff in ([np.inf, 1.0], [1.0, np.inf]):
        obj = dataclasses.replace(q.objective, gamma=1e308, edge_coeff=np.array(edge_coeff))
        with pytest.raises(QuboError, match=r"^offset is inf, not finite$"):
            QuboInstance(k=2, objective=obj)
    # at n = 1 the offset holds gamma once, and the one-hot pair (0, 1)
    # is the first term that is not finite
    one = qubo.Objective(ends=np.zeros((0, 2), dtype=np.int64), edge_coeff=np.zeros(0),
                         node_linear=np.zeros(1), weights=np.ones(1), target=0.5,
                         alpha=1.0, gamma=1e308)
    with pytest.raises(QuboError, match=r"^quadratic coefficient of \(0, 1\) is inf, not finite$"):
        QuboInstance(k=2, objective=one)


def test_a_refused_build_expands_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("coefficient dicts expanded")

    monkeypatch.setattr(qubo, "_expand", refuse)
    ring = generate_ring(6, chords=2, seed=4)
    with pytest.raises(QuboError, match=r"^quadratic coefficient of \(0, 1\) is inf, not finite$"):
        build_qubo(ring, uniform_weights(6), 3, PenaltyConfig(beta=1e308, alpha=1.0, gamma=1.0))


def test_a_refused_1000_node_build_lays_out_one_producer():
    # a refusal names its term from producer 0's layout alone, ~35 MiB
    # at its peak; a full expansion at n=1000, k=8 peaks at ~170 MiB
    n = 1000
    w = np.ones(n)
    w[[5, 9]] = 1e154  # 2 * 1e154 * 1e154 overflows; no edge joins 5 and 9
    tracemalloc.start()
    try:
        with pytest.raises(QuboError, match=r"^quadratic coefficient of \(5, 9\) is inf, not finite$"):
            build_qubo(generate_ring(n), w, 8, PenaltyConfig(1, 1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_the_layout_is_in_key_order_with_no_repeats(suite):
    # a refused build hands the layout to _checked_terms, which reads it
    # in the order given; that order must already be key order
    checked = 0
    for entry in suite:
        n = entry.topo.nodes
        for k in range(1, min(n, 3) + 1):
            for q in (build_qubo(entry.topo, entry.weights, k), build_unweighted_qubo(entry.topo, k)):
                layout = qubo._layout(q.objective, k)
                for got, want in zip(qubo._checked_terms(layout, n * k), layout):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (entry.name, k)
                checked += 1
    assert checked > 100


def test_solving_a_built_instance_expands_nothing(monkeypatch, suite):
    # every solver, the repair and the closed form read the objective
    def refuse(*args):
        raise AssertionError("terms expanded")

    monkeypatch.setattr(qubo, "_expand", refuse)
    solved = 0
    for entry in suite:
        n = entry.topo.nodes
        for k in range(1, min(n, 3) + 1):
            for q in (build_qubo(entry.topo, entry.weights, k), build_unweighted_qubo(entry.topo, k)):
                feasible_energies(q, [np.arange(n) % k])
                solve_heuristic(q, seed=1, restarts=2)
                solve_anneal(q, AnnealConfig(sweeps=20, restarts=2, seed=1))
                decode_and_repair(q, np.ones(q.num_vars))
                assert "terms" not in vars(q)
                solved += 1
    assert solved > 100


def test_built_offsets_are_the_accumulated_offset(suite):
    # the instance derives its offset from the objective, in the same
    # float order as the term-by-term reference
    for entry in suite:
        n, w = entry.topo.nodes, entry.weights
        for k in range(1, min(n, 4) + 1):
            for unweighted in (False, True):
                cfg = default_penalties(entry.topo, uniform_weights(n) if unweighted else w, k)
                q = (build_unweighted_qubo(entry.topo, k, cfg) if unweighted
                     else build_qubo(entry.topo, w, k, cfg))
                want = accumulated_terms(entry.topo, w.values, k, cfg.beta, cfg.alpha, cfg.gamma,
                                         unweighted)[2]
                assert q.offset == want, (entry.name, k, unweighted)


def test_instance_dicts_are_an_export_view():
    entry_topo = generate_ring(6, chords=2, seed=4)
    q = build_qubo(entry_topo, uniform_weights(6), 3, PenaltyConfig(alpha=2.0, gamma=5.0))
    assert "terms" not in vars(q)
    feasible_energies(q, [[0, 1, 2, 0, 1, 2]])
    assert "terms" not in vars(q)
    linear = q.linear
    assert "terms" in vars(q) and q.linear is linear
    assert q.quadratic is q.quadratic
    with pytest.raises(AttributeError, match="immutable"):
        q.offset = 0.0
    # a built instance is given k and its objective alone, an imported
    # one n, k, the offset and its terms
    obj, terms, n, offset = ({"objective": q.objective}, {"terms": q.terms}, {"n": 6},
                             {"offset": q.offset})
    for given in ({}, {**obj, **terms}, {**obj, **n}, {**obj, **offset}, {**obj, **n, **offset},
                  {**obj, **terms, **n, **offset}, terms, {**terms, **n}, {**terms, **offset},
                  {**n, **offset}):
        with pytest.raises(QuboError, match="^give an instance k and either its objective alone "
                                            "or n, the offset and its terms$"):
            QuboInstance(k=3, **given)
    assert QuboInstance(k=3, **terms, **n, **offset) == q
    for ends in ([[1, 0]], [[0, 0]], [[0, 1], [0, 1]]):
        with pytest.raises(QuboError, match="^objective edge ends must be distinct .* with u < v$"):
            dataclasses.replace(q.objective, ends=np.array(ends), edge_coeff=np.ones(len(ends)))


def test_building_at_1000_nodes_expands_no_dicts():
    # the dicts of this instance hold 4.02M terms (~1 GB); the build
    # reads the objective's O(n + m) parts and keeps no n(n-1)/2 layout
    n, k = 1000, 8
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(n, chords=n // 6, rule=rule, seed=1)
    w = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    cfg = default_penalties(topo, w, k)
    tracemalloc.start()
    try:
        q = build_qubo(topo, w, k, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert kept < 2**20
    assert "terms" not in vars(q)


def test_instance_rejects_an_objective_of_another_size():
    # the objective refuses itself, before any instance is made of it;
    # float or bool ends are refused, not left to fail as numpy indices
    q = build_qubo(SINGLE_EDGE, uniform_weights(2), 1, PenaltyConfig())
    for change, message in (
        ({"weights": np.ones(3)}, "3 weights, 2 node terms"),
        ({"node_linear": np.zeros(1)}, "2 weights, 1 node terms"),
        ({"edge_coeff": np.ones(2)}, r"2 edge coefficients, edge ends of shape \(1, 2\)"),
        ({"ends": np.array([[0, 1], [0, 1]])}, r"1 edge coefficients, edge ends of shape \(2, 2\)"),
        ({"ends": np.array([[0, 2]])}, r"\(1, 2\) in 0\.\.2"),
        ({"ends": np.array([[-1, 1]])}, r"\(1, 2\) in -1\.\.1"),
        ({"ends": np.array([[0.0, 1.0]])}, "edge ends of dtype float64, not integers"),
        ({"ends": np.array([[False, True]])}, "edge ends of dtype bool, not integers"),
    ):
        with pytest.raises(QuboError, match=f"^objective does not fit: .*{message}"):
            dataclasses.replace(q.objective, **change)


def test_too_many_producers_rejected():
    with pytest.raises(QuboError, match="more producers than nodes"):
        build_qubo(SINGLE_EDGE, uniform_weights(2), 3, PenaltyConfig())
    with pytest.raises(QuboError, match=r"^k must be >= 1, got 0$"):
        build_unweighted_qubo(SINGLE_EDGE, 0, PenaltyConfig())


def test_unnormalised_weights_use_computed_total():
    # raw weights (3, 1): balance target is W/k = 2
    cfg = PenaltyConfig(alpha=1.0, gamma=50.0)
    q = build_qubo(SINGLE_EDGE, np.array([3.0, 1.0]), 2, cfg)
    split = np.array([1, 0, 0, 1])  # node 0 alone: loads (3, 1), both off target by 1
    assert energy(q, split) == pytest.approx(2.0, rel=1e-9)
    for bits in all_bit_vectors(4):
        expected = modified_cost_direct(
            SINGLE_EDGE, [3.0, 1.0], 2, 1.0, 1.0, 50.0, bits_to_x(bits, 2, 2)
        )
        assert energy(q, bits) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_feasible_assignments_pay_no_one_hot_penalty(suite):
    entry = suite[2]
    n = entry.topo.nodes
    cfg = PenaltyConfig(alpha=2.0, gamma=7.0)
    q = build_qubo(entry.topo, entry.weights, 2, cfg)
    w = entry.weights.values
    target = float(w.sum()) / 2
    for producer_of in feasible_assignments(n, 2):
        bits = np.zeros(q.num_vars)
        for i, p in enumerate(producer_of):
            bits[var_index(q, i, p)] = 1
        loads = np.bincount(producer_of, weights=w, minlength=2)
        internal_dist, _, _ = internal_and_cut(entry.topo, producer_of)
        expected = 2.0 * internal_dist + 2.0 * float(((loads - target) ** 2).sum())
        assert energy(q, bits) == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert modified_cost_direct(
            entry.topo, w, 2, cfg.beta, cfg.alpha, cfg.gamma, bits_to_x(bits, n, 2)
        ) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_unweighted_build_matches_direct_oracle():
    topo = generate_ring(4, seed=2)
    cfg = PenaltyConfig(beta=1.5, alpha=2.0, gamma=3.0)
    q = build_unweighted_qubo(topo, 2, cfg)
    for bits in all_bit_vectors(8):
        expected = unweighted_cost_direct(
            topo, 2, 1.5, 2.0, 3.0, bits_to_x(bits, 4, 2)
        )
        assert energy(q, bits) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_weighted_and_unweighted_balance_terms_align():
    # with uniform weights 1/n and alpha scaled by n^2, the balance and
    # one-hot parts coincide; the graph terms measure complementary
    # quantities (distance kept inside groups vs edges cut between them)
    topo = generate_ring(5, chords=2, seed=11)
    n = 5
    base_alpha = 1.3
    beta, gamma = 0.9, 4.0
    unit_topo = Topology(nodes=n, edges=tuple((a, b, 1.0) for a, b, _ in topo.edges))
    q_u = build_unweighted_qubo(
        unit_topo, 2, PenaltyConfig(beta=beta, alpha=base_alpha, gamma=gamma)
    )
    q_w_unit = build_qubo(
        unit_topo,
        uniform_weights(n),
        2,
        PenaltyConfig(beta=beta, alpha=base_alpha * n * n, gamma=gamma),
    )
    for producer_of in feasible_assignments(n, 2):
        bits = np.zeros(10)
        for i, p in enumerate(producer_of):
            bits[p * n + i] = 1
        _, internal, cut = internal_and_cut(unit_topo, producer_of)
        balance_w = energy(q_w_unit, bits) - 2.0 * beta * internal
        balance_u = energy(q_u, bits) - 2.0 * beta * cut
        assert balance_w == pytest.approx(balance_u, rel=1e-9, abs=1e-9)


def test_graph_term_sign_convention(suite):
    # unit distances, every feasible assignment: the weighted graph term
    # charges 2*beta per edge kept inside a producer; the unweighted one
    # charges beta per edge leaving each producer, so 2*beta per cut edge
    beta, alpha, k = 0.75, 1.3, 2
    cfg = PenaltyConfig(beta=beta, alpha=alpha, gamma=5.0)
    for entry in suite:
        n = entry.topo.nodes
        assert n <= 8
        unit = Topology(nodes=n, edges=tuple((a, b, 1.0) for a, b, _ in entry.topo.edges))
        w = entry.weights.values
        q_w = build_qubo(unit, entry.weights, k, cfg)
        q_u = build_unweighted_qubo(unit, k, cfg)
        for producer_of in feasible_assignments(n, k):
            bits = np.zeros(n * k)
            bits[np.asarray(producer_of) * n + np.arange(n)] = 1
            internal_dist, _, cut = internal_and_cut(unit, producer_of)
            loads = np.bincount(producer_of, weights=w, minlength=k)
            counts = np.bincount(producer_of, minlength=k)
            balance_w = alpha * float(((loads - w.sum() / k) ** 2).sum())
            balance_u = alpha * float(((counts - n / k) ** 2).sum())
            assert energy(q_w, bits) - balance_w == pytest.approx(
                2.0 * beta * internal_dist, abs=1e-9
            )
            assert energy(q_u, bits) - balance_u == pytest.approx(
                2.0 * beta * cut, abs=1e-9
            )


def test_default_penalties_on_square_ring():
    topo = generate_ring(4)
    cfg = default_penalties(topo, uniform_weights(4), 2)
    assert cfg.beta == 1.0
    assert cfg.alpha == 32.0  # rowsum 2 over (1/4)^2
    assert cfg.gamma == 20.0  # 2 * (2 + 32/4)


def test_default_penalties_always_positive():
    lonely = Topology(nodes=1, edges=())
    cfg = default_penalties(lonely, uniform_weights(1), 1)
    assert cfg.beta > 0 and cfg.alpha > 0 and cfg.gamma > 0
    for n in (2, 5, 8):
        cfg = default_penalties(generate_ring(max(n, 3), seed=n), uniform_weights(max(n, 3)), 2)
        assert cfg.alpha > 0 and cfg.gamma > 0


def test_default_penalties_sum_each_nodes_pipes_in_edge_order(suite):
    # S adds each node's pipe lengths one at a time in edge order, as
    # the loop here does, so every penalty is the loop's to the bit; at
    # the star's hub, (0.1 + 0.2) + 0.7 and 0.1 + (0.2 + 0.7) differ
    star = Topology(nodes=4, edges=((0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.7)))
    for topo, w in [(e.topo, e.weights.values) for e in suite] + [(star, np.full(4, 0.25))]:
        sums = [0.0] * topo.nodes
        for u, v, dist in topo.edges:
            sums[u] += dist
            sums[v] += dist
        scale, w_min = max(sums) or 1.0, float(w.min())
        alpha = scale / (w_min * w_min)
        want = PenaltyConfig(beta=1.0, alpha=alpha, gamma=2.0 * (scale + alpha * float(w.max())))
        assert default_penalties(topo, w, 2) == want, topo


def test_default_penalties_refuse_scales_past_the_float_range():
    star = Topology(nodes=3, edges=((0, 1, 1e308), (0, 2, 1e308)))
    with pytest.raises(QuboError, match="distance scale"):
        default_penalties(star, uniform_weights(3), 2)
    # the smallest weight squared underflows to 0, so alpha overflows
    path = Topology(nodes=3, edges=((0, 1, 1.0), (1, 2, 1.0)))
    with pytest.raises(QuboError, match="alpha must be finite"):
        default_penalties(path, [1e-170, 0.5, 0.5], 2)


def feasible_rows(n, k, rng):
    """Every producer row when n * k is within the exhaustive cap (24
    variables), else 256 seeded ones."""
    if n * k <= 24:
        return np.array(list(itertools.product(range(k), repeat=n)))
    return rng.integers(0, k, size=(256, n))


def test_feasible_energies_are_the_closed_form(suite):
    # the closed form reads the objective and has no offset: it equals
    # the direct objective within a relative n*eps, on both builders, at
    # k = 1..5; and energies() of the one-hot bits, whose sum starts at
    # the offset, within (N + 1)*eps of the offset and the N set terms'
    # magnitudes. The isolated node has no node term in the unweighted
    # QUBO, and the cancelling penalties leave zero coefficients unstored.
    eps = np.finfo(float).eps
    isolated = Topology(nodes=5, edges=((0, 1, 1.5), (1, 3, 0.5)))
    cases = [(e.topo, e.weights.values) for e in suite] + [(isolated, np.arange(1.0, 6.0))]
    cancelling = PenaltyConfig(beta=1.0, alpha=1.0, gamma=2.0)
    rows_checked = 0
    for topo, w in cases:
        n = topo.nodes
        for k in range(1, min(n, 5) + 1):
            rng = np.random.default_rng([n, k, topo.num_edges])
            rows = feasible_rows(n, k, rng)
            cfg = default_penalties(topo, w, k)
            builds = [(build_qubo(topo, w, k, cfg), True, cfg),
                      (build_unweighted_qubo(topo, k, cfg), False, cfg),
                      (build_unweighted_qubo(topo, k, cancelling), False, cancelling)]
            for q, weighted, penalties in builds:
                got = feasible_energies(q, rows)
                bits = np.zeros((len(rows), q.num_vars), dtype=np.int8)
                np.put_along_axis(bits, rows * n + np.arange(n), 1, axis=1)
                t, on = q.terms, bits != 0
                lin_set, quad_set = on[:, t.lin_vars], on[:, t.rows] & on[:, t.cols]
                count = lin_set.sum(axis=1) + quad_set.sum(axis=1)
                size = abs(q.offset) + (np.abs(t.lin_vals) * lin_set).sum(axis=1) + (
                    np.abs(t.vals) * quad_set).sum(axis=1)
                assert np.all(np.abs(got - energies(q, bits)) <= (count + 1) * eps * size)
                for at in rng.choice(len(rows), size=min(8, len(rows)), replace=False):
                    x = np.eye(k)[rows[at]]
                    args = (penalties.beta, penalties.alpha, penalties.gamma, x)
                    want = (modified_cost_direct(topo, w, k, *args) if weighted
                            else unweighted_cost_direct(topo, k, *args))
                    assert abs(got[at] - want) <= n * eps * abs(want), (n, k, rows[at])
                rows_checked += len(rows)
    assert rows_checked > 100_000


def test_feasible_energies_check_their_rows(tmp_path):
    q = build_qubo(SINGLE_EDGE, uniform_weights(2), 2, PenaltyConfig())
    assert feasible_energies(q, np.zeros((0, 2), dtype=int)).shape == (0,)
    for rows in ([0, 1], [[0, 1, 1]], [[0, 2]], [[-1, 0]]):
        with pytest.raises(QuboError, match=r"producer rows must be \(rows, 2\) ids in 0\.\.1"):
            feasible_energies(q, rows)
    path = tmp_path / "edge.qubo"
    export_qubo(q, str(path))
    with pytest.raises(QuboError, match="imported one has none"):
        feasible_energies(import_qubo(str(path)), [[0, 1]])


@pytest.mark.parametrize("bad", [0.5, np.nan, "0", True], ids=["half", "nan", "text", "bool"])
def test_feasible_energies_refuse_ids_that_are_not_integers(bad):
    # no id is truncated, cast from nan or compared as text: a float, a
    # string or a bool row is refused as any other bad row
    q = build_qubo(SINGLE_EDGE, uniform_weights(2), 2, PenaltyConfig())
    with pytest.raises(QuboError, match=r"^producer rows must be \(rows, 2\) ids in 0\.\.1$"):
        feasible_energies(q, [[bad, bad]])


def test_export_import_round_trip(suite, tmp_path):
    for i, entry in enumerate(suite[:8]):
        k = min(2, entry.topo.nodes)
        q = build_qubo(
            entry.topo, entry.weights, k, default_penalties(entry.topo, entry.weights, k)
        )
        path = tmp_path / f"inst{i}.qubo"
        export_qubo(q, str(path))
        back = import_qubo(str(path))
        assert back.n == q.n and back.k == q.k
        assert back.offset == q.offset
        assert back.linear == q.linear
        assert back.quadratic == q.quadratic
        assert back.objective is None and back == q  # equality ignores the objective


def in_key_order(q):
    """Whether q stores its linear terms by variable and its quadratic
    terms by (row, col)."""
    t = q.terms
    return bool(np.all(np.diff(t.lin_vars) > 0)
                and np.all(np.diff(t.rows) >= 0)
                and np.all((np.diff(t.rows) > 0) | (np.diff(t.cols) > 0)))


def test_an_instance_and_its_exported_copy_give_the_same_energies(suite, tmp_path):
    # built and imported instances sum their terms in one order, key
    # order, so both give the same floats
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    w24 = compute_weights(synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0))
    trends = (generate_ring(24, chords=4, rule=rule, seed=7), generate_tree(24, branching=3, rule=rule, seed=7))
    cases = [(e.topo, e.weights, k) for e in suite for k in range(2, min(3, e.topo.nodes) + 1)]
    cases += [(topo, w24, k) for topo in trends for k in range(2, 9)]
    path = str(tmp_path / "q.qubo")
    for topo, w, k in cases:
        n = topo.nodes
        rng = np.random.default_rng([n, k, topo.num_edges])
        producers = rng.integers(0, k, size=(32, n))
        for q in (build_qubo(topo, w, k), build_unweighted_qubo(topo, k)):
            one_hot = np.zeros((32, q.num_vars), dtype=np.int8)
            np.put_along_axis(one_hot, producers * n + np.arange(n), 1, axis=1)
            rows = np.concatenate([rng.integers(0, 2, size=(32, q.num_vars)), one_hot])
            export_qubo(q, path)
            back = import_qubo(path)
            assert in_key_order(q) and in_key_order(back)
            want = energies(q, rows).tolist()
            assert energies(back, rows).tolist() == want


def test_a_shuffled_file_imports_the_same_instance(tmp_path):
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(24, chords=4, rule=rule, seed=7)
    w = compute_weights(synthetic_demands(24, timesteps=168, seed=11, anchor_scale=20.0))
    q = build_qubo(topo, w, 4)
    path = tmp_path / "q.qubo"
    export_qubo(q, str(path))
    head, *lines = path.read_text().splitlines(keepends=True)
    np.random.default_rng(5).shuffle(lines)
    path.write_text(head + "".join(lines))
    back = import_qubo(str(path))
    assert back == q and in_key_order(back)
    rows = np.random.default_rng(6).integers(0, 2, size=(200, q.num_vars))
    assert energies(back, rows).tolist() == energies(q, rows).tolist()
    # given terms are stored in key order too, whatever order they come in
    given = instance_of(2, 2, {3: 1.0, 0: 2.0, 1: 3.0}, {(1, 3): 1.0, (0, 3): 2.0, (0, 1): 3.0})
    assert in_key_order(given)
    assert given.terms.lin_vals.tolist() == [2.0, 3.0, 1.0]
    assert given.terms.vals.tolist() == [3.0, 2.0, 1.0]


def test_export_golden_single_variable(tmp_path):
    topo = Topology(nodes=1, edges=())
    q = build_qubo(topo, uniform_weights(1), 1, PenaltyConfig(alpha=2.0, gamma=3.0))
    path = tmp_path / "one.qubo"
    export_qubo(q, str(path))
    assert path.read_text() == "p qubo 1 1 0 5.0\n0 0 -5.0\n"
    assert (tmp_path / "one.qubo.map").read_text() == "map 1 1\n0 0 0\n"


def test_offset_survives_round_trip(tmp_path):
    q = instance_of(1, 2, {0: 1.0}, {(0, 1): -2.5}, offset=3.25)
    path = tmp_path / "off.qubo"
    export_qubo(q, str(path))
    assert import_qubo(str(path)).offset == 3.25


def test_import_diagnostics_carry_line_numbers(tmp_path):
    path = tmp_path / "broken.qubo"
    path.write_text("p qubo 2 1 0 0.0\n0 zero nope\n")
    with pytest.raises(QuboFormatError, match="line 2: malformed entry"):
        import_qubo(str(path))
    path.write_text("p qubo 2 1 0 0.0\n1 0 1.0\n")
    with pytest.raises(QuboFormatError, match="line 2.*i < j"):
        import_qubo(str(path))
    path.write_text("hello\n")
    with pytest.raises(QuboFormatError, match="line 1"):
        import_qubo(str(path))
    path.write_text("p qubo 2 2 0 0.0\n0 0 1.0\n")
    with pytest.raises(QuboFormatError, match="promises 2 linear"):
        import_qubo(str(path))


def test_import_map_errors_number_raw_lines(tmp_path):
    path = tmp_path / "gaps.qubo"
    export_qubo(instance_of(2, 1, {0: 1.0}, {}), str(path))
    map_path = tmp_path / "gaps.qubo.map"
    map_path.write_text("map 2 1\n0 0 0\n\n\n1 0 x\n")
    with pytest.raises(QuboFormatError, match=r"\.map: line 5: malformed entry '1 0 x'$"):
        import_qubo(str(path))
    map_path.write_text("\n".join(["map 2 1", "", "0 0 0", "   ", "0 1 0"]) + "\n")
    with pytest.raises(QuboFormatError, match=r"\.map: line 5: mapping is not producer-major"):
        import_qubo(str(path))


def test_import_map_lists_each_variable_exactly_once(tmp_path):
    path = tmp_path / "twice.qubo"
    export_qubo(instance_of(2, 2, {0: 1.0}, {}), str(path))
    map_path = tmp_path / "twice.qubo.map"
    for rows, message in (
        (["0 0 0"] * 4, r"twice\.qubo\.map: line 3: variable 0 listed twice$"),
        (["0 0 0", "1 1 0", "2 0 1", "0 0 0"], r"twice\.qubo\.map: line 5: variable 0 listed twice$"),
        (["0 0 0", "1 1 0", "2 0 1", "4 0 2"], r"twice\.qubo\.map: line 5: variable 4 outside 0\.\.3$"),
        (["-1 1 -1", "1 1 0", "2 0 1", "3 1 1"], r"twice\.qubo\.map: line 2: variable -1 outside 0\.\.3$"),
        # var = producer*n + node holds, but node 3 does not exist
        (["0 0 0", "1 1 0", "2 0 1", "3 3 0"], r"twice\.qubo\.map: line 5: mapping is not producer-major"),
    ):
        map_path.write_text("\n".join(["map 2 2", *rows]) + "\n")
        with pytest.raises(QuboFormatError, match=message):
            import_qubo(str(path))


def test_import_names_the_file_in_instance_errors(tmp_path):
    path = tmp_path / "bad.qubo"
    export_qubo(instance_of(1, 2, {0: 1.0, 1: 2.0}, {}), str(path))
    good = path.read_text()
    for text, message in (
        (good.replace("0 0 1.0", "0 0 0.0"), "zero linear coefficient stored for variable 0"),
        (good.replace("1 1 2.0", "1 1 inf"), "linear coefficient of variable 1 is inf, not finite"),
        (good.replace("0.0\n", "nan\n", 1), "offset is nan, not finite"),
    ):
        path.write_text(text)
        with pytest.raises(QuboFormatError) as caught:
            import_qubo(str(path))
        assert str(caught.value) == f"{path}: {message}"


HUGE = 2**70  # an id past int64


@pytest.mark.parametrize("block", [None, 1, 2])
def test_import_names_the_first_fault_of_many(tmp_path, monkeypatch, block):
    # one file, several faults: the first faulty line wins, then the
    # header's counts, then the sidecar, and a zero or non-finite value
    # last, in whatever blocks the lines are read
    if block:
        monkeypatch.setattr(qubo, "_BLOCK", block, raising=False)
    path = tmp_path / "many.qubo"
    export_qubo(instance_of(2, 1, {0: 1.0}, {}), str(path))  # the sidecar: map 2 1
    for text, message in (
        ("p qubo 2 1 1 0.0\n0 1 1.0\n0 1 2.0\n1 0 1.0\n", "line 3: duplicate quadratic entry (0, 1)"),
        ("p qubo 2 1 0 0.0\n0 0 0.0\n\n0 0 1.0\n", "line 4: duplicate linear entry for 0"),
        ("p qubo 2 9 9 0.0\n0 0 1.0\n\n1 0 1.0\n0 1 x\n", "line 4: quadratic entry must have i < j"),
        ("p qubo 2 1 0 0.0\n0 0 nan\n5 1 1.0\n0 1\n", "line 3: variable 5 outside 0..1"),
        ("p qubo 2 1 0 0.0\n0 0 1.0\n0 1\n1 0 1.0\n", "line 3: expected '<i> <j> <value>', got '0 1'"),
        ("p qubo 2 1 0 0.0\n0 0 x\n0 1\n", "line 2: malformed entry '0 0 x'"),
        ("p qubo 2 1 0 0.0\n0 1 1.0\n0 1 1.0\nx y z\n", "line 3: duplicate quadratic entry (0, 1)"),
        ("p qubo 2 1 0 0.0\n\n\n0 0 1.0\n1 1 1.0 2\n0 0 1.0\n",
         "line 5: expected '<i> <j> <value>', got '1 1 1.0 2'"),
        (f"p qubo 2 1 0 0.0\n{HUGE} {HUGE} 1.0\n0 {HUGE} 0.0\n", f"line 2: variable {HUGE} outside 0..1"),
        (f"p qubo 2 1 0 0.0\n0 1 1.0\n0 {-HUGE} 1.0\n", f"line 3: variable {-HUGE} outside 0..1"),
        ("p qubo 2 1 0 0.0\n0 0\x0c1.0\n", "line 2: expected '<i> <j> <value>', got '0 0'"),
        ("p qubo 2 1 0 0.0\n1\xa01\t0.0\n", "zero linear coefficient stored for variable 1"),
        ("p qubo 2 2 0 nan\n0 0 0.0\n", "header promises 2 linear and 0 quadratic entries, found 1 and 0"),
        ("p qubo 2 1 1 1.5\n0 1 inf\n1 1 0.0\n", "zero linear coefficient stored for variable 1"),
        ("p qubo 2 0 1 1.5\n0 1 -inf\n", "quadratic coefficient of (0, 1) is -inf, not finite"),
    ):
        path.write_text(text)
        with pytest.raises(QuboFormatError) as caught:
            import_qubo(str(path))
        assert str(caught.value) == f"{path}: {message}"
    path.write_text("p qubo 3 1 0 0.0\n0 0 0.0\n")
    with pytest.raises(QuboFormatError, match=r"many\.qubo\.map: n\*k = 2 does not match 3 variables$"):
        import_qubo(str(path))
    path.write_text("p qubo 2 1 1 0.5\n\n1 1 2.0\n\n\n0 1 -1.5\n")
    assert import_qubo(str(path)) == instance_of(2, 1, {1: 2.0}, {(0, 1): -1.5}, offset=0.5)


def test_export_and_energies_build_no_dict_views(tmp_path, monkeypatch):
    from heatfair import cli

    q = build_qubo(generate_ring(6, chords=2, seed=4), uniform_weights(6), 3)
    export_qubo(q, str(tmp_path / "q.qubo"))
    energies(q, np.ones((3, q.num_vars)))
    energy(q, np.zeros(q.num_vars))
    exported = []
    original = qubo.export_qubo

    def spy(instance, path):
        exported.append(instance)
        original(instance, path)

    monkeypatch.setattr(qubo, "export_qubo", spy)
    topo_path = tmp_path / "ring.json"
    save_topology(generate_ring(6, chords=2, seed=4), str(topo_path))
    assert cli.main(["qubo", str(topo_path), "--unweighted", "--k", "3",
                     "-o", str(tmp_path / "cli.qubo")]) == 0
    back = import_qubo(str(tmp_path / "cli.qubo"))
    export_qubo(back, str(tmp_path / "back.qubo"))
    energies(back, np.ones((2, back.num_vars)))
    assert back == exported[0]
    for instance in (q, *exported, back):
        assert "terms" in vars(instance)
        assert "linear" not in vars(instance) and "quadratic" not in vars(instance)
    assert len(exported) == 1


def test_export_writes_in_blocks(tmp_path, monkeypatch):
    # a mid-size text goes out without being held whole: the peak stays
    # far below it (joined into one string it took about seven times its size)
    n = 200
    w = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    q = build_qubo(generate_ring(n, chords=n // 6, seed=1), w, 4)
    q.terms  # expanded before the count starts
    path = tmp_path / "q.qubo"
    tracemalloc.start()
    try:
        export_qubo(q, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2
    # the bytes do not depend on where the blocks end
    q = build_qubo(generate_ring(7, chords=2, seed=3), uniform_weights(7), 3)
    want = "".join([f"p qubo {q.num_vars} {len(q.linear)} {len(q.quadratic)} {q.offset!r}\n"]
                   + [f"{v} {v} {c!r}\n" for v, c in sorted(q.linear.items())]
                   + [f"{a} {b} {c!r}\n" for (a, b), c in sorted(q.quadratic.items())])
    for block in (1, 4, 1 << 10):
        monkeypatch.setattr(qubo, "_BLOCK", block)
        export_qubo(q, str(path))
        assert path.read_text() == want
        assert import_qubo(str(path)) == q


def test_import_requires_sidecar(tmp_path):
    path = tmp_path / "lonely.qubo"
    path.write_text("p qubo 1 0 0 0.0\n")
    with pytest.raises(QuboFormatError, match="sidecar mapping file not found"):
        import_qubo(str(path))


def test_import_streams_the_file(tmp_path):
    # the lines are never held all at once: the peak stays within 3.5
    # times the file (a list of all its lines took about 4.6 times)
    n = 200
    w = compute_weights(synthetic_demands(n, timesteps=24, seed=1))
    q = build_qubo(generate_ring(n, chords=n // 6, seed=1), w, 4)
    path = tmp_path / "q.qubo"
    export_qubo(q, str(path))
    tracemalloc.start()
    try:
        back = import_qubo(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == q
    assert peak < 3.5 * path.stat().st_size


@pytest.mark.parametrize("block", [None, 1, 2])
def test_import_names_the_first_sidecar_fault_in_any_block(tmp_path, monkeypatch, block):
    # the rows are checked as arrays, however they were read: the header,
    # then n*k, then the row count, then the first faulty row
    if block:
        monkeypatch.setattr(qubo, "_BLOCK", block)
    path = tmp_path / "late.qubo"
    export_qubo(instance_of(2, 2, {0: 1.0}, {}), str(path))
    map_path = tmp_path / "late.qubo.map"
    for text, message in (
        ("map 2 2\n\n0 0 0\n1 1 0\n\n2 0 1\n1 1 0\n", "line 7: variable 1 listed twice"),
        ("map 2 2\n0 0 0\n1 1 0\n2 0 1\n\n3 1 1 0\n", "line 6: expected '<var> <node> <producer>', got '3 1 1 0'"),
        ("map 2 2\n0 0 0\n1 1 0\n\n2 0 1\n3 1 x\n", "line 6: malformed entry '3 1 x'"),
        ("map 2 2\n0 0 0\n1 1 0\n2 1 1\nx y z\n", "line 4: mapping is not producer-major "
         "(expected var = producer*2 + node)"),
        ("map 2 2\n0 0 0\n1 1 x\n0 0 0\n3 1 1\n", "line 3: malformed entry '1 1 x'"),
        ("map 2 2\n0 0 0\n1 1 0\n\n2 0 1\n4 0 2\n", "line 6: variable 4 outside 0..3"),
        # var = producer*n + node holds for an id past int64, which is named as written
        (f"map 2 2\n0 0 0\n1 1 0\n2 0 1\n{2**64} 0 {2**63}\n",
         f"line 5: variable {2**64} outside 0..3"),
        ("map 2 2\n0 0 0\x0c1 1 0\n2 0 1\n3 1 2\n", "line 5: mapping is not producer-major "
         "(expected var = producer*2 + node)"),
        ("map 2 2\n0 0\n0 0 0\n1 1 0\n2 0 1\n3 1 1\n", "expected 4 mapping rows, found 5"),
        ("map 2 2\n0 0 0\n1 1 0\n2 0 1\n3 1 1\n\n0 0 0 0\n", "expected 4 mapping rows, found 5"),
        ("map 2 x\n0 0 0\n", "line 1: malformed header 'map 2 x'"),
        ("map 1 2\n0 0 0\n1 1 0\n2 0 1\n3 1 1\n", "n*k = 2 does not match 4 variables"),
    ):
        map_path.write_text(text)
        with pytest.raises(QuboFormatError) as caught:
            import_qubo(str(path))
        assert str(caught.value) == f"{map_path}: {message}"
    map_path.write_text("map 2 2\n\n3 1 1\n0 0 0\n\n2 0 1\n1 1 0\n")
    assert import_qubo(str(path)) == instance_of(2, 2, {0: 1.0}, {})


def test_import_reads_crlf_files_as_lf(tmp_path):
    q = build_qubo(generate_ring(7, chords=2, seed=3), uniform_weights(7), 3)
    export_qubo(q, str(tmp_path / "lf.qubo"))
    for suffix in ("", ".map"):
        text = (tmp_path / f"lf.qubo{suffix}").read_bytes()
        assert b"\r" not in text
        (tmp_path / f"crlf.qubo{suffix}").write_bytes(text.replace(b"\n", b"\r\n"))
    assert import_qubo(str(tmp_path / "crlf.qubo")) == import_qubo(str(tmp_path / "lf.qubo")) == q


def test_import_skips_a_byte_order_mark(tmp_path):
    # editors on some systems save UTF-8 text with a byte-order mark
    q = build_qubo(generate_ring(7, chords=2, seed=3), uniform_weights(7), 3)
    export_qubo(q, str(tmp_path / "plain.qubo"))
    for marked in (("",), (".map",), ("", ".map")):
        for suffix in ("", ".map"):
            text = (tmp_path / f"plain.qubo{suffix}").read_text()
            (tmp_path / f"bom.qubo{suffix}").write_text("\ufeff" * (suffix in marked) + text)
        assert import_qubo(str(tmp_path / "bom.qubo")) == q


def test_builders_default_to_default_penalties(suite, tmp_path):
    """Leaving cfg out takes default_penalties, with uniform weights for
    the unweighted builder: the same offset, objective arrays and
    exported bytes as passing those penalties."""

    def exported(q):
        path = tmp_path / "q.qubo"
        export_qubo(q, str(path))
        return path.read_bytes() + (tmp_path / "q.qubo.map").read_bytes()

    for entry in suite:
        topo, n = entry.topo, entry.topo.nodes
        uniform = uniform_weights(n)
        for k in range(1, min(4, n) + 1):
            for got, want in (
                (build_qubo(topo, entry.weights, k),
                 build_qubo(topo, entry.weights, k, default_penalties(topo, entry.weights, k))),
                (build_unweighted_qubo(topo, k),
                 build_unweighted_qubo(topo, k, default_penalties(topo, uniform, k))),
            ):
                assert float(got.offset).hex() == float(want.offset).hex()
                for field in dataclasses.fields(qubo.Objective):
                    mine, theirs = (np.asarray(getattr(q.objective, field.name)) for q in (got, want))
                    assert mine.tobytes() == theirs.tobytes(), (n, k, field.name)
                assert exported(got) == exported(want)
