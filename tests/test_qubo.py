import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    PenaltyConfig,
    QuboError,
    QuboFormatError,
    QuboInstance,
    Topology,
    build_qubo,
    build_unweighted_qubo,
    default_penalties,
    energies,
    energy,
    export_qubo,
    generate_ring,
    import_qubo,
    uniform_weights,
)
from oracles import (
    accumulated_terms,
    all_bit_vectors,
    bits_to_x,
    feasible_assignments,
    internal_and_cut,
    modified_cost_batch,
    modified_cost_direct,
    qubo_energy_direct,
    unweighted_cost_direct,
)

SINGLE_EDGE = Topology(nodes=2, edges=((0, 1, 1.0),))


def test_penalty_config_validation():
    with pytest.raises(QuboError, match="beta"):
        PenaltyConfig(beta=0.0)
    with pytest.raises(QuboError, match="alpha"):
        PenaltyConfig(alpha=-1.0)
    with pytest.raises(QuboError, match="gamma must be a real number"):
        PenaltyConfig(gamma=(1.0, 0.0))
    with pytest.raises(QuboError, match="alpha must be a real number"):
        PenaltyConfig(alpha=True)
    with pytest.raises(QuboError, match="beta must be a real number"):
        PenaltyConfig(beta="3")
    with pytest.raises(QuboError, match="alpha must be finite and positive"):
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
    # every energy is offset + the set terms added one by one in dict
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
    first = vars(q)["_term_arrays"]
    energies(q, np.ones((2, q.num_vars)))
    energy(q, np.ones(q.num_vars))
    assert q._term_arrays is first
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


def test_variable_layout_is_a_bijection(suite):
    entry = suite[4]
    q = build_qubo(entry.topo, entry.weights, 3, PenaltyConfig())
    seen = set()
    for i in range(q.n):
        for j in range(q.k):
            var = q.var_index(i, j)
            assert q.node_producer(var) == (i, j)
            seen.add(var)
    assert seen == set(range(q.num_vars))
    with pytest.raises(QuboError):
        q.var_index(q.n, 0)
    with pytest.raises(QuboError):
        q.node_producer(q.num_vars)


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
    # energy() adds stored terms in dict order, so the key order and the
    # float arithmetic of every coefficient are part of the output
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


def test_instance_invariants_enforced():
    with pytest.raises(QuboError, match="zero linear coefficient"):
        QuboInstance(n=1, k=2, linear={0: 0.0}, quadratic={}, offset=0.0)
    with pytest.raises(QuboError, match="not strictly upper-triangular"):
        QuboInstance(n=1, k=2, linear={}, quadratic={(1, 0): 1.0}, offset=0.0)
    with pytest.raises(QuboError, match="outside"):
        QuboInstance(n=1, k=2, linear={5: 1.0}, quadratic={}, offset=0.0)


def test_instance_rejects_non_finite_terms(tmp_path):
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(QuboError, match="variable 0 is .*, not finite"):
            QuboInstance(n=1, k=2, linear={0: bad}, quadratic={}, offset=0.0)
        with pytest.raises(QuboError, match=r"\(0, 1\) is .*, not finite"):
            QuboInstance(n=1, k=2, linear={}, quadratic={(0, 1): bad}, offset=0.0)
        with pytest.raises(QuboError, match="offset is .*, not finite"):
            QuboInstance(n=1, k=2, linear={}, quadratic={}, offset=bad)
    path = tmp_path / "inf.qubo"
    export_qubo(QuboInstance(n=1, k=2, linear={0: 1.0}, quadratic={}, offset=0.0), str(path))
    path.write_text(path.read_text().replace("0 0 1.0", "0 0 inf"))
    with pytest.raises(QuboError, match="not finite"):
        import_qubo(str(path))


def test_instance_rejects_an_objective_of_another_size():
    q = build_qubo(SINGLE_EDGE, uniform_weights(2), 1, PenaltyConfig())
    for change, message in (
        ({"weights": np.ones(3)}, "3 weights, 2 node terms"),
        ({"node_linear": np.zeros(1)}, "2 weights, 1 node terms"),
        ({"edge_coeff": np.ones(2)}, r"2 edge coefficients, edge ends of shape \(1, 2\)"),
        ({"ends": np.array([[0, 1], [0, 1]])}, r"1 edge coefficients, edge ends of shape \(2, 2\)"),
        ({"ends": np.array([[0, 2]])}, r"\(1, 2\) in 0\.\.2"),
        ({"ends": np.array([[-1, 1]])}, r"\(1, 2\) in -1\.\.1"),
    ):
        with pytest.raises(QuboError, match=message):
            QuboInstance(n=2, k=1, linear=q.linear, quadratic=q.quadratic, offset=q.offset,
                         objective=dataclasses.replace(q.objective, **change))


def test_too_many_producers_rejected():
    with pytest.raises(QuboError, match="more producers than nodes"):
        build_qubo(SINGLE_EDGE, uniform_weights(2), 3, PenaltyConfig())
    with pytest.raises(QuboError, match="at least one producer"):
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
            bits[q.var_index(i, p)] = 1
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


def test_export_golden_single_variable(tmp_path):
    topo = Topology(nodes=1, edges=())
    q = build_qubo(topo, uniform_weights(1), 1, PenaltyConfig(alpha=2.0, gamma=3.0))
    path = tmp_path / "one.qubo"
    export_qubo(q, str(path))
    assert path.read_text() == "p qubo 1 1 0 5.0\n0 0 -5.0\n"
    assert (tmp_path / "one.qubo.map").read_text() == "map 1 1\n0 0 0\n"


def test_offset_survives_round_trip(tmp_path):
    q = QuboInstance(n=1, k=2, linear={0: 1.0}, quadratic={(0, 1): -2.5}, offset=3.25)
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


def test_import_requires_sidecar(tmp_path):
    path = tmp_path / "lonely.qubo"
    path.write_text("p qubo 1 0 0 0.0\n")
    with pytest.raises(QuboFormatError, match="sidecar mapping file not found"):
        import_qubo(str(path))
