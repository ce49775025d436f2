import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    Assignment,
    FairnessError,
    KpiReport,
    Topology,
    WeightVector,
    all_pairs_shortest_paths,
    distance_index,
    generate_ring,
    jain_index,
    producer_loads,
    score_assignment,
    uniform_weights,
)

RING4 = generate_ring(4)

positive_loads = st.lists(
    st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=8
)


def normalised(values) -> WeightVector:
    arr = np.asarray(values, dtype=float)
    return WeightVector(values=arr / arr.sum())


def test_producer_loads_accumulates_by_producer():
    w = normalised([1.0, 2.0, 3.0, 4.0])
    loads = producer_loads(Assignment(producer_of=(0, 1, 0, 1), k=2), w)
    assert loads.tolist() == pytest.approx([0.4, 0.6], rel=1e-12)
    empty_tail = producer_loads(Assignment(producer_of=(0, 0, 0, 0), k=3), w)
    assert empty_tail.tolist() == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


@given(st.data())
def test_producer_loads_matches_plain_accumulation(data):
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 4))
    raw = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    producer_of = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
    w = normalised(raw)
    loads = producer_loads(Assignment(producer_of=producer_of, k=k), w)
    expected = [0.0] * k
    for i, p in enumerate(producer_of):
        expected[p] += float(w.values[i])
    assert loads.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_producer_loads_validation():
    with pytest.raises(FairnessError, match="covers 2 nodes but weights cover 3"):
        producer_loads(Assignment(producer_of=(0, 0), k=1), uniform_weights(3))


@pytest.mark.parametrize("loads, message", [
    (np.zeros((2, 2)), r"loads must be a non-empty vector, got \(2, 2\)"),
    (7.0, r"loads must be a non-empty vector, got \(\)"),
    ([], r"loads must be a non-empty vector, got \(0,\)"),
    (np.array([0.5, -0.1]), "loads must be finite and nonnegative"),
    ([0.5, float("nan")], "loads must be finite and nonnegative"),
    ([float("inf"), 1.0], "loads must be finite and nonnegative"),
    (["1", "2"], "loads must be numbers, got an array of <U1"),
    ([True, False], "loads must be numbers, got an array of bool"),
], ids=["matrix", "scalar", "empty", "negative", "nan", "inf", "text", "bool"])
def test_jain_refuses_what_is_not_a_load_vector(loads, message):
    with pytest.raises(FairnessError, match=f"^{message}$"):
        jain_index(loads)


def test_jain_known_values():
    assert jain_index(np.array([0.5, 0.5])) == 1.0
    assert jain_index(np.array([1.0, 0.0])) == 0.5
    assert jain_index(np.array([0.2, 0.3, 0.5])) == pytest.approx(
        0.8771929824561403, abs=1e-15
    )
    assert jain_index(np.array([7.0])) == 1.0
    # one node per producer on uniform weights: here the float quotient
    # of the equal loads rounds past 1
    for k in (10, 12, 21, 23, 25, 35, 39):
        a = Assignment(producer_of=tuple(range(k)), k=k)
        assert jain_index(producer_loads(a, uniform_weights(k))) == 1.0


def test_jain_of_extreme_magnitudes():
    # the squared sums overflow, or underflow to zero, unless scaled first
    for value in (1e200, 1e308, 1e-170):
        assert jain_index(np.array([value, value])) == 1.0


@pytest.mark.parametrize("e", [-1000, 1000])
def test_jain_is_exact_under_power_of_two_scaling(e):
    vectors = [np.array(v) for v in ([0.5, 0.5], [1.0, 0.0], [0.2, 0.3, 0.5], [7.0])]
    vectors += [producer_loads(Assignment(producer_of=tuple(range(k)), k=k), uniform_weights(k))
                for k in (10, 12, 21, 23, 25, 35, 39)]
    for y in vectors:
        assert jain_index(np.ldexp(y, e)) == jain_index(y)


@given(st.lists(st.floats(), min_size=1, max_size=8))
def test_jain_scores_or_refuses_any_vector(values):
    try:
        index = jain_index(values)
    except FairnessError:
        return
    assert 1.0 / len(values) * (1.0 - 1e-12) <= index <= 1.0


def test_jain_all_zero_is_undefined():
    with pytest.raises(FairnessError, match="undefined"):
        jain_index(np.zeros(3))


@given(st.floats(0.01, 50.0), st.integers(1, 8))
def test_jain_equal_loads_score_one(value, k):
    assert jain_index(np.full(k, value)) == pytest.approx(
        1.0, abs=1e-12
    )


@given(st.integers(2, 8))
def test_jain_full_concentration_scores_one_over_k(k):
    y = np.zeros(k)
    y[0] = 3.5
    assert jain_index(y) == pytest.approx(1.0 / k, abs=1e-12)


@given(positive_loads, st.floats(0.01, 100.0))
def test_jain_is_scale_invariant(values, c):
    y = np.asarray(values)
    base = jain_index(y)
    assert jain_index(c * y) == pytest.approx(base, rel=1e-9)
    assert 1.0 / len(values) - 1e-12 <= base <= 1.0 + 1e-12


@given(positive_loads, st.randoms(use_true_random=False))
def test_jain_is_permutation_invariant(values, rand):
    shuffled = list(values)
    rand.shuffle(shuffled)
    assert jain_index(np.asarray(shuffled)) == pytest.approx(
        jain_index(np.asarray(values)), rel=1e-12
    )


def test_distance_index_extremes_are_exact(suite):
    for entry in suite:
        n = entry.topo.nodes
        together = Assignment(producer_of=(0,) * n, k=1)
        assert distance_index(together, entry.topo) == 0.0
        if n > 1:
            apart = Assignment(producer_of=tuple(range(n)), k=n)
            assert distance_index(apart, entry.topo) == 1.0


def test_distance_index_on_square_ring_pairs():
    a = Assignment(producer_of=(0, 0, 1, 1), k=2)
    assert distance_index(a, RING4) == pytest.approx(0.75, abs=1e-15)


def test_distance_index_single_node_network():
    topo = Topology(nodes=1, edges=())
    assert distance_index(Assignment(producer_of=(0,), k=1), topo) == 0.0


def test_distance_index_accepts_precomputed_matrix():
    sp = all_pairs_shortest_paths(RING4)
    a = Assignment(producer_of=(0, 1, 0, 1), k=2)
    assert distance_index(a, RING4, sp=sp) == distance_index(a, RING4)


def test_distance_index_rejects_bad_inputs():
    with pytest.raises(FairnessError, match="covers 3 nodes but topology has 4"):
        distance_index(Assignment(producer_of=(0, 0, 0), k=1), RING4)
    disconnected = Topology(nodes=3, edges=((0, 1, 1.0),))
    with pytest.raises(FairnessError, match="disconnected"):
        distance_index(Assignment(producer_of=(0, 0, 0), k=1), disconnected)


@given(st.data())
def test_distance_index_never_drops_when_a_producer_splits(data):
    n = data.draw(st.integers(3, 8))
    extra = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] < ab[1] - 1
            ),
            max_size=3,
        )
    )
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    edges += [(a, b, 1.0) for a, b in extra]
    topo = Topology(nodes=n, edges=tuple(edges))
    k = data.draw(st.integers(1, 3))
    producer_of = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
    before = distance_index(Assignment(producer_of=tuple(producer_of), k=k), topo)
    victim = data.draw(st.integers(0, k - 1))
    members = [i for i, p in enumerate(producer_of) if p == victim]
    moved = members[: len(members) // 2]
    after_map = [k if i in moved else p for i, p in enumerate(producer_of)]
    after = distance_index(Assignment(producer_of=tuple(after_map), k=k + 1), topo)
    assert after >= before - 1e-12


def _report(jain=1.0, distance=0.5, kpi_alpha=0.5, **more):
    return KpiReport(**{"k": 2, "jain": jain, "distance_index": distance,
                        "kpi_alpha": kpi_alpha, "solver_name": "exhaustive", "energy": 0.0, **more})


def test_combined_kpi_blends_and_collapses():
    assert _report(0.8772, 0.75).kpi == pytest.approx(0.8136, abs=1e-12)
    assert _report(0.3, 0.9, 1.0).kpi == 0.3
    assert _report(0.3, 0.9, 0.0).kpi == 0.9
    with pytest.raises(FairnessError, match="jain"):
        _report(1.2, 0.5)
    with pytest.raises(FairnessError, match="kpi_alpha"):
        _report(0.5, 0.5, -0.1)


def test_kpi_report_rejects_inconsistent_kpi():
    # kpi is derived from its parts, so no report can hold another value
    with pytest.raises(TypeError, match="kpi"):
        _report(1.0, 0.0, kpi=0.9)
    report = _report(assignment=[0, 1])
    doc = report.as_dict()
    assert doc["solver"] == "exhaustive"
    assert doc["assignment"] == [0, 1] and report.assignment == (0, 1)
    assert doc["kpi"] == report.kpi == 0.75
    assert list(doc) == ["k", "solver", "jain", "distance_index", "kpi", "kpi_alpha",
                         "energy", "assignment"]


@pytest.mark.parametrize("change, message", [
    ({"k": 0}, "k must be >= 1, got 0"),
    ({"k": 2.0}, "k must be an integer, got 2.0"),
    ({"jain": float("nan")}, "jain must lie in [0, 1], got NaN"),
    ({"distance_index": -0.25}, "distance_index must lie in [0, 1], got -0.25"),
    ({"kpi_alpha": 1.5}, "kpi_alpha must lie in [0, 1], got 1.5"),
    ({"energy": "0"}, 'energy must be a number, got "0"'),
    ({"solver_name": None}, "solver must be a string, got null"),
    ({"assignment": 3}, "assignment must be a list, got 3"),
    ({"assignment": (0, 2)}, "assignment: node 1 assigned to producer 2, outside 0..1"),
    ({"assignment": (0, -1)}, "assignment: node 1 assigned to producer -1, outside 0..1"),
    ({"assignment": ["0"]}, 'assignment: node 0 must be an integer, got "0"'),
], ids=["k-zero", "k-float", "jain-nan", "distance-negative", "alpha-above-one", "energy-text",
        "solver-null", "assignment-int", "assignment-high", "assignment-negative",
        "assignment-text"])
def test_kpi_report_checks_every_field(change, message):
    with pytest.raises(FairnessError, match=f"^{re.escape(message)}$"):
        _report(**change)


def test_kpi_report_stores_plain_numbers():
    report = _report(np.float64(0.75), 1, k=np.int64(3), energy=np.float32(2.5),
                     assignment=list(np.array([0, 2, 1])))
    assert [type(v) for v in (report.k, report.jain, report.distance_index, report.energy)] == \
        [int, float, float, float]
    assert report.assignment == (0, 2, 1) and report.kpi == 0.5 * 0.75 + 0.5 * 1.0


def test_score_assignment_combines_the_pieces():
    w = normalised([1.0, 1.0, 1.0, 1.0])
    a = Assignment(producer_of=(0, 0, 1, 1), k=2)
    report = score_assignment(a, RING4, w, kpi_alpha=0.25, solver_name="x", energy=2.0)
    assert report.jain == pytest.approx(1.0, abs=1e-12)
    assert report.distance_index == pytest.approx(0.75, abs=1e-15)
    assert report.kpi == pytest.approx(0.25 * report.jain + 0.75 * 0.75, abs=1e-12)
    assert report.k == 2 and report.energy == 2.0
