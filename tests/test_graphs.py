import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heatfair import (
    DistanceRule,
    Topology,
    TopologyError,
    all_pairs_shortest_paths,
    generate_ring,
    generate_tree,
    load_topology,
    save_topology,
)
from heatfair import graphs
from heatfair.graphs import topology_from_dict, topology_to_dict
from oracles import ring_candidates, ring_reference, shortest_paths_brute


def small_random_topology(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    count = int(rng.integers(1, len(pairs) + 1))
    picked = rng.choice(len(pairs), size=count, replace=False)
    edges = tuple(
        (pairs[int(i)][0], pairs[int(i)][1], float(rng.uniform(0.5, 3.0)))
        for i in picked
    )
    return Topology(nodes=n, edges=edges)


def test_edges_normalised_and_sorted():
    topo = Topology(nodes=3, edges=((2, 0, 1.5), (1, 0, 2.0)))
    assert topo.edges == ((0, 1, 2.0), (0, 2, 1.5))


def test_self_loop_rejected_naming_edge():
    with pytest.raises(TopologyError, match="self-loop on node 1"):
        Topology(nodes=3, edges=((1, 1, 1.0),))


def test_duplicate_edge_rejected():
    with pytest.raises(TopologyError, match="duplicate edge between nodes 0 and 1"):
        Topology(nodes=2, edges=((0, 1, 1.0), (1, 0, 2.0)))


def test_edge_outside_range_rejected():
    with pytest.raises(TopologyError, match=r"edge \(0, 5\)"):
        Topology(nodes=3, edges=((0, 5, 1.0),))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_distance_rejected(bad):
    with pytest.raises(TopologyError, match="finite positive distance"):
        Topology(nodes=2, edges=((0, 1, bad),))


def test_label_and_coord_counts_checked():
    with pytest.raises(TopologyError, match="2 labels for 3 nodes"):
        Topology(nodes=3, edges=(), labels=("a", "b"))
    with pytest.raises(TopologyError, match="1 coordinates for 2 nodes"):
        Topology(nodes=2, edges=(), coords=((0.0, 0.0),))


@given(st.integers(0, 400))
def test_shortest_paths_match_path_enumeration(seed):
    topo = small_random_topology(seed, n=6)
    assert np.allclose(
        all_pairs_shortest_paths(topo), shortest_paths_brute(topo), atol=1e-12
    )


def test_shortest_paths_symmetry_and_triangle(suite):
    for entry in suite:
        sp = all_pairs_shortest_paths(entry.topo)
        assert np.array_equal(sp, sp.T)
        n = entry.topo.nodes
        for a, b, c in itertools.product(range(n), repeat=3):
            assert sp[a, c] <= sp[a, b] + sp[b, c] + 1e-9


def test_ring_distances_follow_arc_length():
    topo = generate_ring(9)
    sp = all_pairs_shortest_paths(topo)
    for i in range(9):
        for j in range(9):
            assert sp[i, j] == pytest.approx(min(abs(i - j), 9 - abs(i - j)))


def test_tree_distances_follow_parent_chain():
    topo = generate_tree(10, branching=2)
    sp = all_pairs_shortest_paths(topo)

    def ancestors(i):
        chain = [i]
        while i:
            i = (i - 1) // 2
            chain.append(i)
        return chain

    for u in range(10):
        for v in range(10):
            au, av = ancestors(u), ancestors(v)
            common = next(x for x in au if x in av)
            assert sp[u, v] == pytest.approx(
                au.index(common) + av.index(common)
            )


def test_disconnected_pairs_marked_infinite():
    topo = Topology(nodes=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
    sp = all_pairs_shortest_paths(topo)
    assert np.isinf(sp[0, 2])
    assert np.isfinite(all_pairs_shortest_paths(Topology(nodes=1, edges=()))).all()


def test_overflowed_paths_are_told_apart_from_unreachable_ones():
    far = 1e308
    # a shortest path of two pipes overflows: an error, not "unreachable"
    with pytest.raises(TopologyError, match="longer than the largest float"):
        all_pairs_shortest_paths(Topology(nodes=3, edges=((0, 1, far), (1, 2, far))))
    # the same behind a second component still raises
    with pytest.raises(TopologyError, match="from node 0 to node 2"):
        all_pairs_shortest_paths(
            Topology(nodes=5, edges=((0, 1, far), (1, 2, far), (3, 4, 1.0)))
        )
    # an overflowing detour beside a short pipe is no overflow at all
    sp = all_pairs_shortest_paths(Topology(nodes=3, edges=((0, 1, far), (0, 2, 1.0), (1, 2, far))))
    assert sp[0, 2] == 1.0 and sp[0, 1] == far and sp[1, 2] == far
    # single huge pipes in separate components stay finite, the rest unreachable
    sp = all_pairs_shortest_paths(Topology(nodes=4, edges=((0, 1, far), (2, 3, far))))
    assert sp[0, 1] == far and np.isinf(sp[0, 2])


def test_ring_generator_shapes():
    topo = generate_ring(6)
    assert topo.nodes == 6
    assert topo.num_edges == 6
    withchords = generate_ring(6, chords=2, seed=5)
    assert withchords.num_edges == 8
    assert np.isfinite(all_pairs_shortest_paths(withchords)).all()
    assert topo.coords is not None


def test_ring_chord_budget_enforced():
    # 5 nodes leave 5 non-ring pairs
    generate_ring(5, chords=5)
    with pytest.raises(TopologyError, match="at most 5 chords"):
        generate_ring(5, chords=6)
    with pytest.raises(TopologyError, match=r"^nodes must be >= 3, got 2$"):
        generate_ring(2)


@pytest.mark.parametrize("nodes, chords, seed", [
    (4, 2, 0), (5, 5, 1), (9, 3, 2), (24, 4, 0), (24, 40, 7), (97, 16, 3),
    (160, 26, 11), (300, 2000, 5),
])
def test_ring_chords_equal_the_listed_picks(nodes, chords, seed):
    # a chord's pair comes from its index by arithmetic, not from a list
    # of all ~n^2/2 candidates; the last case makes numpy's choice permute
    candidates = ring_candidates(nodes)
    assert [graphs._chord(t, nodes) for t in range(len(candidates))] == candidates
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    topo = generate_ring(nodes, chords=chords, rule=rule, seed=seed)
    want = ring_reference(nodes, chords, rule, seed)
    assert topo.edges == want.edges and topo.coords == want.coords


def test_ring_past_the_drawable_chord_count_is_refused():
    # 4.3e9 nodes have n(n-3)/2 > 2**63 - 1 candidate chords
    with pytest.raises(TopologyError, match="too large to draw chords"):
        generate_ring(4_300_000_000, chords=1)


def test_large_ring_lists_no_candidate_pairs():
    topo = generate_ring(20000, chords=5, seed=1)
    assert topo.num_edges == 20005
    assert sum(b - a not in (1, 19999) for a, b, _ in topo.edges) == 5


def test_tree_generator_shapes():
    topo = generate_tree(7, branching=2)
    assert topo.nodes == 7
    assert topo.num_edges == 6
    assert np.isfinite(all_pairs_shortest_paths(topo)).all()
    assert generate_tree(5, branching=1).edges == tuple(
        (i, i + 1, 1.0) for i in range(4)
    )
    with pytest.raises(TopologyError, match=r"^nodes must be >= 1, got 0$"):
        generate_tree(0)


def test_generators_are_seed_deterministic():
    rule = DistanceRule(kind="uniform", low=0.5, high=2.0)
    assert generate_ring(8, chords=3, rule=rule, seed=9) == generate_ring(
        8, chords=3, rule=rule, seed=9
    )
    assert generate_tree(8, branching=3, rule=rule, seed=9) == generate_tree(
        8, branching=3, rule=rule, seed=9
    )
    assert generate_ring(8, chords=3, rule=rule, seed=9) != generate_ring(
        8, chords=3, rule=rule, seed=10
    )


def test_distance_rule_validation():
    with pytest.raises(TopologyError, match="unknown distance rule"):
        DistanceRule(kind="gauss")
    with pytest.raises(TopologyError, match="0 < low <= high"):
        DistanceRule(kind="uniform", low=2.0, high=1.0)


@pytest.mark.parametrize("low, high", [(0.5, np.inf), (np.inf, np.inf), (np.nan, 1.0)])
def test_distance_rule_needs_finite_bounds(low, high):
    with pytest.raises(TopologyError, match="finite 0 < low <= high"):
        DistanceRule(kind="uniform", low=low, high=high)


def test_minimal_two_node_round_trip(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(
        '{"nodes": [{"id": 0}, {"id": 1}], '
        '"edges": [{"a": 0, "b": 1, "distance": 3.5}]}'
    )
    topo = load_topology(str(path))
    assert topo.nodes == 2
    assert topo.num_edges == 1


@pytest.mark.parametrize("a, b", [(0, 1.5), (False, True), (0, np.True_), ("0", 1), (0, None)])
def test_direct_construction_rejects_non_integer_endpoints(a, b):
    with pytest.raises(TopologyError, match="edge entry 0: '[ab]' must be an integer, got"):
        Topology(nodes=2, edges=((a, b, 1.0),))


def test_numpy_integer_endpoints_are_stored_as_python_ints(tmp_path):
    topo = Topology(
        nodes=3, edges=((np.int64(2), np.int32(0), 1.5), (np.uint8(1), np.int64(2), 2.0))
    )
    assert topo.edges == ((0, 2, 1.5), (1, 2, 2.0))
    assert all(type(x) is int for a, b, _ in topo.edges for x in (a, b))
    path = tmp_path / "numpy.json"
    save_topology(topo, str(path))
    assert load_topology(str(path)) == topo


def test_save_load_round_trip(suite, tmp_path):
    for i, entry in enumerate(suite):
        path = tmp_path / f"topo{i}.json"
        save_topology(entry.topo, str(path))
        assert load_topology(str(path)) == entry.topo


def test_round_trip_preserves_labels_and_coords(tmp_path):
    topo = Topology(
        nodes=2,
        edges=((0, 1, 2.25),),
        labels=("plant", "school"),
        coords=((0.0, 0.5), (1.0, -1.0)),
    )
    path = tmp_path / "named.json"
    save_topology(topo, str(path))
    assert load_topology(str(path)) == topo


def test_load_reports_file_and_problem(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(
        '{"nodes": [{"id": 0}, {"id": 1}], '
        '"edges": [{"a": 1, "b": 1, "distance": 1.0}]}'
    )
    with pytest.raises(TopologyError, match="loop.json.*self-loop on node 1"):
        load_topology(str(path))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(TopologyError, match="bad.json: not valid JSON"):
        load_topology(str(bad))


def test_unknown_fields_are_ignored():
    doc = {
        "nodes": [{"id": 0, "colour": "red"}],
        "edges": [],
    }
    assert topology_from_dict(doc).nodes == 1


def test_dict_form_validates_ids_and_fields():
    with pytest.raises(TopologyError, match="lacks keys.*edges"):
        topology_from_dict({"nodes": []})
    with pytest.raises(TopologyError, match="ids must be exactly 0..1"):
        topology_from_dict(
            {"nodes": [{"id": 0}, {"id": 5}], "edges": []}
        )
    with pytest.raises(TopologyError, match="entry 0 lacks keys.*distance"):
        topology_from_dict(
            {"nodes": [{"id": 0}, {"id": 1}], "edges": [{"a": 0, "b": 1}]}
        )
    with pytest.raises(TopologyError, match="'x' and 'y' must appear together"):
        topology_from_dict({"nodes": [{"id": 0, "x": 1.0}], "edges": []})
    with pytest.raises(TopologyError, match="only ids \\[0\\] are labelled"):
        topology_from_dict(
            {"nodes": [{"id": 0, "label": "a"}, {"id": 1}], "edges": []}
        )


@pytest.mark.parametrize("label", [None, [1, 2], 7, True])
def test_dict_form_label_must_be_a_string(label):
    # a label that is not a JSON string is refused, not read as its str()
    nodes = [{"id": 0, "label": "plant"}, {"id": 1, "label": label}]
    with pytest.raises(TopologyError, match=re.escape(
            f"node entry 1: label must be a string, got {json.dumps(label)}")):
        topology_from_dict({"nodes": nodes, "edges": []})


def test_dict_form_labels_and_positions_every_node_or_none():
    three = [{"id": 0}, {"id": 1}, {"id": 2}]
    with pytest.raises(TopologyError, match=re.escape(
            "either label every node or none; only ids [0, 2] are labelled")):
        topology_from_dict({"nodes": [{**three[0], "label": "a"}, three[1],
                                      {**three[2], "label": "c"}], "edges": []})
    with pytest.raises(TopologyError, match=re.escape(
            "either position every node or none; only ids [1] have coords")):
        topology_from_dict({"nodes": [three[0], {**three[1], "x": 1.0, "y": 2.0}, three[2]],
                            "edges": []})
    whole = topology_from_dict({"nodes": [{**n, "label": f"n{n['id']}", "x": 0.0, "y": n["id"]}
                                          for n in three], "edges": []})
    assert whole.labels == ("n0", "n1", "n2") and whole.coords == ((0.0, 0.0), (0.0, 1.0), (0.0, 2.0))
    assert topology_from_dict({"nodes": three, "edges": []}).labels is None


@pytest.mark.parametrize(
    "field, bad",
    [("b", 1.5), ("b", True), ("a", "0"), ("a", None), ("distance", "1.0"),
     ("distance", False), ("distance", 10**400)],
    ids=["float", "bool", "string", "null", "string-distance", "bool-distance",
         "huge-distance"],
)
def test_dict_form_rejects_non_integer_endpoints_and_non_numeric_distances(field, bad):
    edge = {"a": 0, "b": 1, "distance": 1.0}
    edge[field] = bad
    doc = {"nodes": [{"id": 0}, {"id": 1}, {"id": 2}], "edges": [{"a": 1, "b": 2, "distance": 1.0}, edge]}
    with pytest.raises(TopologyError, match=f"edge entry 1: '?{field}'? must be"):
        topology_from_dict(doc)
    with pytest.raises(TopologyError, match="node entry 0: x must be a number"):
        topology_from_dict({"nodes": [{"id": 0, "x": "1", "y": 0.0}], "edges": []})


def test_dict_form_is_stable(suite):
    entry = suite[3]
    doc = topology_to_dict(entry.topo)
    assert topology_from_dict(doc) == entry.topo
