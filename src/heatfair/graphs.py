"""Network topologies for heat distribution.

A topology is an undirected graph whose nodes are consumer substations
and whose edges are pipe segments carrying a positive length in meters.
Everything downstream (cost construction, fairness scoring) reads the
edge list normalised here, so this module is the single place where
node ordering and edge normalisation are decided: edges are stored with
the smaller endpoint first and sorted lexicographically.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from .ioutil import number, read_json, shown, write_json


class TopologyError(ValueError):
    """Raised when a graph description is structurally invalid."""


@dataclasses.dataclass(frozen=True)
class DistanceRule:
    """How synthetic generators draw pipe lengths.

    kind "unit" pins every edge to 1.0; kind "uniform" draws from
    [low, high) with the generator's seed.
    """

    kind: str = "unit"
    low: float = 0.5
    high: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("unit", "uniform"):
            raise TopologyError(f"unknown distance rule kind {self.kind!r}")
        for name in ("low", "high"):
            object.__setattr__(self, name, number(getattr(self, name), name, TopologyError))
        if self.kind == "uniform":
            if not (0.0 < self.low <= self.high < math.inf):
                raise TopologyError(
                    f"uniform distance rule needs finite 0 < low <= high, got "
                    f"low={self.low!r} high={self.high!r}"
                )

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones(count)
        return rng.uniform(self.low, self.high, size=count)


@dataclasses.dataclass(frozen=True)
class Topology:
    """Undirected pipe network with strictly positive edge distances.

    nodes: number of substations, indexed 0..nodes-1.
    edges: tuple of (a, b, distance) with a < b, no duplicates.
    labels: optional display names, one per node.
    coords: optional (x, y) positions for plotting, one per node.
    Counts and ends are stored as ints, distances and positions as
    floats, each checked by ioutil.number (so a NumPy integer passes
    and a bool does not).
    """

    nodes: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
    coords: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", number(self.nodes, "nodes", TopologyError, integer=True, least=1))
        seen: set[tuple[int, int]] = set()
        normalised = []
        for pos, (a, b, dist) in enumerate(self.edges):
            a = number(a, f"edge entry {pos}: 'a'", TopologyError, integer=True)
            b = number(b, f"edge entry {pos}: 'b'", TopologyError, integer=True)
            dist = number(dist, f"edge entry {pos}: distance", TopologyError)
            if not (0 <= a < self.nodes) or not (0 <= b < self.nodes):
                raise TopologyError(
                    f"edge ({a}, {b}) references a node outside 0..{self.nodes - 1}"
                )
            if a == b:
                raise TopologyError(f"self-loop on node {a} is not allowed")
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise TopologyError(f"duplicate edge between nodes {a} and {b}")
            seen.add((a, b))
            if not math.isfinite(dist) or dist <= 0.0:
                raise TopologyError(
                    f"edge ({a}, {b}) needs a finite positive distance, got {dist!r}"
                )
            normalised.append((a, b, dist))
        normalised.sort()
        object.__setattr__(self, "edges", tuple(normalised))
        if self.labels is not None:
            if len(self.labels) != self.nodes:
                raise TopologyError(
                    f"got {len(self.labels)} labels for {self.nodes} nodes"
                )
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if self.coords is not None:
            if len(self.coords) != self.nodes:
                raise TopologyError(
                    f"got {len(self.coords)} coordinates for {self.nodes} nodes"
                )
            object.__setattr__(self, "coords", tuple(
                (number(x, f"node {i}: x", TopologyError), number(y, f"node {i}: y", TopologyError))
                for i, (x, y) in enumerate(self.coords)
            ))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def all_pairs_shortest_paths(topo: Topology) -> np.ndarray:
    """Shortest pipe distance between every node pair (Floyd-Warshall).

    Unreachable pairs hold np.inf; the diagonal is 0. A reachable pair
    whose shortest path is longer than the largest float raises
    TopologyError rather than pass for unreachable.
    """
    dist = _floyd_warshall(topo.nodes, topo.edges)
    if np.isinf(dist).any():
        hops = _floyd_warshall(topo.nodes, [(a, b, 1.0) for a, b, _ in topo.edges])
        far = np.argwhere(np.isinf(dist) & np.isfinite(hops))
        if far.size:
            a, b = far[0].tolist()
            raise TopologyError(
                f"the shortest path from node {a} to node {b} is longer than "
                "the largest float; scale the pipe lengths down"
            )
    return dist


def _floyd_warshall(n: int, edges) -> np.ndarray:
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, d in edges:  # a Topology's: no self-loops, no parallel edges
        dist[a, b] = dist[b, a] = d
    with np.errstate(over="ignore"):  # an overflowed sum is inf; the caller tells it apart
        for via in range(n):
            np.minimum(dist, dist[:, via, None] + dist[None, via, :], out=dist)
    return dist


def generate_tree(
    nodes: int,
    branching: int = 2,
    rule: DistanceRule = DistanceRule(),
    seed: int = 0,
) -> Topology:
    """Rooted tree where node i attaches to (i - 1) // branching.

    branching=1 degenerates to a path. Coordinates lay nodes out in
    layers by depth for plotting.
    """
    nodes = number(nodes, "nodes", TopologyError, integer=True, least=1)
    branching = number(branching, "branching", TopologyError, integer=True, least=1)
    rng = np.random.default_rng(number(seed, "seed", TopologyError, integer=True, least=0))
    dists = rule.draw(rng, max(nodes - 1, 0))
    # ids run level by level: a level is the run of ids from first[depth]
    edges, depth, first = [], [0] * nodes, {0: 0}
    for i in range(1, nodes):
        parent = (i - 1) // branching
        edges.append((parent, i, float(dists[i - 1])))
        depth[i] = depth[parent] + 1
        first.setdefault(depth[i], i)
    width = collections.Counter(depth)
    coords = tuple(((i - first[d] + 0.5) / width[d], -float(d)) for i, d in enumerate(depth))
    return Topology(nodes=nodes, edges=tuple(edges), coords=coords)


def generate_ring(
    nodes: int,
    chords: int = 0,
    rule: DistanceRule = DistanceRule(),
    seed: int = 0,
) -> Topology:
    """Cycle 0-1-..-(n-1)-0 plus `chords` extra non-ring edges.

    Chord endpoints are drawn uniformly without replacement from the
    pairs not already on the ring. Coordinates place nodes on a unit
    circle.
    """
    nodes = number(nodes, "nodes", TopologyError, integer=True, least=3)
    chords = number(chords, "chords", TopologyError, integer=True, least=0)
    seed = number(seed, "seed", TopologyError, integer=True, least=0)
    candidates = nodes * (nodes - 3) // 2
    if chords > candidates:
        raise TopologyError(
            f"ring of {nodes} nodes admits at most {candidates} chords, "
            f"got {chords}"
        )
    if chords and candidates > np.iinfo(np.int64).max:  # past what rng.choice can draw from
        raise TopologyError(f"ring of {nodes} nodes is too large to draw chords for")
    rng = np.random.default_rng(seed)
    picked = rng.choice(candidates, size=chords, replace=False).tolist() if chords else []
    # drawn before any list is built, so a ring too large to hold fails
    # in this one allocation
    dists = rule.draw(rng, nodes + chords)
    pairs = [(a, (a + 1) % nodes) for a in range(nodes)]
    pairs.extend(_chord(t, nodes) for t in picked)
    edges = tuple(
        (min(a, b), max(a, b), float(d)) for (a, b), d in zip(pairs, dists)
    )
    coords = tuple(
        (math.cos(2.0 * math.pi * i / nodes), math.sin(2.0 * math.pi * i / nodes))
        for i in range(nodes)
    )
    return Topology(nodes=nodes, edges=edges, coords=coords)


def _chord(t: int, nodes: int) -> tuple[int, int]:
    """The t-th pair (a, b), a < b, of a ring's nodes that is not a ring
    edge, in lexicographic order. Node 0 has nodes - 3 such pairs; node
    a >= 1 has s = nodes - a - 2, so counted from the last pair those
    rows hold 1, 2, 3, ... pairs, and row s starts at s * (s - 1) / 2."""
    if t < nodes - 3:
        return 0, t + 2
    r = (nodes - 3) * (nodes - 2) // 2 - 1 - (t - (nodes - 3))
    s = (1 + math.isqrt(1 + 8 * r)) // 2
    return nodes - 2 - s, nodes - 1 - (r - s * (s - 1) // 2)


def topology_to_dict(topo: Topology) -> dict:
    node_entries = []
    for i in range(topo.nodes):
        entry: dict = {"id": i}
        if topo.labels is not None:
            entry["label"] = topo.labels[i]
        if topo.coords is not None:
            entry["x"] = topo.coords[i][0]
            entry["y"] = topo.coords[i][1]
        node_entries.append(entry)
    edge_entries = [
        {"a": a, "b": b, "distance": dist} for a, b, dist in topo.edges
    ]
    return {"nodes": node_entries, "edges": edge_entries}


def topology_from_dict(data: dict) -> Topology:
    """Reconstruct a topology from its JSON form; unknown keys are
    ignored."""
    if not isinstance(data, dict):
        raise TopologyError("topology document must be a JSON object")
    missing = {"nodes", "edges"} - set(data)
    if missing:
        raise TopologyError(f"topology document lacks keys: {sorted(missing)}")
    raw_nodes = data["nodes"]
    raw_edges = data["edges"]
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise TopologyError("'nodes' and 'edges' must both be arrays")

    ids = []
    labels: dict[int, str] = {}
    coords: dict[int, tuple[float, float]] = {}
    for pos, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or "id" not in entry:
            raise TopologyError(f"node entry {pos} needs an 'id' field")
        nid = number(entry["id"], f"node entry {pos}: id", TopologyError, integer=True)
        ids.append(nid)
        if "label" in entry:
            if not isinstance(entry["label"], str):
                raise TopologyError(f"node entry {pos}: label must be a string, got {shown(entry['label'])}")
            labels[nid] = entry["label"]
        if ("x" in entry) != ("y" in entry):
            raise TopologyError(
                f"node entry {pos}: 'x' and 'y' must appear together"
            )
        if "x" in entry:
            coords[nid] = tuple(number(entry[c], f"node entry {pos}: {c}", TopologyError) for c in "xy")

    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise TopologyError(
            f"node ids must be exactly 0..{n - 1} with no gaps, got {sorted(ids)}"
        )
    edges = []
    for pos, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise TopologyError(f"edge entry {pos} must be an object")
        missing = {"a", "b", "distance"} - set(entry)
        if missing:
            raise TopologyError(f"edge entry {pos} lacks keys: {sorted(missing)}")
        edges.append((entry["a"], entry["b"], entry["distance"]))  # Topology checks them

    whole = {}  # labels and coords: every node has one, or none does
    for field, found, verb, have in (("labels", labels, "label", "are labelled"),
                                     ("coords", coords, "position", "have coords")):
        if found and len(found) != n:
            raise TopologyError(f"either {verb} every node or none; only ids {sorted(found)} {have}")
        whole[field] = tuple(found[i] for i in range(n)) if found else None
    return Topology(nodes=n, edges=tuple(edges), **whole)


def save_topology(topo: Topology, path: str) -> None:
    write_json(path, topology_to_dict(topo))


def load_topology(path: str) -> Topology:
    data = read_json(path, TopologyError)
    try:
        return topology_from_dict(data)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
