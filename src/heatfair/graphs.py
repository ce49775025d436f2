"""Network topologies for heat distribution.

A topology is an undirected graph whose nodes are consumer substations
and whose edges are pipe segments carrying a positive length in meters.
Everything downstream (cost construction, fairness scoring) reads the
edge list normalised here, so this module is the single place where
node ordering and edge normalisation are decided: edges are stored with
the smaller endpoint first and sorted lexicographically.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .ioutil import atomic_write_text


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
        if self.kind == "uniform":
            if not (0.0 < self.low <= self.high):
                raise TopologyError(
                    f"uniform distance rule needs 0 < low <= high, got "
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
    """

    nodes: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...] | None = None
    coords: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise TopologyError(f"topology needs at least one node, got {self.nodes}")
        seen: set[tuple[int, int]] = set()
        normalised = []
        for a, b, dist in self.edges:
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
            dist = float(dist)
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
            object.__setattr__(
                self,
                "coords",
                tuple((float(x), float(y)) for x, y in self.coords),
            )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def node_label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)


def all_pairs_shortest_paths(topo: Topology) -> np.ndarray:
    """Shortest pipe distance between every node pair (Floyd-Warshall).

    Unreachable pairs hold np.inf; the diagonal is 0.
    """
    n = topo.nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, d in topo.edges:
        # parallel edges are rejected upstream, min() guards anyway
        dist[a, b] = min(dist[a, b], d)
        dist[b, a] = dist[a, b]
    for via in range(n):
        np.minimum(dist, dist[:, via, None] + dist[None, via, :], out=dist)
    return dist


def is_connected(topo: Topology) -> bool:
    if topo.nodes == 1:
        return True
    return bool(np.all(np.isfinite(all_pairs_shortest_paths(topo))))


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
    if nodes < 1:
        raise TopologyError(f"tree needs at least one node, got {nodes}")
    if branching < 1:
        raise TopologyError(f"branching factor must be >= 1, got {branching}")
    rng = np.random.default_rng(seed)
    dists = rule.draw(rng, max(nodes - 1, 0))
    edges = []
    for i in range(1, nodes):
        parent = (i - 1) // branching
        edges.append((parent, i, float(dists[i - 1])))

    depth = [0] * nodes
    for i in range(1, nodes):
        depth[i] = depth[(i - 1) // branching] + 1
    per_level: dict[int, int] = {}
    order_in_level = []
    for i in range(nodes):
        order_in_level.append(per_level.get(depth[i], 0))
        per_level[depth[i]] = order_in_level[-1] + 1
    coords = []
    for i in range(nodes):
        width = per_level[depth[i]]
        x = (order_in_level[i] + 0.5) / width
        coords.append((x, -float(depth[i])))
    return Topology(nodes=nodes, edges=tuple(edges), coords=tuple(coords))


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
    if nodes < 3:
        raise TopologyError(f"ring needs at least three nodes, got {nodes}")
    if chords < 0:
        raise TopologyError(f"chord count must be >= 0, got {chords}")
    candidates = [
        (a, b)
        for a in range(nodes)
        for b in range(a + 1, nodes)
        if b - a != 1 and not (a == 0 and b == nodes - 1)
    ]
    if chords > len(candidates):
        raise TopologyError(
            f"ring of {nodes} nodes admits at most {len(candidates)} chords, "
            f"got {chords}"
        )
    rng = np.random.default_rng(seed)
    pairs = [(a, (a + 1) % nodes) for a in range(nodes)]
    if chords:
        picked = rng.choice(len(candidates), size=chords, replace=False)
        pairs.extend(candidates[int(i)] for i in picked)
    dists = rule.draw(rng, len(pairs))
    edges = tuple(
        (min(a, b), max(a, b), float(d)) for (a, b), d in zip(pairs, dists)
    )
    coords = tuple(
        (math.cos(2.0 * math.pi * i / nodes), math.sin(2.0 * math.pi * i / nodes))
        for i in range(nodes)
    )
    return Topology(nodes=nodes, edges=edges, coords=coords)


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


def topology_from_dict(data: dict, strict: bool = False) -> Topology:
    """Reconstruct a topology from its JSON form.

    strict=True rejects unknown keys instead of ignoring them.
    """
    if not isinstance(data, dict):
        raise TopologyError("topology document must be a JSON object")
    missing = {"nodes", "edges"} - set(data)
    if missing:
        raise TopologyError(f"topology document lacks keys: {sorted(missing)}")
    if strict:
        extra = set(data) - {"nodes", "edges"}
        if extra:
            raise TopologyError(f"unknown top-level keys: {sorted(extra)}")
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
        if strict:
            extra = set(entry) - {"id", "label", "x", "y"}
            if extra:
                raise TopologyError(
                    f"node entry {pos} has unknown keys: {sorted(extra)}"
                )
        nid = entry["id"]
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise TopologyError(f"node entry {pos}: id must be an integer")
        ids.append(nid)
        if "label" in entry:
            labels[nid] = str(entry["label"])
        if ("x" in entry) != ("y" in entry):
            raise TopologyError(
                f"node entry {pos}: 'x' and 'y' must appear together"
            )
        if "x" in entry:
            coords[nid] = (float(entry["x"]), float(entry["y"]))

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
        if strict:
            extra = set(entry) - {"a", "b", "distance"}
            if extra:
                raise TopologyError(
                    f"edge entry {pos} has unknown keys: {sorted(extra)}"
                )
        edges.append((entry["a"], entry["b"], entry["distance"]))

    label_tuple = None
    if labels:
        if len(labels) != n:
            have = sorted(labels)
            raise TopologyError(
                f"either label every node or none; only ids {have} are labelled"
            )
        label_tuple = tuple(labels[i] for i in range(n))
    coord_tuple = None
    if coords:
        if len(coords) != n:
            have = sorted(coords)
            raise TopologyError(
                f"either position every node or none; only ids {have} have coords"
            )
        coord_tuple = tuple(coords[i] for i in range(n))
    return Topology(nodes=n, edges=tuple(edges), labels=label_tuple, coords=coord_tuple)


def save_topology(topo: Topology, path: str) -> None:
    atomic_write_text(path, json.dumps(topology_to_dict(topo), indent=2) + "\n")


def load_topology(path: str, strict: bool = False) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return topology_from_dict(data, strict=strict)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
