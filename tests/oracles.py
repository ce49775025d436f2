"""Independent reference implementations used to pin expected values.

Everything here recomputes results from first principles through
different routes than the package (dense distance and Laplacian
matrices instead of edge lists, path enumeration instead of
Floyd-Warshall, raw term summation instead of coefficient assembly),
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from heatfair import (
    DistanceRule,
    Topology,
    WeightVector,
    compute_weights,
    generate_ring,
    generate_tree,
    synthetic_demands,
)


def distance_matrix_direct(topo: Topology) -> np.ndarray:
    """Zero-diagonal matrix holding each edge's distance, placed entry
    by entry (no incidence algebra)."""
    m = np.zeros((topo.nodes, topo.nodes))
    for a, b, dist in topo.edges:
        m[a, b] = dist
        m[b, a] = dist
    return m


def laplacian_direct(topo: Topology) -> np.ndarray:
    n = topo.nodes
    lap = np.zeros((n, n))
    for a, b, _ in topo.edges:
        lap[a, a] += 1
        lap[b, b] += 1
        lap[a, b] -= 1
        lap[b, a] -= 1
    return lap


def bits_to_x(bits, n: int, k: int) -> np.ndarray:
    """Variable layout var = j*n + i unpacked into an (n, k) matrix."""
    vec = np.asarray(bits).ravel()
    return vec.reshape(k, n).T


def modified_cost_direct(topo, weights, k, beta, alpha, gamma, x) -> float:
    """Plain-python evaluation of the weighted objective at one (n, k)
    binary matrix: distance coupling + balance squares + one-hot squares."""
    n = topo.nodes
    w = [float(v) for v in np.asarray(weights).ravel()]
    alpha = [float(a) for a in np.broadcast_to(alpha, (k,))]
    gamma = [float(g) for g in np.broadcast_to(gamma, (n,))]
    m = distance_matrix_direct(topo)
    total_w = sum(w)
    target = total_w / k
    cost = 0.0
    for j in range(k):
        for u in range(n):
            for v in range(n):
                cost += beta * float(m[u, v]) * float(x[u, j]) * float(x[v, j])
    for j in range(k):
        load = sum(w[i] * float(x[i, j]) for i in range(n))
        cost += alpha[j] * (load - target) ** 2
    for i in range(n):
        picks = sum(float(x[i, j]) for j in range(k))
        cost += gamma[i] * (picks - 1.0) ** 2
    return cost


def modified_cost_batch(topo, weights, k, beta, alpha, gamma, x_batch) -> np.ndarray:
    """Vectorised form of modified_cost_direct for (rows, n, k) batches."""
    n = topo.nodes
    w = np.asarray(weights, dtype=float).ravel()
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (k,))
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,))
    m = distance_matrix_direct(topo)
    target = float(w.sum()) / k
    x = np.asarray(x_batch, dtype=float)
    cost = np.zeros(x.shape[0])
    for j in range(k):
        xj = x[:, :, j]
        cost += beta * ((xj @ m) * xj).sum(axis=1)
    loads = np.einsum("rij,i->rj", x, w)
    cost += ((loads - target) ** 2 * alpha).sum(axis=1)
    picks = x.sum(axis=2)
    cost += ((picks - 1.0) ** 2 * gamma).sum(axis=1)
    return cost


def unweighted_cost_direct(topo, k, beta, alpha, gamma, x) -> float:
    """Plain-python evaluation of the node-count objective: Laplacian
    coupling + count balance + one-hot squares."""
    n = topo.nodes
    alpha = [float(a) for a in np.broadcast_to(alpha, (k,))]
    gamma = [float(g) for g in np.broadcast_to(gamma, (n,))]
    lap = laplacian_direct(topo)
    target = n / k
    cost = 0.0
    for j in range(k):
        for u in range(n):
            for v in range(n):
                cost += beta * float(lap[u, v]) * float(x[u, j]) * float(x[v, j])
    for j in range(k):
        count = sum(float(x[i, j]) for i in range(n))
        cost += alpha[j] * (count - target) ** 2
    for i in range(n):
        picks = sum(float(x[i, j]) for j in range(k))
        cost += gamma[i] * (picks - 1.0) ** 2
    return cost


def qubo_energy_direct(linear, quadratic, offset, bits) -> float:
    vec = [float(b) for b in np.asarray(bits).ravel()]
    total = float(offset)
    for v, coeff in linear.items():
        total += coeff * vec[v]
    for (a, b), coeff in quadratic.items():
        total += coeff * vec[a] * vec[b]
    return total


def accumulated_terms(topo, weights, k, beta, alpha, gamma, unweighted=False):
    """QUBO coefficients added one term at a time: graph term, balance,
    one-hot, dropping sums that cancel to zero. Returns (linear items,
    quadratic items, offset) in insertion order, the order and float
    arithmetic that the package's stored energies are pinned to."""
    n = topo.nodes
    w = [1.0] * n if unweighted else [float(v) for v in np.asarray(weights).ravel()]
    alpha = [float(a) for a in np.broadcast_to(alpha, (k,))]
    gamma = [float(g) for g in np.broadcast_to(gamma, (n,))]
    target = n / k if unweighted else float(np.sum(weights)) / k
    degree = [0] * n
    for a, b, _ in topo.edges:
        degree[a] += 1
        degree[b] += 1
    linear: dict = {}
    quadratic: dict = {}

    def add(store, key, value):
        store[key] = store.get(key, 0.0) + value

    offset = 0.0
    for j in range(k):
        for i in range(n):
            if unweighted and degree[i]:
                add(linear, j * n + i, beta * degree[i])
        for a, b, dist in topo.edges:
            add(quadratic, (j * n + a, j * n + b), -2.0 * beta if unweighted else 2.0 * beta * dist)
    for j in range(k):
        for i in range(n):
            add(linear, j * n + i, alpha[j] * (w[i] * w[i] - 2.0 * target * w[i]))
        for u in range(n):
            for v in range(u + 1, n):
                add(quadratic, (j * n + u, j * n + v), 2.0 * alpha[j] * w[u] * w[v])
        offset += alpha[j] * target * target
    for i in range(n):
        for j in range(k):
            add(linear, j * n + i, -gamma[i])
        for j1 in range(k):
            for j2 in range(j1 + 1, k):
                add(quadratic, (j1 * n + i, j2 * n + i), 2.0 * gamma[i])
        offset += gamma[i]
    return (
        [(v, c) for v, c in linear.items() if c != 0.0],
        [(key, c) for key, c in quadratic.items() if c != 0.0],
        offset,
    )


def shortest_paths_brute(topo: Topology) -> np.ndarray:
    """All-pairs shortest distances by enumerating simple paths with a
    depth-first walk. Exponential; keep n small."""
    n = topo.nodes
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, dist in topo.edges:
        adj[a].append((b, dist))
        adj[b].append((a, dist))
    best = np.full((n, n), np.inf)
    np.fill_diagonal(best, 0.0)

    def walk(source, node, seen, length):
        if length < best[source, node]:
            best[source, node] = length
        for nxt, dist in adj[node]:
            if nxt not in seen:
                walk(source, nxt, seen | {nxt}, length + dist)

    for source in range(n):
        walk(source, source, {source}, 0.0)
    return best


def all_bit_vectors(num_vars: int) -> np.ndarray:
    codes = np.arange(2**num_vars, dtype=np.int64)
    return (codes[:, None] >> np.arange(num_vars)) & 1


def feasible_assignments(n: int, k: int):
    """All k^n producer vectors in lexicographic order."""
    return itertools.product(range(k), repeat=n)


def internal_and_cut(topo: Topology, producer_of) -> tuple[float, int, int]:
    """(total internal edge distance, internal edge count, cut edge
    count) for a feasible assignment, by direct edge inspection."""
    internal_dist = 0.0
    internal = 0
    cut = 0
    for a, b, dist in topo.edges:
        if producer_of[a] == producer_of[b]:
            internal_dist += dist
            internal += 1
        else:
            cut += 1
    return internal_dist, internal, cut


@dataclasses.dataclass(frozen=True)
class SuiteEntry:
    name: str
    topo: Topology
    weights: WeightVector


_RINGS = [(4, 0), (5, 1), (6, 0), (6, 2), (7, 1), (8, 0), (8, 3), (5, 0), (7, 3), (8, 5)]
_TREES = [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 2), (8, 3), (8, 2), (6, 1), (7, 3)]


def build_suite() -> list[SuiteEntry]:
    """20 seeded desk-scale topologies (n <= 8) with heterogeneous
    demand-derived weights, alternating unit and uniform distances."""
    entries = []
    for idx, (n, chords) in enumerate(_RINGS):
        rule = (
            DistanceRule()
            if idx % 2 == 0
            else DistanceRule(kind="uniform", low=0.5, high=2.0)
        )
        topo = generate_ring(n, chords=chords, rule=rule, seed=100 + idx)
        demands = synthetic_demands(n, timesteps=48, seed=200 + idx, anchor_scale=3.0)
        entries.append(
            SuiteEntry(
                name=f"ring{n}c{chords}s{100 + idx}",
                topo=topo,
                weights=compute_weights(demands),
            )
        )
    for idx, (n, branching) in enumerate(_TREES):
        rule = (
            DistanceRule()
            if idx % 2 == 1
            else DistanceRule(kind="uniform", low=0.5, high=2.0)
        )
        topo = generate_tree(n, branching=branching, rule=rule, seed=110 + idx)
        demands = synthetic_demands(n, timesteps=48, seed=220 + idx, anchor_scale=3.0)
        entries.append(
            SuiteEntry(
                name=f"tree{n}b{branching}s{110 + idx}",
                topo=topo,
                weights=compute_weights(demands),
            )
        )
    return entries
