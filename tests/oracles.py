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


def repair_reference(linear, quadratic, offset, n, k, weights, alpha, ends, edge_coeff,
                     bits) -> list[int]:
    """Repair of any bit vector (nonzero entries set) to one producer per
    node, scored on the QUBO dicts. Nodes go in index order; a node with
    exactly one set bit keeps it. Otherwise each candidate producer (the
    set ones, or all k) is scored by the QUBO energy with the node's
    bits cleared and that one set, every other bit as it stands, and the
    first candidate within 1e-9 of the node's field scale of the lowest
    wins. The field scale is 2*alpha*w_i*W + the |edge coefficients| at
    i, W the total weight."""
    state = [1.0 if b else 0.0 for b in np.asarray(bits).ravel()]
    w = [float(v) for v in weights]
    edge_scale = [0.0] * n
    for (u, v), coeff in zip(ends, edge_coeff):
        edge_scale[int(u)] += abs(float(coeff))
        edge_scale[int(v)] += abs(float(coeff))
    producer_of = []
    for i in range(n):
        held = [j for j in range(k) if state[j * n + i]]
        if len(held) == 1:
            producer_of.append(held[0])
            continue
        candidates = held or list(range(k))
        scores = []
        for j in candidates:
            for j2 in range(k):
                state[j2 * n + i] = 0.0
            state[j * n + i] = 1.0
            scores.append(qubo_energy_direct(linear, quadratic, offset, state))
        bar = min(scores) + 1e-9 * (2.0 * alpha * w[i] * sum(w) + edge_scale[i])
        best = next(j for j, score in zip(candidates, scores) if score <= bar)
        for j2 in range(k):
            state[j2 * n + i] = 0.0
        state[best * n + i] = 1.0
        producer_of.append(best)
    return producer_of


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


def relocate_delta(i, dest, producer_of, loads, neighbours, weights, beta, alpha, target):
    """Objective change of moving node i to producer dest, summed term
    by term in neighbour-list order."""
    src = producer_of[i]
    delta = 0.0
    for u, dist in neighbours[i]:
        if producer_of[u] == dest:
            delta += 2.0 * beta * dist
        elif producer_of[u] == src:
            delta -= 2.0 * beta * dist
    wi = weights[i]
    delta += alpha[dest] * ((loads[dest] + wi - target) ** 2 - (loads[dest] - target) ** 2)
    delta += alpha[src] * ((loads[src] - wi - target) ** 2 - (loads[src] - target) ** 2)
    return delta


def swap_delta(i, j, producer_of, loads, neighbours, weights, beta, alpha, target):
    """Objective change of swapping the producers of nodes i and j."""
    a, b = producer_of[i], producer_of[j]
    delta = 0.0
    for u, dist in neighbours[i]:
        if u == j:
            continue  # the (i, j) edge stays cross-producer under a swap
        if producer_of[u] == b:
            delta += 2.0 * beta * dist
        elif producer_of[u] == a:
            delta -= 2.0 * beta * dist
    for u, dist in neighbours[j]:
        if u == i:
            continue
        if producer_of[u] == a:
            delta += 2.0 * beta * dist
        elif producer_of[u] == b:
            delta -= 2.0 * beta * dist
    wi, wj = weights[i], weights[j]
    new_a = loads[a] - wi + wj
    new_b = loads[b] - wj + wi
    delta += alpha[a] * ((new_a - target) ** 2 - (loads[a] - target) ** 2)
    delta += alpha[b] * ((new_b - target) ** 2 - (loads[b] - target) ** 2)
    return delta


def local_search_reference(producer_of, loads, neighbours, weights, beta, alpha, target):
    """Scalar best-improvement relocate/swap descent from one start.

    Scans relocations over (node, producer), then swaps over i < j, both
    row-major; a move must beat the best so far strictly, starting from
    -1e-12. Returns (final producer_of, final loads, moves applied).
    Inputs are plain lists (neighbours[i] holds (u, dist) pairs); none
    is mutated.
    """
    producer_of, loads = list(producer_of), list(loads)
    n, k = len(producer_of), len(loads)
    args = (neighbours, weights, beta, alpha, target)
    moves = 0
    while True:
        best_delta = -1e-12
        best_move = None
        for i in range(n):
            for dest in range(k):
                if dest == producer_of[i]:
                    continue
                delta = relocate_delta(i, dest, producer_of, loads, *args)
                if delta < best_delta:
                    best_delta = delta
                    best_move = ("relocate", i, dest)
        for i in range(n):
            for j in range(i + 1, n):
                if producer_of[i] == producer_of[j]:
                    continue
                delta = swap_delta(i, j, producer_of, loads, *args)
                if delta < best_delta:
                    best_delta = delta
                    best_move = ("swap", i, j)
        if best_move is None:
            return producer_of, loads, moves
        moves += 1
        if best_move[0] == "relocate":
            _, i, dest = best_move
            loads[producer_of[i]] -= weights[i]
            loads[dest] += weights[i]
            producer_of[i] = dest
        else:
            _, i, j = best_move
            a, b = producer_of[i], producer_of[j]
            loads[a] += weights[j] - weights[i]
            loads[b] += weights[i] - weights[j]
            producer_of[i], producer_of[j] = b, a


def anneal_reference(ends, edge_coeff, node_linear, weights, target, alpha, gamma, k,
                     sweeps, restarts, seed, schedule="geometric", t_initial=None,
                     t_final=None):
    """Single-bit-flip Metropolis annealing on an objective's arrays, one
    proposal at a time: each restart's lowest raw-energy bits (floats
    0.0 and 1.0), in restart order, drawing from the same seeded streams
    as the package.

    The field of (i, j) is lin_i + S[j*n + i] + 2*alpha*w_i*(L_j -
    w_i*x) + 2*gamma*(c_i - x) from running sums: S the edge coefficients
    of i's neighbours at j, L_j the weight at j, c_i the bits set at i.
    A flip moves each by its coefficient times the flip's sign. A
    restart's energy starts at the objective's constant (k copies of
    alpha*target^2, then n of gamma, added one by one) and takes the
    field of every start bit, switched on in variable order. Temperatures
    of None mean t_initial = the largest single-flip reach, |linear| plus
    the |coupling| sum of a variable's QUBO row in column order, each
    coupling built as the builder expands it, and t_final = 1e-4 of it.
    """
    n = len(weights)
    nv = n * k
    w = [float(v) for v in weights]
    ends = [(int(u), int(v)) for u, v in ends]
    edge_coeff = [float(v) for v in edge_coeff]
    neighbours = [[] for _ in range(n)]
    for (u, v), coeff in zip(ends, edge_coeff):
        neighbours[u].append((v, coeff))
        neighbours[v].append((u, coeff))
    lin = [(float(node_linear[i]) + alpha * (w[i] * w[i] - 2.0 * target * w[i])) - gamma
           for i in range(n)]
    if t_initial is None:
        on_edge = dict(zip(ends, edge_coeff))
        reach = []
        for j in range(k):
            for i in range(n):
                total = 0.0
                for col in range(nv):
                    j2, u = divmod(col, n)
                    if col == j * n + i:
                        continue
                    if j2 != j:
                        coeff = 2.0 * gamma if u == i else 0.0
                    else:
                        a, b = min(i, u), max(i, u)
                        coeff = 2.0 * alpha * w[a] * w[b]
                        if (a, b) in on_edge:
                            coeff = on_edge[(a, b)] + coeff
                    total += abs(coeff)
                reach.append(abs(lin[i]) + total)
        t_initial = max(reach)
        if t_initial <= 0.0:
            t_initial = 1.0
        t_final = 1e-4 * t_initial
    if sweeps == 1:
        temps = [t_initial]
    elif schedule == "geometric":
        temps = np.geomspace(t_initial, t_final, sweeps).tolist()
    else:
        temps = np.linspace(t_initial, t_final, sweeps).tolist()
    constant = 0.0
    for term in [alpha * target * target] * k + [gamma] * n:
        constant += term

    children = np.random.SeedSequence(seed).spawn(restarts)
    best = []
    for restart in range(restarts):
        rng = np.random.default_rng(children[restart])
        start_assign = rng.integers(0, k, size=n)
        state = [0.0] * nv
        S = [0.0] * nv
        L = [0.0] * k
        c = [0.0] * n

        def field(v):
            j, i = divmod(v, n)
            x = state[v]
            return lin[i] + S[v] + 2.0 * alpha * w[i] * (L[j] - w[i] * x) + 2.0 * gamma * (c[i] - x)

        def flip(v):
            j, i = divmod(v, n)
            sign = 1.0 - 2.0 * state[v]
            state[v] += sign
            L[j] += w[i] * sign
            c[i] += sign
            for u, coeff in neighbours[i]:
                S[j * n + u] += coeff * sign

        current = constant
        for v in sorted(int(p) * n + i for i, p in enumerate(start_assign)):
            current += field(v)
            flip(v)
        best_raw = current
        best_bits = state.copy()
        # log(1 - u) <= 0 always, so downhill moves never consult the rng
        log_u = np.log1p(-rng.random((sweeps, nv))).tolist()
        for sweep in range(sweeps):
            temp = temps[sweep]
            log_row = log_u[sweep]
            for v in range(nv):
                delta = (1.0 - 2.0 * state[v]) * field(v)
                if delta <= -temp * log_row[v]:
                    flip(v)
                    current += delta
                    if current < best_raw:
                        best_raw = current
                        best_bits = state.copy()
        best.append(best_bits)
    return best
