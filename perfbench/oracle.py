"""Independent checks of heatfair's answers.

Nothing here imports heatfair. Objectives are evaluated from their
definitions, shortest paths come from Dijkstra rather than the
program's Floyd-Warshall, penalties follow the documented default
rule, and QUBO coefficients are read through the documented
producer-major layout (var = producer * n + node).
"""

from __future__ import annotations

import hashlib
import heapq
import math

import numpy as np

# Relative slack for energies: QUBO energies are sums of penalty-sized
# terms that cancel, so rounding grows with the penalty magnitude.
ENERGY_RTOL = 1e-9
INDEX_ATOL = 1e-9
KPI_ATOL = 1e-12


def shortest_paths(n: int, edges) -> np.ndarray:
    """All-pairs shortest pipe distances by Dijkstra from every node."""
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, d in edges:
        adjacency[a].append((b, d))
        adjacency[b].append((a, d))
    out = np.full((n, n), math.inf)
    for source in range(n):
        row = out[source]
        row[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dist > row[node]:
                continue
            for nxt, d in adjacency[node]:
                cand = dist + d
                if cand < row[nxt]:
                    row[nxt] = cand
                    heapq.heappush(heap, (cand, nxt))
    return out


class Network:
    """One pipe network with the node weights the program was given."""

    def __init__(self, n: int, edges, weights) -> None:
        self.n = n
        self.u = np.array([e[0] for e in edges], dtype=np.int64)
        self.v = np.array([e[1] for e in edges], dtype=np.int64)
        self.d = np.array([e[2] for e in edges], dtype=float)
        self.w = np.asarray(weights, dtype=float)
        row_sums = np.zeros(n)
        np.add.at(row_sums, self.u, self.d)
        np.add.at(row_sums, self.v, self.d)
        # default penalty rule: beta = 1, S = largest distance row sum
        self.scale = float(row_sums.max()) or 1.0
        self.sp = shortest_paths(n, edges)
        iu, ju = np.triu_indices(n, k=1)
        self.pair_i, self.pair_j = iu, ju
        self.pair_d = self.sp[iu, ju]

    def penalties(self, weights: np.ndarray) -> tuple[float, float, float]:
        beta = 1.0
        alpha = beta * self.scale / float(weights.min()) ** 2
        gamma = 2.0 * (beta * self.scale + alpha * float(weights.max()))
        return beta, alpha, gamma

    def objective(self, k: int, producer_of, weighted: bool = True) -> tuple[float, float]:
        """(objective, rounding tolerance) of a feasible assignment.

        Weighted: 2*beta * sum of within-producer pipe distances plus
        alpha * sum_j (load_j - W/k)^2. Unweighted (node-count QUBO):
        2*beta * number of cut edges plus alpha * sum_j (size_j - n/k)^2.
        """
        assign = np.asarray(producer_of, dtype=np.int64)
        weights = self.w if weighted else np.full(self.n, 1.0 / self.n)
        beta, alpha, gamma = self.penalties(weights)
        same = assign[self.u] == assign[self.v]
        if weighted:
            loads = np.bincount(assign, weights=self.w, minlength=k)
            total = float(self.w.sum())
            graph = 2.0 * beta * float(self.d[same].sum())
        else:
            loads = np.bincount(assign, minlength=k).astype(float)
            total = float(self.n)
            graph = 2.0 * beta * float(np.count_nonzero(~same))
        balance = alpha * float(((loads - total / k) ** 2).sum())
        magnitude = alpha * total * total / k + self.n * gamma + 2.0 * beta * float(self.d.sum())
        return graph + balance, ENERGY_RTOL * magnitude

    def jain(self, k: int, producer_of) -> float:
        loads = np.bincount(np.asarray(producer_of), weights=self.w, minlength=k)
        return float(loads.sum() ** 2 / (k * float(loads @ loads)))

    def distance_index(self, producer_of) -> float:
        assign = np.asarray(producer_of)
        if self.n == 1:
            return 0.0
        within = assign[self.pair_i] == assign[self.pair_j]
        return 1.0 - float(self.pair_d[within].sum()) / float(self.pair_d.sum())


def check_report(net: Network, k: int, report: dict) -> list[str]:
    """Problems with one sweep cell's report (empty when it is right)."""
    problems = []
    assign = report.get("assignment")
    if report.get("k") != k:
        problems.append(f"reports k={report.get('k')!r}")
    if not isinstance(assign, list) or len(assign) != net.n:
        return problems + [f"assignment does not cover {net.n} nodes"]
    if any(not isinstance(p, int) or not (0 <= p < k) for p in assign):
        return problems + ["assignment is infeasible (producer id outside 0..k-1)"]
    expected, tol = net.objective(k, assign)
    energy = report.get("energy")
    if not isinstance(energy, (int, float)) or not abs(energy - expected) <= tol:
        problems.append(f"energy {energy!r} != recomputed objective {expected!r}")
    for name, want in (
        ("jain", net.jain(k, assign)),
        ("distance_index", net.distance_index(assign)),
    ):
        got = report.get(name)
        if not isinstance(got, (int, float)) or not (0.0 <= got <= 1.0):
            problems.append(f"{name} {got!r} outside [0, 1]")
        elif abs(got - want) > INDEX_ATOL:
            problems.append(f"{name} {got!r} != recomputed {want!r}")
    parts = [report.get(name) for name in ("kpi", "kpi_alpha", "jain", "distance_index")]
    if not all(isinstance(x, (int, float)) for x in parts) or not (0.0 <= parts[0] <= 1.0):
        problems.append(f"kpi {parts[0]!r} outside [0, 1]")
    else:
        kpi, a, jain, dist = parts
        if abs(kpi - (a * jain + (1.0 - a) * dist)) > KPI_ATOL:
            problems.append(f"kpi {kpi!r} does not combine jain and distance_index")
    return problems


def coefficient_arrays(q) -> tuple:
    """(n, k, offset, linear ids, linear values, quadratic id pairs,
    quadratic values) of a QUBO instance, sorted by variable id."""
    lin = sorted(q.linear.items())
    quad = sorted(q.quadratic.items())
    return (
        int(q.n),
        int(q.k),
        float(q.offset),
        np.array([v for v, _ in lin], dtype=np.int64),
        np.array([c for _, c in lin], dtype=float),
        np.array([key for key, _ in quad], dtype=np.int64).reshape(-1, 2),
        np.array([c for _, c in quad], dtype=float),
    )


def coefficient_digest(arrays) -> str:
    """Bit-exact fingerprint of every coefficient."""
    n, k, offset, lin_ids, lin_vals, quad_ids, quad_vals = arrays
    h = hashlib.sha256(f"{n} {k} {offset!r}".encode())
    for arr in (lin_ids, lin_vals, quad_ids, quad_vals):
        h.update(arr.tobytes())
    return h.hexdigest()


def probe_bits(n: int, k: int, producer_of) -> np.ndarray:
    bits = np.zeros(n * k, dtype=np.int8)
    bits[np.asarray(producer_of, dtype=np.int64) * n + np.arange(n)] = 1
    return bits


def check_qubo(net: Network, k: int, weighted: bool, arrays, energy, producer_of) -> list[str]:
    """Problems with one imported QUBO: its coefficients and the
    program's energy must both reproduce the objective at a probe."""
    n, qk, offset, lin_ids, lin_vals, quad_ids, quad_vals = arrays
    if (n, qk) != (net.n, k):
        return [f"instance is (n={n}, k={qk}), expected (n={net.n}, k={k})"]
    expected, tol = net.objective(k, producer_of, weighted=weighted)
    bits = probe_bits(n, k, producer_of).astype(bool)
    from_coeffs = (
        offset
        + float(lin_vals[bits[lin_ids]].sum())
        + float(quad_vals[bits[quad_ids[:, 0]] & bits[quad_ids[:, 1]]].sum())
    )
    problems = []
    if not abs(from_coeffs - expected) <= tol:
        problems.append(f"coefficients give {from_coeffs!r}, objective is {expected!r}")
    if not isinstance(energy, float) or not abs(energy - expected) <= tol:
        problems.append(f"energy {energy!r} != recomputed objective {expected!r}")
    return problems
