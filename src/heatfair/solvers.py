"""Solvers producing low-energy assignments for a QuboInstance.

Three routes with very different trust levels:

  solve_exhaustive  enumerates every feasible assignment; ground truth
                    on desk-scale instances, hard-capped by size.
  solve_anneal      Metropolis single-bit-flip simulated annealing over
                    the raw binary variables, then repaired to a
                    feasible assignment.
  solve_heuristic   greedy seeding plus relocate/swap local search
                    acting on the objective directly, never touching
                    QUBO coefficients.

All solvers are deterministic functions of (instance, config, seed) and
return assignments in canonical producer order (the producer of the
lowest-numbered node is 0, the next distinct producer is 1, and so on),
so results can be compared across solvers with plain equality.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from . import graphs
from .qubo import (
    PenaltyConfig,
    QuboInstance,
    _term_arrays,
    _weight_array,
    assignment_cost,
    build_qubo,
    energies,
    energy,
)


class SolverError(ValueError):
    """Raised for invalid solver inputs or exceeded size caps."""


@dataclasses.dataclass(frozen=True)
class Assignment:
    """Feasible node-to-producer map: every node has exactly one
    producer id in [0, k). Producers may be empty."""

    producer_of: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SolverError(f"need k >= 1, got {self.k}")
        if not self.producer_of:
            raise SolverError("assignment needs at least one node")
        object.__setattr__(
            self, "producer_of", tuple(int(p) for p in self.producer_of)
        )
        for i, p in enumerate(self.producer_of):
            if not (0 <= p < self.k):
                raise SolverError(
                    f"node {i} assigned to producer {p}, outside 0..{self.k - 1}"
                )

    @property
    def n(self) -> int:
        return len(self.producer_of)


@dataclasses.dataclass(frozen=True)
class SolveResult:
    assignment: Assignment
    energy: float
    solver_name: str
    seed: int
    iterations: int
    wall_time: float | None

    def as_dict(self) -> dict:
        return {
            "assignment": list(self.assignment.producer_of),
            "k": self.assignment.k,
            "energy": self.energy,
            "solver_name": self.solver_name,
            "seed": self.seed,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
        }


@dataclasses.dataclass(frozen=True)
class AnnealConfig:
    """Simulated-annealing knobs. Temperatures of None are derived from
    the instance (t_initial = the largest possible single-flip energy
    change, t_final = 1e-4 of that)."""

    sweeps: int = 2000
    restarts: int = 8
    t_initial: float | None = None
    t_final: float | None = None
    schedule: str = "geometric"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise SolverError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.restarts < 1:
            raise SolverError(f"restarts must be >= 1, got {self.restarts}")
        if self.schedule not in ("geometric", "linear"):
            raise SolverError(
                f"schedule must be 'geometric' or 'linear', got {self.schedule!r}"
            )
        if (self.t_initial is None) != (self.t_final is None):
            raise SolverError("set both t_initial and t_final, or neither")
        if self.t_initial is not None:
            if not (self.t_initial > self.t_final > 0.0):
                raise SolverError(
                    f"need t_initial > t_final > 0, got "
                    f"{self.t_initial!r} and {self.t_final!r}"
                )


def encode(a: Assignment, q: QuboInstance) -> np.ndarray:
    """One-hot bit vector of an assignment, indexable by q's layout."""
    if a.n != q.n or a.k != q.k:
        raise SolverError(
            f"assignment is ({a.n} nodes, k={a.k}) but instance is "
            f"({q.n} nodes, k={q.k})"
        )
    bits = np.zeros(q.num_vars, dtype=np.int8)
    for i, p in enumerate(a.producer_of):
        bits[q.var_index(i, p)] = 1
    return bits


def canonical_form(producer_of, k: int) -> Assignment:
    """Relabel producers in order of first appearance; empty producers
    keep the leftover ids. Objective values are label-invariant, so
    this only fixes the representative."""
    relabel: dict[int, int] = {}
    out = []
    for p in producer_of:
        p = int(p)
        if p not in relabel:
            relabel[p] = len(relabel)
        out.append(relabel[p])
    return Assignment(producer_of=tuple(out), k=k)


def _couplings(q: QuboInstance):
    """q's linear vector and its symmetric couplings in CSR form
    (indptr, cols, vals), columns ascending within each row."""
    lin, a, b, c = _term_arrays(q)
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    order = np.argsort(rows * q.num_vars + cols)
    indptr = np.zeros(q.num_vars + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=q.num_vars), out=indptr[1:])
    return lin, indptr, cols[order], np.concatenate([c, c])[order]


def _row_sums(indptr: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Sum of each CSR row's entries."""
    nrows = indptr.size - 1
    row_of = np.repeat(np.arange(nrows), np.diff(indptr))
    return np.bincount(row_of, weights=entries, minlength=nrows)


def decode_and_repair(q: QuboInstance, bits) -> Assignment:
    """Turn any bit vector into a feasible assignment.

    Nodes are visited in index order. A node with exactly one producer
    bit set keeps it. Otherwise the candidate producers (the set ones,
    or all k if none are set) are scored by the energy of switching
    that node to producer j with every other bit frozen, and the
    lowest-energy producer wins, ties to the lower id.
    """
    vec = np.asarray(bits, dtype=float).ravel()
    if vec.size != q.num_vars:
        raise SolverError(f"got {vec.size} bits for {q.num_vars} variables")
    return _repair(q, _couplings(q), vec)


def _repair(q: QuboInstance, couplings, vec: np.ndarray) -> Assignment:
    lin, indptr, cols, vals = couplings
    lin, bounds = lin.tolist(), indptr.tolist()
    n, k = q.n, q.k
    state = vec.copy()
    producer_of = []
    for node in range(n):
        set_producers = [j for j in range(k) if state[j * n + node] != 0.0]
        if len(set_producers) == 1:
            producer_of.append(set_producers[0])
            continue
        candidates = set_producers if set_producers else list(range(k))
        state[node::n] = 0.0
        fields = []
        for j in candidates:
            v = j * n + node
            row = slice(bounds[v], bounds[v + 1])
            fields.append(lin[v] + float(vals[row] @ state[cols[row]]))
        best = candidates[int(np.argmin(fields))]
        state[best * n + node] = 1.0
        producer_of.append(best)
    return Assignment(producer_of=tuple(producer_of), k=k)


def _feasible_bit_matrix(n: int, k: int, assignments: np.ndarray) -> np.ndarray:
    rows = assignments.shape[0]
    bits = np.zeros((rows, n * k), dtype=np.int8)
    row_idx = np.arange(rows)
    for i in range(n):
        bits[row_idx, assignments[:, i] * n + i] = 1
    return bits


def solve_exhaustive(q: QuboInstance, max_vars: int = 24) -> SolveResult:
    """Global feasible optimum by enumerating all k^n assignments.

    Assignments are generated in lexicographic producer_of order and
    the first one within a relative 1e-9 of the minimum wins, so exact
    energy ties resolve to the lexicographically smallest vector rather
    than to summation noise.
    """
    if q.num_vars > max_vars:
        raise SolverError(
            f"instance has {q.num_vars} variables, exhaustive cap is {max_vars}"
        )
    start = time.monotonic()
    n, k = q.n, q.k
    count = k**n
    codes = np.arange(count)
    assignments = np.empty((count, n), dtype=np.int64)
    for i in range(n):
        assignments[:, i] = (codes // k ** (n - 1 - i)) % k
    bits = _feasible_bit_matrix(n, k, assignments)
    all_energies = energies(q, bits)
    lowest = all_energies.min()
    best_row = int(np.argmax(all_energies <= lowest + 1e-9 * abs(lowest)))
    assignment = canonical_form(assignments[best_row], k)
    best_energy = energy(q, encode(assignment, q))
    return SolveResult(
        assignment=assignment,
        energy=best_energy,
        solver_name="exhaustive",
        seed=0,
        iterations=count,
        wall_time=time.monotonic() - start,
    )


def _auto_temperatures(
    lin: np.ndarray, indptr: np.ndarray, vals: np.ndarray
) -> tuple[float, float]:
    reach = np.abs(lin) + _row_sums(indptr, np.abs(vals))
    t_initial = float(reach.max()) if reach.size else 0.0
    if t_initial <= 0.0:
        t_initial = 1.0
    return t_initial, 1e-4 * t_initial


def _temperature_schedule(cfg: AnnealConfig, t_initial: float, t_final: float):
    if cfg.sweeps == 1:
        return [t_initial]
    if cfg.schedule == "geometric":
        return np.geomspace(t_initial, t_final, cfg.sweeps).tolist()
    return np.linspace(t_initial, t_final, cfg.sweeps).tolist()


def solve_anneal(q: QuboInstance, cfg: AnnealConfig) -> SolveResult:
    """Single-bit-flip Metropolis annealing, best of cfg.restarts
    restarts, each started from a random feasible assignment.

    The lowest raw-energy state seen in each restart is decoded and
    repaired; restarts compete on post-repair energy.
    """
    start = time.monotonic()
    couplings = _couplings(q)
    lin, indptr, cols, vals = couplings
    if cfg.t_initial is None:
        t_initial, t_final = _auto_temperatures(lin, indptr, vals)
    else:
        t_initial, t_final = cfg.t_initial, cfg.t_final
    temps = _temperature_schedule(cfg, t_initial, t_final)
    nv = q.num_vars
    # coupling rows as lists: only touched entries cost time in the flip update
    bounds = indptr.tolist()
    col_list, val_list = cols.tolist(), vals.tolist()
    rows = [
        list(zip(col_list[s:e], val_list[s:e])) for s, e in zip(bounds, bounds[1:])
    ]

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_result: tuple[float, Assignment] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(children[restart])
        start_assign = rng.integers(0, q.k, size=q.n)
        state = [0.0] * nv
        for i in range(q.n):
            state[int(start_assign[i]) * q.n + i] = 1.0
        fields = (lin + _row_sums(indptr, vals * np.array(state)[cols])).tolist()
        current = energy(q, np.array(state))
        best_raw = current
        best_bits = state.copy()
        # log(1 - u) <= 0 always, so downhill moves never consult the rng
        log_u = np.log1p(-rng.random((cfg.sweeps, nv))).tolist()
        for sweep in range(cfg.sweeps):
            temp = temps[sweep]
            log_row = log_u[sweep]
            for i in range(nv):
                sign = 1.0 - 2.0 * state[i]
                delta = sign * fields[i]
                if delta <= -temp * log_row[i]:
                    state[i] += sign
                    for m, coeff in rows[i]:
                        fields[m] += coeff * sign
                    current += delta
                    if current < best_raw:
                        best_raw = current
                        best_bits = state.copy()
        assignment = canonical_form(
            _repair(q, couplings, np.array(best_bits)).producer_of, q.k
        )
        repaired = energy(q, encode(assignment, q))
        if best_result is None or repaired < best_result[0]:
            best_result = (repaired, assignment)
    return SolveResult(
        assignment=best_result[1],
        energy=best_result[0],
        solver_name="anneal",
        seed=cfg.seed,
        iterations=cfg.sweeps * nv * cfg.restarts,
        wall_time=time.monotonic() - start,
    )


def _greedy_seed(order, neighbours, weights, k, beta, alpha, target):
    producer_of = [-1] * len(weights)
    loads = [0.0] * k
    for i in order:
        best_j = 0
        best_cost = math.inf
        for j in range(k):
            cost = alpha[j] * (
                (loads[j] + weights[i] - target) ** 2 - (loads[j] - target) ** 2
            )
            for u, dist in neighbours[i]:
                if producer_of[u] == j:
                    cost += 2.0 * beta * dist
            if cost < best_cost:
                best_cost = cost
                best_j = j
        producer_of[i] = best_j
        loads[best_j] += weights[i]
    return producer_of, loads


def _relocate_delta(i, dest, producer_of, loads, neighbours, weights, beta, alpha, target):
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


def _swap_delta(i, j, producer_of, loads, neighbours, weights, beta, alpha, target):
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


def solve_heuristic(
    topo: graphs.Topology,
    w,
    k: int,
    cfg: PenaltyConfig,
    seed: int = 0,
    restarts: int = 8,
    qubo: QuboInstance | None = None,
) -> SolveResult:
    """Greedy seeding plus best-improvement local search on the
    objective itself (relocate one node, or swap two nodes across
    producers), repeated over restarts with different seeding orders.

    Restart 0 seeds nodes heaviest-first; later restarts use random
    orders. The reported energy is the QUBO energy of the final
    assignment so results line up with the other solvers.
    """
    if restarts < 1:
        raise SolverError(f"restarts must be >= 1, got {restarts}")
    start = time.monotonic()
    n = topo.nodes
    if k > n or k < 1:
        raise SolverError(f"need 1 <= k <= n, got k={k} for n={n} nodes")
    if qubo is not None and (qubo.n != n or qubo.k != k):
        raise SolverError(
            f"supplied instance is ({qubo.n} nodes, k={qubo.k}), "
            f"expected ({n}, {k})"
        )
    weights_arr = _weight_array(w, n)
    weights = [float(x) for x in weights_arr]
    alpha = cfg.alpha_vector(k).tolist()
    beta = cfg.beta
    total = sum(weights)
    target = total / k
    neighbours: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, dist in topo.edges:
        neighbours[u].append((v, dist))
        neighbours[v].append((u, dist))

    children = np.random.SeedSequence(seed).spawn(max(restarts - 1, 1))
    heavy_first = sorted(range(n), key=lambda i: (-weights[i], i))
    best: tuple[float, list[int]] | None = None
    moves_applied = 0
    for restart in range(restarts):
        if restart == 0:
            order = heavy_first
        else:
            rng = np.random.default_rng(children[restart - 1])
            order = rng.permutation(n).tolist()
        producer_of, loads = _greedy_seed(
            order, neighbours, weights, k, beta, alpha, target
        )
        improved = True
        while improved:
            improved = False
            best_delta = -1e-12
            best_move = None
            for i in range(n):
                for dest in range(k):
                    if dest == producer_of[i]:
                        continue
                    delta = _relocate_delta(
                        i, dest, producer_of, loads, neighbours,
                        weights, beta, alpha, target,
                    )
                    if delta < best_delta:
                        best_delta = delta
                        best_move = ("relocate", i, dest)
            for i in range(n):
                for j in range(i + 1, n):
                    if producer_of[i] == producer_of[j]:
                        continue
                    delta = _swap_delta(
                        i, j, producer_of, loads, neighbours,
                        weights, beta, alpha, target,
                    )
                    if delta < best_delta:
                        best_delta = delta
                        best_move = ("swap", i, j)
            if best_move is not None:
                moves_applied += 1
                improved = True
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
        cost = assignment_cost(topo, weights_arr, k, cfg, producer_of)
        if best is None or cost < best[0]:
            best = (cost, list(producer_of))
    assignment = canonical_form(best[1], k)
    q = qubo if qubo is not None else build_qubo(topo, weights_arr, k, cfg)
    final_energy = energy(q, encode(assignment, q))
    return SolveResult(
        assignment=assignment,
        energy=final_energy,
        solver_name="heuristic",
        seed=seed,
        iterations=moves_applied,
        wall_time=time.monotonic() - start,
    )
