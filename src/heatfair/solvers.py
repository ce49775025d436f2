"""Solvers producing low-energy assignments for a QuboInstance.

Three routes with very different trust levels:

  solve_exhaustive  enumerates every feasible assignment; ground truth
                    on desk-scale instances, hard-capped by size.
  solve_anneal      Metropolis single-bit-flip simulated annealing over
                    the raw binary variables of the instance's
                    Objective, then repaired to a feasible assignment.
                    Fields, auto temperatures and repair read only the
                    Objective. A field comes from running sums (edge
                    coefficients of a node's neighbours per producer,
                    producer loads, one-hot counts), so a flip updates
                    O(degree + 1) of them. Stretches of sweeps in which
                    no proposal can pass are skipped by one numpy
                    comparison; every result equals a plain
                    proposal-by-proposal scan of the same rule bit for bit.
  solve_heuristic   greedy seeding plus relocate/swap local search
                    on the instance's Objective (what the builder
                    expanded), not on QUBO coefficients; an imported
                    instance has none. All restarts descend in lockstep
                    over numpy tables of every move's delta, summed
                    exactly as a scalar scan would: edge terms slot by
                    slot in neighbour-list order, squares by libm pow,
                    first minimum in scan order.

All three take only the instance and their own settings, and end the
same way (_result): their candidates (every assignment, or each
restart's final one) are scored with qubo.energies, and the first
within a relative 1e-9 of the lowest energy wins. All solvers are
deterministic functions of (instance, config, seed) and return
assignments in canonical producer order (the producer of the
lowest-numbered node is 0, the next distinct producer is 1, and so on),
so results can be compared across solvers with plain equality.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .qubo import Objective, QuboInstance, energies, energy


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

    def as_dict(self) -> dict:
        return {
            "assignment": list(self.assignment.producer_of),
            "k": self.assignment.k,
            "energy": self.energy,
            "solver_name": self.solver_name,
            "seed": self.seed,
            "iterations": self.iterations,
        }


@dataclasses.dataclass(frozen=True)
class AnnealConfig:
    """Simulated-annealing knobs. Temperatures of None are derived from
    the instance (t_initial = the largest possible single-flip energy
    change, t_final = 1e-4 of that); set ones must be finite, with
    t_initial > t_final > 0."""

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
            if not (math.isfinite(self.t_initial) and math.isfinite(self.t_final)):
                raise SolverError(
                    f"t_initial and t_final must be finite, got "
                    f"{self.t_initial!r} and {self.t_final!r}"
                )
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


def decode_and_repair(q: QuboInstance, bits) -> Assignment:
    """Turn any bit vector into a feasible assignment; any nonzero entry
    counts as set. Nodes are visited in index order. A node with exactly
    one producer bit set keeps it. Otherwise its bits are cleared, and
    the candidate producers (the set ones, or all k if none are set) are
    scored by the energy of switching that node to producer j with every
    other bit frozen, read from q's objective by the annealer's field
    rule. The first candidate within 1e-9 of the node's field scale of
    the lowest wins, so an exact tie goes to the lower id.
    """
    obj = q.objective
    if obj is None:
        raise SolverError("repair needs the instance's objective; an imported one has none")
    vec = np.asarray(bits).ravel()
    if vec.size != q.num_vars:
        raise SolverError(f"got {vec.size} bits for {q.num_vars} variables")
    return _repair(obj, vec)


def _repair(obj: Objective, vec: np.ndarray) -> Assignment:
    """decode_and_repair on _start's sums. Candidate j scores S[j][i] +
    2*alpha*w_i*L_j, its field less what every candidate shares. The
    field scale 2*alpha*w_i*W + sum |edge coefficient of i| never
    vanishes; an emptied producer's load drifts to ~1e-17, not 0."""
    x, S, L, _, _ = _start(obj, 0.0, vec)
    _, reach, w, _, neighbours = _field_terms(obj)
    total = float(obj.weights.sum())
    producer_of = []
    for i, edges in enumerate(neighbours):
        held = [j for j, xj in enumerate(x) if xj[i]]
        if len(held) == 1:
            producer_of.append(held[0])
            continue
        for j in held:
            L[j] -= w[i]
            for u, coeff in edges:
                S[j][u] -= coeff
        candidates = held or range(len(L))
        scores = [S[j][i] + reach[i] * L[j] for j in candidates]
        bar = min(scores) + 1e-9 * (reach[i] * total + sum(abs(coeff) for _, coeff in edges))
        best = next(j for j, score in zip(candidates, scores) if score <= bar)
        L[best] += w[i]
        for u, coeff in edges:
            S[best][u] += coeff
        producer_of.append(best)
    return Assignment(producer_of=tuple(producer_of), k=len(L))


def _result(q: QuboInstance, producer_rows, name: str, seed: int, iterations: int) -> SolveResult:
    """The answer among candidate assignments, one producer row each, in
    the solver's order: the first row whose energy lies within a
    relative 1e-9 of the lowest, so exact ties resolve by that order
    rather than by summation noise. It is reported in canonical form
    with the energy of that form's bit vector."""
    rows = np.asarray(producer_rows)
    bits = np.zeros((rows.shape[0], q.num_vars), dtype=np.int8)
    np.put_along_axis(bits, rows * q.n + np.arange(q.n), 1, axis=1)
    scores = energies(q, bits)
    lowest = scores.min()
    best = int(np.argmax(scores <= lowest + 1e-9 * abs(lowest)))
    assignment = canonical_form(rows[best], q.k)
    return SolveResult(
        assignment=assignment,
        energy=energy(q, encode(assignment, q)),
        solver_name=name,
        seed=seed,
        iterations=iterations,
    )


def solve_exhaustive(q: QuboInstance, max_vars: int = 24) -> SolveResult:
    """Global feasible optimum by enumerating all k^n assignments.

    Assignments are generated in lexicographic producer_of order, so
    exact energy ties resolve to the lexicographically smallest vector.
    """
    if q.num_vars > max_vars:
        raise SolverError(
            f"instance has {q.num_vars} variables, exhaustive cap is {max_vars}"
        )
    n, k = q.n, q.k
    count = k**n
    codes = np.arange(count)
    assignments = np.empty((count, n), dtype=np.int64)
    for i in range(n):
        assignments[:, i] = (codes // k ** (n - 1 - i)) % k
    return _result(q, assignments, "exhaustive", 0, count)


def _auto_temperatures(obj: Objective, k: int) -> tuple[float, float]:
    """t_initial = the largest single-flip reach, |lin| plus the
    |coupling| sum of a QUBO row, and t_final = 1e-4 of it. Each row
    holds the builder's floats and is summed in its column order: j
    one-hot entries 2*gamma, the pairs at producer j by ascending node
    (2*alpha*w_a*w_b, plus the edge coefficient on an edge), then
    k-1-j one-hot entries."""
    w, n = obj.weights, obj.weights.size
    pair = np.triu((2.0 * obj.alpha * w)[:, None] * w, 1)
    pair[tuple(obj.ends.T)] += obj.edge_coeff
    pair = np.abs(pair + pair.T)
    one_hot = abs(2.0 * obj.gamma)
    lin = np.abs(obj.lin)
    t_initial = 0.0
    for j in range(k):
        row = np.hstack([np.full((n, j), one_hot), pair, np.full((n, k - 1 - j), one_hot)])
        t_initial = max(t_initial, float((lin + np.cumsum(row, axis=1)[:, -1]).max()))
    if t_initial <= 0.0:
        t_initial = 1.0
    return t_initial, 1e-4 * t_initial


def _temperature_schedule(cfg: AnnealConfig, t_initial: float, t_final: float):
    if cfg.sweeps == 1:
        return np.array([t_initial])
    if cfg.schedule == "geometric":
        return np.geomspace(t_initial, t_final, cfg.sweeps)
    return np.linspace(t_initial, t_final, cfg.sweeps)


def _first_acceptance(deltas: np.ndarray, limits: np.ndarray, sweep: int):
    """The first (sweep, var), row-major from row `sweep` of limits on,
    where deltas[var] <= limits[sweep, var]; None if there is none.
    Rows are compared in windows of 1, 2, 4, ... sweeps, so a near hit
    costs one small comparison and a distant one few numpy calls."""
    nv = deltas.size
    width = 1
    while sweep < len(limits):
        hits = deltas <= limits[sweep:sweep + width]
        if hits.any():
            at = int(hits.argmax())
            return sweep + at // nv, at % nv
        sweep += width
        width *= 2
    return None


def _field_terms(obj: Objective):
    """The field rule's per-node constants as Python floats: lin_i,
    2*alpha*w_i, w_i, then 2*gamma and each node's neighbours."""
    w = obj.weights
    return (obj.lin.tolist(), (2.0 * obj.alpha * w).tolist(), w.tolist(),
            2.0 * obj.gamma, _neighbours(obj))


def _neighbours(obj: Objective) -> list[list[tuple[int, float]]]:
    """Each node's (neighbour, edge coefficient) pairs, in edge order."""
    neighbours: list[list[tuple[int, float]]] = [[] for _ in range(obj.weights.size)]
    for (u, v), coeff in zip(obj.ends.tolist(), obj.edge_coeff.tolist()):
        neighbours[u].append((v, coeff))
        neighbours[v].append((u, coeff))
    return neighbours


def _fields(obj: Objective, x, S, L, c) -> np.ndarray:
    """The field of every (i, j), shape (k, n), from the running sums:
    lin + S + 2*alpha*w_i*(L_j - w_i*x) + 2*gamma*(c_i - x), lin the
    QUBO's linear coefficient, with the same float expressions in the
    same order as the scalar loop of _walk."""
    w = obj.weights
    return obj.lin + S + 2.0 * obj.alpha * w * (L[:, None] - w * x) + 2.0 * obj.gamma * (c - x)


def _start(obj: Objective, offset: float, bits: np.ndarray):
    """The annealer's state at bits, (x, S, L, c, energy), per producer j:
    x[j][i] the bit of (i, j), S[j][i] the edge coefficients of i's
    neighbours whose bit at j is set, L[j] the weight set at j; c[i] the
    bits node i has set. All-zero bits have the QUBO's offset as energy;
    the set bits are switched on from there in variable order, each
    adding its field."""
    n = obj.weights.size
    k = bits.size // n
    lin, reach, w, g2, neighbours = _field_terms(obj)
    x = [[0.0] * n for _ in range(k)]
    S = [[0.0] * n for _ in range(k)]
    L, c, current = [0.0] * k, [0.0] * n, offset
    for v in np.flatnonzero(bits).tolist():
        j, i = divmod(v, n)
        current += lin[i] + S[j][i] + reach[i] * L[j] + g2 * c[i]
        x[j][i] = 1.0
        L[j] += w[i]
        c[i] += 1.0
        for u, coeff in neighbours[i]:
            S[j][u] += coeff
    return x, S, L, c, current


def _walk(obj: Objective, x, S, L, c, current: float, limits: np.ndarray):
    """Anneal one restart from the _start state against limits, shape
    (sweeps, n*k); returns the lowest raw energy seen and its bits as
    x. Proposal (sweep, v) flips bit v = j*n + i when sign * field <=
    limit, sign = 1 - 2 * x[j][i]. A flip updates x, L[j], c[i] and S[j]
    at i's neighbours, adding or subtracting each value (x - c is
    exactly x + (-c)). After a sweep with no flip the state cannot
    change until the next accepted proposal, so that proposal is found
    by comparing the frozen sign * field vector with the following
    limit rows, and the loop resumes there."""
    lin, reach, w, g2, neighbours = _field_terms(obj)
    k, n = len(L), len(c)
    best_raw, best_x = current, [bits[:] for bits in x]
    sweep, first = 0, 0
    while sweep < len(limits):
        row = limits[sweep].tolist()
        frozen = True
        j0, start = divmod(first, n)
        for j in range(j0, k):
            xj, Sj, lim = x[j], S[j], row[j * n:(j + 1) * n]
            load = L[j]
            for i in range(start, n):
                if xj[i]:
                    delta = -(lin[i] + Sj[i] + reach[i] * (load - w[i]) + g2 * (c[i] - 1.0))
                    if not delta <= lim[i]:  # as written, so a NaN never flips
                        continue
                    xj[i] = 0.0
                    load -= w[i]
                    c[i] -= 1.0
                    for u, coeff in neighbours[i]:
                        Sj[u] -= coeff
                else:
                    delta = lin[i] + Sj[i] + reach[i] * load + g2 * c[i]
                    if not delta <= lim[i]:
                        continue
                    xj[i] = 1.0
                    load += w[i]
                    c[i] += 1.0
                    for u, coeff in neighbours[i]:
                        Sj[u] += coeff
                frozen = False
                current += delta
                if current < best_raw:
                    best_raw, best_x = current, [bits[:] for bits in x]
            L[j] = load
            start = 0
        sweep, first = sweep + 1, 0
        if frozen:
            xs = np.array(x)
            deltas = (1.0 - 2.0 * xs) * _fields(obj, xs, np.array(S), np.array(L), np.array(c))
            hit = _first_acceptance(deltas.ravel(), limits, sweep)
            if hit is None:
                break
            sweep, first = hit
    return best_raw, best_x


def solve_anneal(q: QuboInstance, cfg: AnnealConfig) -> SolveResult:
    """Single-bit-flip Metropolis annealing on q.objective (required: an
    imported instance has none), best of cfg.restarts restarts, each
    started from a random feasible assignment.

    Proposal (sweep, v) flips bit v = (i, j) when sign * field <= limit,
    with sign = 1 - 2 * bit and limit = -temp[sweep] * log1p(-u), u drawn
    uniform in [0, 1) for every proposal up front (one numpy product, the
    same IEEE product as the scalar one). The field is lin + S[j][i] +
    2*alpha*w_i*(L_j - w_i*bit) + 2*gamma*(c_i - bit): lin the QUBO's
    linear coefficient, S[j][i] the edge coefficients of i's neighbours
    at j, L_j the load of j and c_i the bits node i has set. A proposal
    is O(1) and a flip updates O(degree + 1) sums (_walk). Frozen sweeps
    are skipped exactly, so every result equals a plain
    proposal-by-proposal scan of the same rule. Auto temperatures come
    from the objective's QUBO rows (_auto_temperatures).

    The lowest raw-energy state seen in each restart is repaired by
    decode_and_repair's rule; restarts compete on post-repair energy,
    ties to the earliest restart.
    """
    obj = q.objective
    if obj is None:
        raise SolverError("the annealer needs the instance's objective; an imported one has none")
    if cfg.t_initial is None:
        t_initial, t_final = _auto_temperatures(obj, q.k)
    else:
        t_initial, t_final = cfg.t_initial, cfg.t_final
    temps = _temperature_schedule(cfg, t_initial, t_final)
    nv = q.num_vars

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    repaired = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(children[restart])
        bits = np.zeros(nv)
        bits[rng.integers(0, q.k, size=q.n) * q.n + np.arange(q.n)] = 1.0
        # log1p(-u) <= 0, so a downhill move always passes its limit
        limits = -temps[:, None] * np.log1p(-rng.random((cfg.sweeps, nv)))
        _, best = _walk(obj, *_start(obj, q.offset, bits), limits)
        repaired.append(_repair(obj, np.ravel(best)).producer_of)
    return _result(q, repaired, "anneal", cfg.seed, cfg.sweeps * nv * cfg.restarts)


def _greedy_seed(order, neighbours, weights, k, alpha, target):
    producer_of = [-1] * len(weights)
    loads = [0.0] * k
    for i in order:
        best_j = 0
        best_cost = math.inf
        for j in range(k):
            cost = alpha * (
                (loads[j] + weights[i] - target) ** 2 - (loads[j] - target) ** 2
            )
            for u, coeff in neighbours[i]:
                if producer_of[u] == j:
                    cost += coeff
            if cost < best_cost:
                best_cost = cost
                best_j = j
        producer_of[i] = best_j
        loads[best_j] += weights[i]
    return producer_of, loads


def _neighbour_slots(neighbours):
    """Neighbour lists by list position s: the nodes that have an s-th
    neighbour (a slice when all do), that neighbour, and the edge's coefficient."""
    slots = []
    for s in range(max(map(len, neighbours), default=0)):
        nodes = [i for i, nb in enumerate(neighbours) if len(nb) > s]
        nbr, coeff = zip(*(neighbours[i][s] for i in nodes))
        rows = slice(None) if len(nodes) == len(neighbours) else np.array(nodes)
        slots.append((rows, np.array(nbr), np.array(coeff)))
    return slots


def _square(x):
    # libm pow, as Python's x ** 2 (x * x differs in the last bit); the
    # array exponent keeps numpy off any scalar-exponent fast path
    return np.float_power(x, np.broadcast_to(2.0, x.shape))


def _add_edge_terms(table, p, slots, dest, swap):
    """Add to table[:, i, col] node i's edge terms, one neighbour slot
    at a time: +c for a neighbour at producer dest[:, col], -c for one
    at i's own producer. A swap leaves the edge (i, col) cut."""
    for nodes, nbr, c in slots:
        pu = p[:, nbr]
        part = np.where(
            pu[:, :, None] == dest[:, None, :], c[:, None],
            np.where(pu == p[:, nodes], -c, 0.0)[:, :, None],
        )
        if swap:
            part[:, np.arange(nbr.size), nbr] = 0.0
        table[:, nodes] += part


def _move_tables(p, loads, slots, w, alpha, target):
    """Deltas of every move, (restarts, n*k) for relocating node i to
    producer j and (restarts, n*n) for swapping the producers of nodes
    i < j, each summed in the order of the scalar scan. Moves that are
    not candidates (own producer, i >= j, shared producer) hold +inf."""
    r, n = p.shape
    own = np.take_along_axis(loads, p, axis=1)
    before = _square(own - target)
    rel = np.zeros((r, n, loads.shape[1]))
    _add_edge_terms(rel, p, slots, np.arange(loads.shape[1])[None], False)
    rel += alpha * (
        _square(loads[:, None, :] + w[:, None] - target)
        - _square(loads - target)[:, None, :]
    )
    rel += alpha * (_square(own - w - target) - before)[:, :, None]
    np.put_along_axis(rel, p[:, :, None], np.inf, axis=2)

    swp = np.zeros((r, n, n))
    _add_edge_terms(swp, p, slots, p, True)  # all of i's terms before j's
    _add_edge_terms(swp.transpose(0, 2, 1), p, slots, p, True)
    # the balance change at i's producer; j's at (i, j) is this at (j, i)
    balance = alpha * (
        _square(own[:, :, None] - w[:, None] + w - target) - before[:, :, None]
    )
    swp += balance
    swp += balance.transpose(0, 2, 1)
    swp[(p[:, :, None] == p[:, None, :]) | np.tri(n, dtype=bool)] = np.inf
    return rel.reshape(r, -1), swp.reshape(r, -1)


def _local_search(p, loads, slots, w, alpha, target):
    """Best-improvement relocate/swap descent of all restarts in lockstep.

    p (restarts, n) producer ids and loads (restarts, k) are updated in
    place; returns the moves applied per restart. A step takes the first
    minimum of the relocations, row-major over (node, producer), unless
    the first minimum of the swaps, row-major over i < j, lies strictly
    below it; a restart stops when neither is below -1e-12.
    """
    r, n = p.shape
    k = loads.shape[1]
    group = max(1, 2**20 // n**2)  # restarts per step, bounding the swap tables
    moves = np.zeros(r, dtype=np.int64)
    todo = np.arange(r)
    while todo.size:
        live, at = todo[:group], np.arange(min(group, todo.size))
        rel, swp = _move_tables(p[live], loads[live], slots, w, alpha, target)
        rel_at, swp_at = rel.argmin(axis=1), swp.argmin(axis=1)
        bar = np.minimum(rel[at, rel_at], -1e-12)
        swap = swp[at, swp_at] < bar
        relocate = ~swap & (bar < -1e-12)

        rows, (i, dest) = live[relocate], np.divmod(rel_at[relocate], k)
        loads[rows, p[rows, i]] -= w[i]
        loads[rows, dest] += w[i]
        p[rows, i] = dest

        rows, (i, j) = live[swap], np.divmod(swp_at[swap], n)
        a, b = p[rows, i], p[rows, j]
        loads[rows, a] += w[j] - w[i]
        loads[rows, b] += w[i] - w[j]
        p[rows, i], p[rows, j] = b, a

        moves[live] += relocate | swap
        todo = np.concatenate([live[relocate | swap], todo[group:]])
    return moves


def solve_heuristic(q: QuboInstance, seed: int = 0, restarts: int = 8) -> SolveResult:
    """Greedy seeding plus best-improvement local search on q.objective
    (relocate one node, or swap two nodes across producers), repeated
    over restarts with different seeding orders.

    Node terms are left out: a feasible assignment pays each of them
    exactly once. Restart 0 seeds nodes heaviest-first; later restarts
    use random orders. All restarts then descend in lockstep
    (`_local_search`), in groups whose swap tables stay near 8 MB; each
    restart's moves and result match a scalar best-improvement scan bit
    for bit. Restarts compete on the QUBO energy of their final
    assignments in q, ties to the earliest restart, so results line up
    with the other solvers.
    """
    if restarts < 1:
        raise SolverError(f"restarts must be >= 1, got {restarts}")
    obj = q.objective
    if obj is None:
        raise SolverError("the heuristic needs the instance's objective; an imported one has none")
    n = q.n
    weights = obj.weights.tolist()
    neighbours = _neighbours(obj)

    children = np.random.SeedSequence(seed).spawn(max(restarts - 1, 1))
    orders = [sorted(range(n), key=lambda i: (-weights[i], i))] + [
        np.random.default_rng(child).permutation(n).tolist()
        for child in children[: restarts - 1]
    ]
    producers, loads = map(np.array, zip(*(
        _greedy_seed(order, neighbours, weights, q.k, obj.alpha, obj.target)
        for order in orders
    )))
    moves = _local_search(
        producers, loads, _neighbour_slots(neighbours), obj.weights, obj.alpha, obj.target
    )
    return _result(q, producers, "heuristic", seed, int(moves.sum()))
