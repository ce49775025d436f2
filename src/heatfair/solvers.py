"""Solvers producing low-energy assignments for a QuboInstance.

Three routes with very different trust levels:

  solve_exhaustive  enumerates every feasible assignment; ground truth
                    on desk-scale instances, hard-capped by size.
  solve_anneal      Metropolis single-bit-flip simulated annealing over
                    the raw binary variables of the instance's
                    Objective, then repaired to a feasible assignment;
                    _restart_bests sets up and walks every restart.
                    Fields, auto temperatures and repair read only the
                    Objective. A field comes from running sums (edge
                    coefficients of a node's neighbours per producer,
                    producer loads, one-hot counts), so a flip updates
                    O(degree + 1) of them. Stretches of sweeps in which
                    no proposal can pass are skipped by a few numpy
                    comparisons of the walk's own deltas, and the walk
                    resumes at bit 0 of the sweep that holds the first
                    passing proposal. The limits are drawn into one
                    reused buffer a block of sweeps at a time, so memory
                    does not grow with the sweep count; every result
                    equals a plain proposal-by-proposal scan of the same
                    rule bit for bit.
  solve_heuristic   greedy seeding plus relocate/swap local search
                    on the instance's Objective (what the builder
                    expanded), not on QUBO coefficients; an imported
                    instance has none. Seeding and descent price load
                    balance by the annealer's field rule,
                    2*alpha*w_i*L_j, taking no square. Seeding scans one
                    restart after another. All restarts then descend in
                    lockstep, each step a fixed handful of numpy calls
                    over one row of every move's delta per restart,
                    read from node-by-producer sums of edge coefficients
                    taken from one flat list of (node, neighbour, edge
                    coefficient) entries. Both sum exactly as a scalar
                    scan would: in neighbour-list order, first minimum
                    in scan order.

All three take only the instance and their own settings, and end the
same way (_result): their candidates (every assignment, or each
restart's final one) are scored with qubo.feasible_energies, the
objective's closed form read from the Objective, with no offset, and
the first within a relative 1e-9 of the lowest energy wins. Only the
annealer's walk tracks the raw QUBO energy, offset included. All
solvers are deterministic functions of (instance, config, seed) and return
assignments in canonical producer order (the producer of the
lowest-numbered node is 0, the next distinct producer is 1, and so on),
so results can be compared across solvers with plain equality.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math

import numpy as np

from .ioutil import number, shown
from .qubo import Objective, QuboInstance, feasible_energies

SCHEDULES = ("geometric", "linear")


class SolverError(ValueError):
    """Raised for invalid solver inputs or exceeded size caps."""


@dataclasses.dataclass(frozen=True)
class Assignment:
    """Feasible node-to-producer map: every node has exactly one
    producer id in [0, k). Producers may be empty."""

    producer_of: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", number(self.k, "k", SolverError, integer=True, least=1))
        try:  # a tuple first, so an id array reads like a list; a map or a set has no node order
            if isinstance(self.producer_of, (collections.abc.Mapping, collections.abc.Set)):
                raise TypeError
            ids = tuple(self.producer_of)
        except TypeError:
            raise SolverError(f"producer_of must be producer ids, got {shown(self.producer_of)}") from None
        if not ids:
            raise SolverError("assignment needs at least one node")
        object.__setattr__(self, "producer_of", tuple(
            number(p, f"node {i}", SolverError, integer=True) for i, p in enumerate(ids)
        ))
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
    """Simulated-annealing knobs, read by ioutil.number. sweeps and
    restarts are integers of at least 1, seed one of at least 0.
    Temperatures of None are derived from the instance (t_initial = the
    largest possible single-flip energy change, t_final = 1e-4 of that);
    set ones must be finite, with t_initial > t_final > 0."""

    sweeps: int = 2000
    restarts: int = 8
    t_initial: float | None = None
    t_final: float | None = None
    schedule: str = "geometric"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("sweeps", 1), ("restarts", 1), ("seed", 0)):
            value = number(getattr(self, name), name, SolverError, integer=True, least=least)
            object.__setattr__(self, name, value)
        for name in ("t_initial", "t_final"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, number(getattr(self, name), name, SolverError))
        if self.schedule not in SCHEDULES:
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


def canonical_form(producer_of, k: int) -> Assignment:
    """Relabel producers in order of first appearance; empty producers
    keep the leftover ids. Objective values are label-invariant, so
    this only fixes the representative. producer_of is read as an
    Assignment first, so ids outside 0..k-1 are refused."""
    ids = Assignment(producer_of, k).producer_of
    relabel: dict[int, int] = {}
    return Assignment(tuple(relabel.setdefault(p, len(relabel)) for p in ids), k)


def _objective(q: QuboInstance, who: str) -> Objective:
    """q.objective, which an instance read back by import_qubo lacks;
    who names the caller in the refusal."""
    if q.objective is None:
        raise SolverError(f"{who} needs the instance's objective; an imported one has none")
    return q.objective


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
    obj = _objective(q, "repair")
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


def _near_lowest(scores: np.ndarray) -> np.ndarray:
    """Which scores lie within a relative 1e-9 of the lowest."""
    lowest = scores.min()
    return scores <= lowest + 1e-9 * abs(lowest)


def _result(q: QuboInstance, producer_rows, name: str, seed: int, iterations: int) -> SolveResult:
    """The answer among candidate assignments, one producer row each, in
    the solver's order: the first row whose energy lies within a
    relative 1e-9 of the lowest, so exact ties resolve by that order
    rather than by summation noise. Energies are feasible_energies', the
    objective's closed form, so no offset's rounding enters the choice.
    The row is reported in canonical form with that form's energy."""
    rows = np.asarray(producer_rows)
    assignment = canonical_form(rows[np.argmax(_near_lowest(feasible_energies(q, rows)))], q.k)
    return SolveResult(
        assignment=assignment,
        energy=float(feasible_energies(q, [assignment.producer_of])[0]),
        solver_name=name,
        seed=seed,
        iterations=iterations,
    )


# assignments solve_exhaustive lays out and scores at once
_EXHAUSTIVE_BLOCK = 2**9


def solve_exhaustive(q: QuboInstance, max_vars: int = 24) -> SolveResult:
    """Global feasible optimum by enumerating all k^n assignments.

    Assignments are generated in lexicographic producer_of order, so
    exact energy ties resolve to the lexicographically smallest vector.
    They are scored from q.objective (required: an imported instance has
    none) in blocks built from their codes (producer_of in base k),
    keeping only the codes _near_lowest the running lowest. That bound
    rises with the lowest, so a dropped code is not near the final one.
    """
    _objective(q, "the exhaustive solver")
    if q.num_vars > number(max_vars, "max_vars", SolverError, integer=True):
        raise SolverError(
            f"instance has {q.num_vars} variables, exhaustive cap is {max_vars}"
        )
    n, k = q.n, q.k
    count = k**n
    places = k ** np.arange(n - 1, -1, -1)
    kept, scores = np.empty(0, dtype=np.int64), np.empty(0)
    for lo in range(0, count, _EXHAUSTIVE_BLOCK):
        codes = np.arange(lo, min(lo + _EXHAUSTIVE_BLOCK, count))
        kept = np.concatenate((kept, codes))
        scores = np.concatenate((scores, feasible_energies(q, codes[:, None] // places % k)))
        near = _near_lowest(scores)
        kept, scores = kept[near], scores[near]
    return _result(q, [kept[0] // places % k], "exhaustive", 0, count)


def _auto_temperatures(obj: Objective, k: int) -> tuple[float, float]:
    """t_initial = the largest single-flip reach, |lin| plus the
    |coupling| sum of a QUBO row, and t_final = 1e-4 of it. Each row
    holds the builder's floats and is summed in its column order: j
    one-hot entries 2*gamma, the pairs at producer j by ascending node
    (2*alpha*w_a*w_b for a < b, plus the edge coefficient on an edge),
    then k-1-j one-hot entries. The sums of all n*k rows advance
    together, one column at a time, so no n*n array is built."""
    w, n = obj.weights, obj.weights.size
    reach = 2.0 * obj.alpha * w
    one_hot = abs(2.0 * obj.gamma)
    neighbours = _neighbours(obj)
    sums = np.zeros((n, k))  # sums[i, j]: row (i, j) so far
    with np.errstate(over="ignore"):  # an overflowed row sum is inf, refused below
        for j in range(1, k):
            sums[:, j:] += one_hot
        pair = np.empty(n)
        for b in range(n):  # the pairs' column b of every row, then |.|
            pair[:b] = reach[:b] * w[b]
            pair[b] = 0.0
            pair[b + 1:] = reach[b] * w[b + 1:]
            for a, coeff in neighbours[b]:
                pair[a] += coeff
            sums += np.abs(pair, out=pair)[:, None]
        for j in range(1, k):
            sums[:, :k - j] += one_hot
        t_initial = float((np.abs(obj.lin)[:, None] + sums).max())
    if not math.isfinite(t_initial):
        raise SolverError("the largest single-flip energy change, the derived initial "
                          "temperature, is not finite; scale the penalties down")
    if t_initial <= 0.0:
        t_initial = 1.0
    return t_initial, 1e-4 * t_initial


def _temperature_schedule(obj: Objective, k: int, cfg: AnnealConfig) -> np.ndarray:
    """cfg's temperatures, or _auto_temperatures' if it sets none, one per sweep."""
    if cfg.t_initial is None:
        t_initial, t_final = _auto_temperatures(obj, k)
    else:
        t_initial, t_final = cfg.t_initial, cfg.t_final
    space = np.geomspace if cfg.schedule == "geometric" else np.linspace
    try:
        return space(t_initial, t_final, cfg.sweeps)
    except (ValueError, MemoryError):  # too big for numpy to lay out
        raise SolverError(f"sweeps={cfg.sweeps} is too many: cannot allocate "
                          f"its temperature schedule") from None


# limits held at once per restart; at least one sweep's worth
_LIMIT_BLOCK = 2**15

# every limit -t * log1p(-u), u < 1, lies below _CEILING * t: -log1p(-u)
# is at most 53 * ln 2 ~ 36.74, as u is a multiple of 2**-53
_CEILING = 37.0


class _Limits:
    """A restart's acceptance limits, indexed by sweep: row s holds
    -temps[s] * log1p(-u), u drawn uniform in [0, 1) per proposal. One
    buffer of at most _LIMIT_BLOCK terms (at least one sweep) is refilled
    in place a block of sweeps at a time, in sweep order. rng.random
    continues one stream and each term is the same IEEE product, so the
    rows equal the whole (sweeps, nv) table drawn at once, bit for bit.
    ceiling[s] is _CEILING times the largest temperature from sweep s on,
    so no limit from sweep s on reaches it."""

    def __init__(self, rng, temps: np.ndarray, ceiling: np.ndarray, nv: int):
        self.rng, self.temps, self.ceiling = rng, temps, ceiling
        self.buf = np.empty((min(len(temps), max(1, _LIMIT_BLOCK // nv)), nv))
        self.lo = self.hi = 0  # buf holds sweeps lo..hi-1

    def _next_block(self) -> None:
        lo, hi = self.hi, min(self.hi + len(self.buf), len(self.temps))
        out = self.buf[:hi - lo]
        self.rng.random(out=out)
        np.negative(out, out=out)
        # log1p(-u) <= 0, so a downhill move always passes its limit
        np.log1p(out, out=out)
        with np.errstate(over="ignore"):  # a limit past the float range is +inf (solve_anneal)
            np.multiply(-self.temps[lo:hi, None], out, out=out)
        self.lo, self.hi = lo, hi

    def row(self, sweep: int) -> list[float]:
        """Sweep `sweep`'s limits as Python floats; sweeps are read in
        order, apart from the ones first_acceptance passes over."""
        if sweep == self.hi:
            self._next_block()
        return self.buf[sweep - self.lo].tolist()

    def first_acceptance(self, deltas: np.ndarray, sweep: int):
        """The first sweep, from sweep `sweep` on, in which some var has
        deltas[var] <= limit; None if there is none. Rows are compared
        in windows of 1, 2, 4, ... sweeps, each cut at the end of its
        block, so a near hit costs one small comparison and a distant
        one few numpy calls. The scan stops, drawing nothing more, at
        the first window whose ceiling lies below every delta (fmin
        skips a NaN, which never passes)."""
        lowest = float(np.fmin.reduce(deltas))
        width = 1
        while sweep < len(self.temps) and not lowest > self.ceiling[sweep]:
            if sweep == self.hi:
                self._next_block()
            row = sweep - self.lo
            hits = deltas <= self.buf[row:min(row + width, self.hi - self.lo)]
            if hits.any():
                return sweep + int(hits.argmax()) // deltas.size
            sweep, width = min(sweep + width, self.hi), width * 2
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


def _walk(obj: Objective, x, S, L, c, current: float, limits: _Limits):
    """Anneal one restart of _restart_bests from its _start state against
    the stream limits, one n*k wide row per sweep; returns the lowest
    raw energy seen and its bits as x. Proposal (sweep, v) flips bit
    v = j*n + i when sign * field <= limit, sign = 1 - 2 * x[j][i]. A
    flip updates x, L[j], c[i] and S[j] at i's neighbours, adding or
    subtracting each value (x - c is exactly x + (-c)). After a sweep
    with no flip the state cannot change until the next accepted
    proposal, so the sweep holding it is found by comparing the deltas
    the sweep kept in seen with the following sweeps' limits
    (_Limits.first_acceptance), and the loop resumes at bit 0 of that
    sweep: its proposals before the hit fail again, as the state, their
    deltas and their limits are unchanged. Only a rejected proposal's
    delta is kept, as only a sweep that rejects every proposal is read;
    every sweep begins at bit 0, so seen is then complete."""
    lin, reach, w, g2, neighbours = _field_terms(obj)
    k, n = len(L), len(c)
    seen = [[0.0] * n for _ in range(k)]
    best_raw, best_x = current, [bits[:] for bits in x]
    sweep = 0
    while sweep < len(limits.temps):
        lims = limits.row(sweep)
        frozen = True
        for j in range(k):
            xj, Sj, dj, lim = x[j], S[j], seen[j], lims[j * n:(j + 1) * n]
            load = L[j]
            for i in range(n):
                if xj[i]:
                    delta = -(lin[i] + Sj[i] + reach[i] * (load - w[i]) + g2 * (c[i] - 1.0))
                    if not delta <= lim[i]:  # as written, so a NaN never flips
                        dj[i] = delta
                        continue
                    xj[i] = 0.0
                    load -= w[i]
                    c[i] -= 1.0
                    for u, coeff in neighbours[i]:
                        Sj[u] -= coeff
                else:
                    delta = lin[i] + Sj[i] + reach[i] * load + g2 * c[i]
                    if not delta <= lim[i]:
                        dj[i] = delta
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
        sweep += 1
        if frozen:
            sweep = limits.first_acceptance(np.array(seen).ravel(), sweep)
            if sweep is None:
                break
    return best_raw, best_x


def _restart_bests(q: QuboInstance, temps: np.ndarray, cfg: AnnealConfig):
    """Each restart's lowest raw-energy bits, flat, restart by restart, at
    any k. Restart r draws from child r of SeedSequence(cfg.seed) its
    random feasible start, then its limits at temps (_Limits), against
    which _walk anneals it from _start. q.objective must be set."""
    obj, nv = q.objective, q.num_vars
    # a temperature near the largest float gives limits and ceilings of
    # +inf, as Python floats give them: every finite delta then passes
    with np.errstate(over="ignore"):
        ceiling = _CEILING * np.maximum.accumulate(temps[::-1])[::-1]
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        bits = np.zeros(nv)
        bits[rng.integers(0, q.k, size=q.n) * q.n + np.arange(q.n)] = 1.0
        _, best = _walk(obj, *_start(obj, q.offset, bits), _Limits(rng, temps, ceiling, nv))
        yield np.ravel(best)


def solve_anneal(q: QuboInstance, cfg: AnnealConfig) -> SolveResult:
    """Single-bit-flip Metropolis annealing on q.objective (required: an
    imported instance has none), best of cfg.restarts restarts, each
    started from a random feasible assignment (_restart_bests). The
    schedule, auto temperatures from the objective's QUBO rows
    included, is laid out first, so its refusals hold at k = 1 too,
    which is answered without a walk.

    Proposal (sweep, v) flips bit v = (i, j) when sign * field <= limit,
    with sign = 1 - 2 * bit and limit = -temp[sweep] * log1p(-u), u drawn
    uniform in [0, 1) for every proposal. The limits are drawn as the
    walk reaches them, into one buffer of at most _LIMIT_BLOCK terms
    (_Limits), so a restart holds O(n*k) of them whatever the sweep
    count; each is the same IEEE product as the scalar one. A frozen
    stretch from which no limit can reach the lowest delta ends the
    restart without drawing the rest. The field is lin + S[j][i] +
    2*alpha*w_i*(L_j - w_i*bit) + 2*gamma*(c_i - bit): lin the QUBO's
    linear coefficient, S[j][i] the edge coefficients of i's neighbours
    at j, L_j the load of j and c_i the bits node i has set. A proposal
    is O(1) and a flip updates O(degree + 1) sums (_walk). Frozen sweeps
    are skipped exactly, by comparing the deltas the walk computed in
    the sweep that froze with the limits that follow; the walk resumes
    at bit 0 of the first sweep with a passing proposal, so every result
    equals a plain proposal-by-proposal scan of the same rule.

    The lowest raw-energy state seen in each restart is repaired by
    decode_and_repair's rule; restarts compete on post-repair energy,
    ties to the earliest restart.
    """
    obj = _objective(q, "the annealer")
    temps = _temperature_schedule(obj, q.k, cfg)
    iterations = cfg.sweeps * q.num_vars * cfg.restarts
    if q.k == 1:  # every node on producer 0 is the only feasible answer
        return _result(q, [[0] * q.n], "anneal", cfg.seed, iterations)
    repaired = [_repair(obj, best).producer_of for best in _restart_bests(q, temps, cfg)]
    return _result(q, repaired, "anneal", cfg.seed, iterations)


def _fixed_tables(neighbours, w, alpha):
    """What _move_tables and _local_search read that stays fixed
    through a descent: every (node, neighbour, edge coefficient) of
    the neighbour lists, node by node in list order; the weights w and
    2*alpha*w; and the weight d[i, j] = w_j - w_i that swapping i and j
    moves onto i's producer, and 2*alpha*d."""
    node = np.array([i for i, edges in enumerate(neighbours) for _ in edges], dtype=np.intp)
    nbr = np.array([u for edges in neighbours for u, _ in edges], dtype=np.intp)
    coeff = np.array([c for edges in neighbours for _, c in edges], dtype=float)
    d = w - w[:, None]
    return node, nbr, coeff, w, 2.0 * alpha * w, d, 2.0 * alpha * d


def _greedy_seed(orders, neighbours, w, alpha, k):
    """Greedy seeding, one restart after another, each from its own order
    of the nodes. Node i goes to the producer j of lowest cost
    2*alpha*w_i*L_j, the annealer's balance field, to which the
    coefficients of i's neighbours already at j are then added in
    neighbour-list order; the first minimum wins. neighbours holds each
    node's (neighbour, edge coefficient) pairs. Returns producer ids
    (restarts, n) and loads (restarts, k)."""
    reach = [2.0 * alpha * wi for wi in w]
    producers, loads = [], []
    for order in orders:
        p, load = [-1] * len(w), [0.0] * k
        for i in order:
            cost = [reach[i] * lj for lj in load]
            for u, coeff in neighbours[i]:
                if p[u] >= 0:
                    cost[p[u]] += coeff
            p[i] = best = cost.index(min(cost))
            load[best] += w[i]
        producers.append(p)
        loads.append(load)
    return np.array(producers), np.array(loads)


def _move_tables(p, loads, fixed):
    """Deltas of every move at producer ids p (restarts, n), one row of
    n*k + n*n per restart: relocating node i to producer j at i*k + j,
    then swapping the producers of nodes i and j at n*k + i*n + j.
    Moves that are not candidates (own producer, shared producer) hold
    +inf.

    g[r, i, j] sums the coefficients of i's neighbours at producer j
    from +0.0 in neighbour-list order (np.add.at applies repeated
    indices in index order). Relocating i from a to j changes the edge
    terms by g[i, j] - g[i, a]; swapping i (at a) with j (at b) by
    (g[i, b] - g[i, a]) + (g[j, a] - g[j, b]), less 2*c_ij where i and j
    are neighbours, as a swap leaves that edge cut. The balance change
    is added after, priced by the annealer's field rule: 2*alpha*w_i *
    (L_j - (L_a - w_i)) for a relocation, and 2*alpha*d * ((L_a - L_b)
    + d) for a swap, d = w_j - w_i. The swap block is symmetric bit for
    bit: (j, i) adds the same edge parts and 2*c_ij, and negates both
    balance factors, which IEEE arithmetic does exactly. fixed is
    _fixed_tables(neighbours, w, alpha)."""
    (r, n), k = p.shape, loads.shape[1]
    node, nbr, coeff, w, reach, d, reach_d = fixed
    rows = np.arange(r)[:, None]
    g = np.zeros((r, n, k))
    np.add.at(g, (rows, node, p[:, nbr]), coeff)
    rel = g - g[rows, np.arange(n), p][:, :, None]
    swp = rel[rows[:, :, None], np.arange(n)[:, None], p[:, None, :]]  # g[i, b] - g[i, a]
    swp = swp + swp.transpose(0, 2, 1)
    swp[rows, node, nbr] -= 2.0 * coeff

    own = loads[rows, p]
    rel += reach[:, None] * (loads[:, None, :] - (own - w)[:, :, None])
    np.putmask(rel, p[:, :, None] == np.arange(k), np.inf)
    swp += reach_d * ((own[:, :, None] - own[:, None, :]) + d)
    np.putmask(swp, p[:, :, None] == p[:, None, :], np.inf)
    return np.concatenate((rel.reshape(r, -1), swp.reshape(r, -1)), axis=1)


def _local_search(p, loads, fixed):
    """Best-improvement relocate/swap descent of all restarts in lockstep.

    p (restarts, n) producer ids and loads (restarts, k) are updated in
    place; returns the moves applied per restart. fixed is
    _fixed_tables(neighbours, w, alpha). Each step reads _move_tables
    and applies each restart's first minimum if it lies below -1e-12;
    a restart whose minimum does not stops. Relocations come first in
    the row, so an exact tie goes to the relocation, and the swap
    block is symmetric, so its first minimum lies at some i < j.
    """
    (r, n), k = p.shape, loads.shape[1]
    w = fixed[3]
    group = max(1, 2**20 // n**2)  # restarts per step, bounding the swap tables
    moves = np.zeros(r, dtype=np.int64)
    todo = np.arange(r)
    while todo.size:
        live = todo[:group]
        table = _move_tables(p[live], loads[live], fixed)
        at = table.argmin(axis=1)
        move = table[np.arange(live.size), at] < -1e-12
        relocate, swap = move & (at < n * k), move & (at >= n * k)

        rows, (i, dest) = live[relocate], np.divmod(at[relocate], k)
        loads[rows, p[rows, i]] -= w[i]
        loads[rows, dest] += w[i]
        p[rows, i] = dest

        rows, (i, j) = live[swap], np.divmod(at[swap] - n * k, n)
        a, b = p[rows, i], p[rows, j]
        loads[rows, a] += w[j] - w[i]
        loads[rows, b] += w[i] - w[j]
        p[rows, i], p[rows, j] = b, a

        moves[live] += move
        todo = np.concatenate([live[move], todo[group:]])
    return moves


def solve_heuristic(q: QuboInstance, seed: int = 0, restarts: int = 8) -> SolveResult:
    """Greedy seeding plus best-improvement local search on q.objective
    (relocate one node, or swap two nodes across producers), repeated
    over restarts with different seeding orders.

    Node terms are left out: a feasible assignment pays each of them
    exactly once. Restart 0 seeds nodes heaviest-first; later restarts
    use random orders. Seeding scans one restart after another
    (_greedy_seed). All restarts then descend in lockstep
    (_local_search), in groups whose swap tables stay near 8 MB, each
    step applying the first minimum of every restart's row of move
    deltas (_move_tables); each restart matches a scalar scan bit for
    bit. Restarts compete on the feasible_energies of their final
    assignments, the objective's closed form with no offset, ties to
    the earliest restart, so results line up with the other solvers.
    """
    restarts = number(restarts, "restarts", SolverError, integer=True, least=1)
    seed = number(seed, "seed", SolverError, integer=True, least=0)
    obj = _objective(q, "the heuristic")
    n = q.n
    if q.k == 1:  # every node on producer 0 is the only feasible answer
        return _result(q, [[0] * n], "heuristic", seed, 0)
    weights, neighbours = obj.weights.tolist(), _neighbours(obj)

    orders = [sorted(range(n), key=lambda i: (-weights[i], i))] + [
        np.random.default_rng(child).permutation(n).tolist()
        for child in np.random.SeedSequence(seed).spawn(restarts - 1)
    ]
    producers, loads = _greedy_seed(orders, neighbours, weights, obj.alpha, q.k)
    moves = _local_search(producers, loads, _fixed_tables(neighbours, obj.weights, obj.alpha))
    return _result(q, producers, "heuristic", seed, int(moves.sum()))
