"""Assemble the producer-assignment objective as a QUBO.

The assignment of n nodes to k producers is encoded in n*k binary
variables x[i, j] ("node i belongs to producer j"), flattened as
var = j*n + i. The objective combines three terms:

  beta  * the graph term              the pipes, read one of two ways
  alpha * (sum_i w_i x_ij - W/k)^2    producer load balance, W = sum w_i
  gamma * (sum_j x_ij - 1)^2          each node picks exactly one producer

Expanding the squares yields linear coefficients, strictly
upper-triangular quadratic coefficients, and a constant offset, so QUBO
energies equal the objective value directly, with no dropped constants.

The graph term is read one of two ways. build_qubo's "within" is
sum_j x_j' DL x_j, DL the zero-diagonal edge-distance matrix: it
charges 2*beta*d for every pipe of length d kept inside one producer's
area, so on its own it pushes neighbours apart (balance and one-hot
terms do the grouping). build_unweighted_qubo's "cut", with unit
weights, is sum_j x_j' L x_j, L the graph Laplacian (Lucas,
arXiv:1302.5843, section 2.2): it charges 2*beta for every pipe between
two areas, which rewards keeping neighbours together. Both builders
call one, _build; tests/test_qubo.py pins both readings. The builder
builds only the Objective, and the instance derives all else from it.
A producer's terms, one-hot pairs included, are laid out once
(_layout), in key order; the expansion tiles that layout at every
producer, and a refused build names its first bad term from it. An
instance's terms are stored once, as arrays in key order (linear terms
by variable, quadratic ones by (row, col)), expanded on first use or
read from a file by import_qubo; its dicts are views of them. energies()
adds the terms of any bit vector in that order, offset first, so an
instance and its exported copy give the same floats. feasible_energies
scores feasible assignments from the Objective in its closed form,
which has no offset: the penalty terms, which cancel in the offset
form, are never summed, so a large gamma or n costs no precision.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math

import numpy as np

from . import graphs
from .demand import WeightVector, uniform_weights
from .ioutil import atomic_write_text, number, number_array


class QuboError(ValueError):
    """Raised when an instance or its inputs are invalid."""


class QuboFormatError(QuboError):
    """Raised when a coordinate-format file cannot be parsed."""


@dataclasses.dataclass(frozen=True)
class PenaltyConfig:
    """The three penalty constants of the objective (module docstring):
    beta on the graph term, alpha on every producer's load balance and
    gamma on every node's one-hot square. Each must be a finite,
    positive number (ioutil.number) and is stored as a float."""

    beta: float = 1.0
    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta", "alpha", "gamma"):
            value = number(getattr(self, name), name, QuboError)
            if not math.isfinite(value) or value <= 0.0:
                raise QuboError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)


@dataclasses.dataclass(frozen=True, eq=False)
class Objective:
    """What a QUBO expands. Per producer j: edge_coeff[e] for each edge
    ends[e] inside j, node_linear[i] for each node i at j, and
    alpha * (load_j - target)^2, load_j the weights at j. Per node i:
    gamma * (producers of i - 1)^2. The four arrays are read-only copies
    of n node and m edge entries: n is the weights', and ends are m
    distinct integer (u, v) pairs with 0 <= u < v < n."""

    ends: np.ndarray  # (m, 2)
    edge_coeff: np.ndarray  # (m,)
    node_linear: np.ndarray  # (n,)
    weights: np.ndarray  # (n,)
    target: float
    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("ends", "edge_coeff", "node_linear", "weights"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n, ends = self.weights.size, self.ends
        if ends.dtype.kind not in "iu":
            raise QuboError(f"objective does not fit: edge ends of dtype {ends.dtype}, not integers")
        if not (self.weights.shape == self.node_linear.shape == (n,)
                and ends.shape == self.edge_coeff.shape + (2,) and np.all((0 <= ends) & (ends < n))):
            raise QuboError(f"objective does not fit: {n} weights, {self.node_linear.size} node terms, "
                            f"{self.edge_coeff.size} edge coefficients, edge ends of shape {ends.shape} "
                            f"in {ends.min(initial=0)}..{ends.max(initial=0)}")
        if not (np.all(ends[:, 0] < ends[:, 1])
                and np.unique(ends[:, 0] * n + ends[:, 1]).size == len(ends)):
            raise QuboError("objective edge ends must be distinct (u, v) pairs with u < v")

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a non-finite term is the build check's to name
    def lin(self) -> np.ndarray:
        """The QUBO's linear coefficient of (i, j), the same at every j,
        read-only: node_linear[i] + alpha * (w_i^2 - 2*target*w_i) - gamma."""
        w = self.weights
        lin = (self.node_linear + self.alpha * (w * w - 2.0 * self.target * w)) - self.gamma
        lin.flags.writeable = False
        return lin


# An instance's stored terms, read-only arrays in key order: linear
# (variables, values) by variable, then quadratic (rows, cols, values).
Terms = collections.namedtuple("Terms", "lin_vars lin_vals rows cols vals")


class QuboInstance:
    """Coefficients of one assignment problem.

    A built instance is given k and a builder's objective alone: n is
    the objective's, the offset adds alpha*target^2 k times, then gamma
    n times, and the terms are expanded from it on first use (_expand),
    which no solver needs; the build checks them from the objective's
    O(n + m) closed-form parts (_check_objective_terms), and only a
    refusal lays out producer 0's terms, to name the first bad one. An
    imported one is given n, k, the offset and the terms that
    _checked_terms checks and stores. n and k are integers of at least
    1 and the offset a number (ioutil.number).
    terms holds every nonzero term in key order; every coefficient and
    the offset are finite. linear (variable -> coefficient) and
    quadratic ((v1, v2) with v1 < v2 -> coefficient) are dict views of
    terms, built on first use. Instances are immutable; equality
    compares n, k, the offset and the terms.
    """

    def __init__(self, *, k: int, n: int | None = None, offset: float | None = None,
                 objective: Objective | None = None, terms: Terms | None = None) -> None:
        k = number(k, "k", QuboError, integer=True, least=1)
        if sum(x is None for x in (n, offset, terms)) != (0 if objective is None else 3):
            raise QuboError("give an instance k and either its objective alone or n, the offset and its terms")
        if objective is not None:
            n, offset, obj = objective.weights.size, 0.0, objective
            for term in itertools.chain(itertools.repeat(obj.alpha * obj.target * obj.target, k),
                                        itertools.repeat(obj.gamma, n)):
                offset += term
        n = number(n, "n", QuboError, integer=True, least=1)
        offset = number(offset, "offset", QuboError)
        for name, value in (("n", n), ("k", k), ("offset", offset), ("objective", objective)):
            object.__setattr__(self, name, value)
        if not math.isfinite(offset):
            raise QuboError(f"offset is {offset!r}, not finite")
        if terms is not None:
            vars(self)["terms"] = _checked_terms(terms, n * k)
        else:
            _check_objective_terms(objective, k)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuboInstance is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, QuboInstance):
            return NotImplemented
        return (self.n, self.k, self.offset) == (other.n, other.k, other.offset) and all(
            map(np.array_equal, self.terms, other.terms))

    def __repr__(self) -> str:
        return f"QuboInstance(n={self.n}, k={self.k}, offset={self.offset!r})"

    @functools.cached_property
    def terms(self) -> Terms:
        return _expand(self.objective, self.k)

    @functools.cached_property
    def linear(self) -> dict[int, float]:
        return dict(zip(self.terms.lin_vars.tolist(), self.terms.lin_vals.tolist()))

    @functools.cached_property
    def quadratic(self) -> dict[tuple[int, int], float]:
        t = self.terms
        return dict(zip(zip(t.rows.tolist(), t.cols.tolist()), t.vals.tolist()))

    @property
    def num_vars(self) -> int:
        return self.n * self.k


def _read_only(terms: Terms) -> Terms:
    for arr in terms:
        arr.flags.writeable = False
    return terms


def _broken(a: np.ndarray, b: np.ndarray, vals: np.ndarray, lin: np.ndarray, nv: int):
    """Which rules each term (a, b) -> vals breaks, as a (5, terms)
    array, and the positions that read the terms in key order; lin
    marks the linear terms, whose a == b. The rules: an id
    outside 0..nv-1, a quadratic pair with a >= b, a key that an earlier
    term holds, a zero value, a value that is not finite."""
    limit = min(max(nv, 0), np.iinfo(np.int64).max)  # a bound any numpy compares int64 with
    at = np.lexsort((b, a))  # stable, so the first of equal keys is no repeat
    repeat = np.zeros(a.size, dtype=bool)
    repeat[at[1:]] = (a[at[1:]] == a[at[:-1]]) & (b[at[1:]] == b[at[:-1]])
    return np.array([(a < 0) | (a >= limit) | (b < 0) | (b >= limit), ~lin & (a >= b),
                     repeat, vals == 0.0, ~np.isfinite(vals)]), at


def _first_broken(broken: np.ndarray):
    """The first term that breaks a rule of broken, a (rules, terms)
    array, and the first rule it breaks; or None."""
    bad = np.flatnonzero(broken.any(axis=0))
    return (bad[0], np.argmax(broken[:, bad[0]])) if bad.size else None


def _fault(lin: bool, a, b, c: float, rule: int, nv: int) -> str:
    """QuboInstance's message for the term (a, b) -> c, linear or not,
    that breaks rule (a row of _broken)."""
    kind, key = ("linear", f"variable {a}") if lin else ("quadratic", f"({a}, {b})")
    name = f"linear {key}" if lin else f"quadratic key {key}"
    misplaced = f"{name} outside" if lin else f"{name} is not strictly upper-triangular within"
    return (*[f"{misplaced} 0..{nv - 1}"] * 2, f"{name} stored twice",
            f"zero {kind} coefficient stored for {key}",
            f"{kind} coefficient of {key} is {c!r}, not finite")[rule]


def _checked_terms(terms, nv: int) -> Terms:
    """Read-only int64 and float64 copies of terms, a Terms of 1-D
    arrays: ids of an integer type that int64 holds, values of a float
    type, one value per key; the copies are in key order. The first term
    to break a rule of _broken (linear ones first, each block in the
    given order) raises QuboError, naming the first rule it breaks."""
    types = ((np.int64, "iu"), (float, "f"), (np.int64, "iu"), (np.int64, "iu"), (float, "f"))
    if not (
        isinstance(terms, Terms)
        and all(isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in kinds
                and np.can_cast(x.dtype, to) for x, (to, kinds) in zip(terms, types))
        and terms.lin_vars.size == terms.lin_vals.size
        and terms.rows.size == terms.cols.size == terms.vals.size
    ):
        raise QuboError("terms must be a Terms of 1-D arrays, integer ids and float values, "
                        "one value per key")
    t = Terms(*(np.asarray(x, dtype=to) for x, (to, _) in zip(terms, types)))
    orders = []
    for lin, a, b, vals in ((True, t.lin_vars, t.lin_vars, t.lin_vals), (False, t.rows, t.cols, t.vals)):
        broken, order = _broken(a, b, vals, np.full(a.size, lin), nv)
        first = _first_broken(broken)
        if first:
            at, rule = first
            raise QuboError(_fault(lin, a[at], b[at], float(vals[at]), rule, nv))
        orders.append(order)
    lin, quad = orders
    return _read_only(Terms(t.lin_vars[lin], t.lin_vals[lin], t.rows[quad], t.cols[quad], t.vals[quad]))


def _weight_array(w, n: int) -> np.ndarray:
    arr = number_array(w.values if isinstance(w, WeightVector) else w, "weights", QuboError)
    if arr.ndim != 1:
        raise QuboError(f"weights must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise QuboError("weights must be finite and strictly positive")
    if arr.size != n:
        raise QuboError(f"got {arr.size} weights for {n} nodes")
    return arr


def _check_k(n: int, k) -> int:
    k = number(k, "k", QuboError, integer=True, least=1)
    if k > n:
        raise QuboError(
            f"more producers than nodes (k={k} > n={n}) makes balance "
            f"targets degenerate"
        )
    return k


@np.errstate(over="ignore", invalid="ignore")  # a non-finite term is the build check's to name
def _layout(obj: Objective, k: int) -> Terms:
    """Producer 0's terms in key order, as a Terms: its linear terms,
    then per row u its pairs (u, v), v > u, with zeros dropped, then its
    one-hot pairs (u, j*n + u), j = 1..k-1. A pair holds the balance term
    2*alpha*w_u*w_v, added to edge_coeff if it is an edge; a one-hot pair
    holds 2*gamma. Producer j holds the same terms at keys shifted by
    j*n, less the one-hot pairs shifted past the last producer."""
    n, w, (u, v) = obj.weights.size, obj.weights, obj.ends.T
    us, vs = np.triu_indices(n, 1)
    vals = 2.0 * obj.alpha * w[us] * w[vs]
    edges = u * (2 * n - 1 - u) // 2 + v - u - 1  # each edge's position among the pairs
    vals[edges] = obj.edge_coeff + vals[edges]
    nodes, quad, hot = np.flatnonzero(obj.lin), vals != 0.0, np.repeat(np.arange(n), k - 1)
    rows = np.concatenate([us[quad], hot])
    at = np.argsort(rows, kind="stable")  # a row's pairs stay before its one-hot pairs
    return Terms(nodes, obj.lin[nodes], rows[at],
                 np.concatenate([vs[quad], hot + n * np.tile(np.arange(1, k), n)])[at],
                 np.concatenate([vals[quad], np.full(hot.size, 2.0 * obj.gamma)])[at])


def _expand(obj: Objective, k: int) -> Terms:
    """The terms of a built instance in key order: the _layout tiled at
    every producer j, keys shifted by j*n, dropping the one-hot pairs
    whose column passes the last producer. Each coefficient adds its
    parts in a fixed order (graph or node term, balance, one-hot);
    tests/oracles.py accumulated_terms is the term-by-term reference."""
    n, t = obj.weights.size, _layout(obj, k)
    shift = n * np.arange(k)[:, None]  # producer j's keys are producer 0's plus j*n
    cols = (shift + t.cols).ravel()
    kept = cols < n * k
    return _read_only(Terms((shift + t.lin_vars).ravel(), np.tile(t.lin_vals, k),
                            (shift + t.rows).ravel()[kept], cols[kept], np.tile(t.vals, k)[kept]))


@np.errstate(over="ignore", invalid="ignore")
def _check_objective_terms(obj: Objective, k: int) -> None:
    """QuboInstance's term checks on a built instance, in O(n + m), with
    no terms kept. Every producer holds producer 0's terms, which are
    finite if 2*gamma is when k > 1, each edge's edge_coeff +
    2*alpha*w_u*w_v is, each row u's largest balance pair
    (2*alpha*w_u) * max |w_v|, v > u, is (float products grow with
    |w_v|), and Objective.lin is. If one is not, _checked_terms names
    the first non-finite term of the _layout."""
    n, w, (u, v) = obj.weights.size, obj.weights, obj.ends.T
    scale = 2.0 * obj.alpha * w
    largest = np.maximum.accumulate(np.abs(w)[::-1])[::-1]  # row u's is the largest |w_v|, v >= u
    if not ((k == 1 or math.isfinite(2.0 * obj.gamma)) and np.isfinite(obj.edge_coeff + scale[u] * w[v]).all()
            and np.isfinite(scale[:-1] * largest[1:]).all() and np.isfinite(obj.lin).all()):
        _checked_terms(_layout(obj, k), n * k)


def _pipes(topo: graphs.Topology) -> tuple[np.ndarray, np.ndarray]:
    """The ends, an (m, 2) int64 array, and the lengths of topo's m
    pipes, in edge order: the one read of topo.edges."""
    edges = np.array(topo.edges, dtype=object).reshape(-1, 3)
    return edges[:, :2].astype(np.int64), edges[:, 2].astype(float)


def _at_nodes(ends: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Each of the n nodes' sum of c over its pipes, added in edge order."""
    return np.bincount(ends.ravel(), weights=np.repeat(c, 2), minlength=n)


# an overflowing coefficient is QuboInstance's to reject, with no numpy warning first
@np.errstate(over="ignore", invalid="ignore")
def _build(topo: graphs.Topology, w, k: int, cfg: PenaltyConfig | None, cut: bool) -> QuboInstance:
    """The instance of build_qubo (weights w, the "within" graph term)
    or, if cut, of build_unweighted_qubo (unit weights, the "cut" graph
    term with c_e = 1); see module docstring."""
    n = topo.nodes
    k = _check_k(n, k)
    cfg = cfg or default_penalties(topo, uniform_weights(n) if cut else w, k)
    ends, lengths = _pipes(topo)
    if cut:
        c = np.ones(lengths.size)
        weights, edge_coeff, node_linear = np.ones(n), -2.0 * cfg.beta * c, cfg.beta * _at_nodes(ends, c, n)
    else:
        weights, edge_coeff, node_linear = _weight_array(w, n), 2.0 * cfg.beta * lengths, np.zeros(n)
    obj = Objective(ends=ends, edge_coeff=edge_coeff, node_linear=node_linear, weights=weights,
                    target=float(weights.sum()) / k, alpha=cfg.alpha, gamma=cfg.gamma)
    return QuboInstance(k=k, objective=obj)


def build_qubo(
    topo: graphs.Topology, w, k: int, cfg: PenaltyConfig | None = None
) -> QuboInstance:
    """Weighted objective over n*k variables with the "within" graph
    term; see module docstring.

    w may be a WeightVector or any positive vector; the balance target
    is W/k with W its actual sum, so unnormalised weights work too.
    cfg None takes default_penalties(topo, w, k).
    """
    return _build(topo, w, k, cfg, cut=False)


def build_unweighted_qubo(
    topo: graphs.Topology, k: int, cfg: PenaltyConfig | None = None
) -> QuboInstance:
    """Node-count variant: the "cut" graph term with unit weights, so a
    balance target of n/k nodes per producer. cfg None takes
    default_penalties(topo, uniform_weights(n), k).
    """
    return _build(topo, None, k, cfg, cut=True)


def energy(q: QuboInstance, bits) -> float:
    """Energy of one bit vector: the one-row case of energies()."""
    return float(energies(q, np.asarray(bits).reshape(1, -1))[0])


def energies(q: QuboInstance, bit_matrix: np.ndarray) -> np.ndarray:
    """Energy of many bit vectors, one per row; any nonzero entry counts
    as set.

    Each row is offset + its set linear terms + its set quadratic terms,
    added one at a time in key order (a cumulative sum along the terms,
    unset terms padded with -0.0, the exact additive identity), so every
    energy is one fixed float sum, the same for an instance and its
    exported copy; tests/oracles.py qubo_energy_direct is the reference.
    """
    mat = np.asarray(bit_matrix)
    if mat.ndim != 2 or mat.shape[1] != q.num_vars:
        raise QuboError(
            f"bit matrix must be (rows, {q.num_vars}), got shape {mat.shape}"
        )
    lin_vars, lin_vals, rows, cols, vals = q.terms
    width = 1 + lin_vals.size + vals.size
    out = np.empty(mat.shape[0])
    step = max(1, (1 << 20) // width)  # rows per block of ~2^20 terms
    for start in range(0, mat.shape[0], step):
        on = mat[start:start + step] != 0
        terms = np.full((on.shape[0], width), -0.0)
        terms[:, 0] = q.offset
        np.copyto(terms[:, 1:1 + lin_vals.size], lin_vals, where=on[:, lin_vars])
        np.copyto(terms[:, 1 + lin_vals.size:], vals, where=on[:, rows] & on[:, cols])
        out[start:start + step] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return out


def feasible_energies(q: QuboInstance, producer_rows) -> np.ndarray:
    """Energies of feasible assignments, one row of producer ids per
    assignment (node i at producer row[i]), in the objective's closed
    form, read from q's objective without its terms and with no offset:
    alpha * sum_j (L_j - target)^2, plus the edge coefficients whose two
    ends share a producer, plus the node terms. The loads L_j add the
    weights in node order (np.bincount), and each sum adds its terms one
    at a time, in producer, edge and node order (a cumulative sum), so
    every energy is one fixed float sum. The penalty terms do not cancel
    here, as they do in energies() of the row's one-hot bits, which
    agrees only to within rounding of the offset and the set terms.
    """
    obj = q.objective
    if obj is None:
        raise QuboError("feasible energies need the instance's objective; an imported one has none")
    rows = np.asarray(producer_rows)
    n, k = q.n, q.k
    if (rows.ndim != 2 or rows.shape[1] != n or rows.dtype.kind not in "iu"
            or np.any((rows < 0) | (rows >= k))):
        raise QuboError(f"producer rows must be (rows, {n}) ids in 0..{k - 1}")
    rows = rows.astype(np.intp)
    r = rows.shape[0]
    at = (rows + k * np.arange(r)[:, None]).ravel()  # row r's producer j is bin r*k + j
    loads = np.bincount(at, weights=np.tile(obj.weights, r), minlength=r * k)
    off = loads.reshape(r, k) - obj.target
    u, v = obj.ends.T
    terms = np.column_stack([obj.alpha * np.cumsum(off * off, axis=1)[:, -1],
                             np.where(rows[:, u] == rows[:, v], obj.edge_coeff, -0.0)])
    return np.cumsum(terms, axis=1)[:, -1] + np.cumsum(obj.node_linear)[-1]


def default_penalties(topo: graphs.Topology, w, k: int) -> PenaltyConfig:
    """Deterministic penalty heuristic: beta = 1, alpha and gamma scaled
    so that violating balance or one-hot feasibility never pays off on
    desk-scale instances.

    The distance scale S is the largest row sum of the edge-distance
    matrix; an edgeless graph has S = 0, which would zero out alpha, so
    S falls back to 1 there to keep every penalty strictly positive. A
    scale or an alpha past the float range raises QuboError.
    """
    n = topo.nodes
    k = _check_k(n, k)
    weights = _weight_array(w, n)
    beta = 1.0
    with np.errstate(over="ignore"):  # an overflowed sum is inf, refused below
        scale = float(_at_nodes(*_pipes(topo), n).max())
    if not math.isfinite(scale):
        raise QuboError(
            "the distance scale (the largest sum of pipe lengths at one node) "
            "is not finite; scale the pipe lengths down"
        )
    if scale == 0.0:
        scale = 1.0
    w_min = float(weights.min())
    w_max = float(weights.max())
    # a w_min**2 that underflows to 0 leaves alpha past the float range too
    alpha = beta * scale / (w_min * w_min) if w_min * w_min else math.inf
    gamma = 2.0 * (beta * scale + alpha * w_max)
    return PenaltyConfig(beta=beta, alpha=alpha, gamma=gamma)


def export_qubo(q: QuboInstance, path: str) -> None:
    """Write coordinate text plus a <path>.map sidecar tying variables
    to (node, producer) pairs. Floats use shortest round-trip decimals,
    so import reproduces every coefficient bit-exactly. The terms go
    out as stored, in key order, _BLOCK lines at a time, never whole.
    """
    t = q.terms
    atomic_write_text(path, itertools.chain(
        [f"p qubo {q.num_vars} {t.lin_vars.size} {t.vals.size} {q.offset!r}\n"],
        _lines(t.lin_vars, t.lin_vars, t.lin_vals),
        _lines(t.rows, t.cols, t.vals),
    ))
    var = np.arange(q.num_vars)
    atomic_write_text(path + ".map", itertools.chain([f"map {q.n} {q.k}\n"],
                                                     _lines(var, var % q.n, var // q.n)))


_BLOCK = 1 << 10  # lines written or read per step
_KIND = dict.fromkeys(["<offset>", "<value>"], float)  # fields of a form read as floats; others as ints


def _lines(a: np.ndarray, b: np.ndarray, vals: np.ndarray):
    """Lines '<a> <b> <value>' of the terms, _BLOCK at a time."""
    for lo in range(0, a.size, _BLOCK):
        at = slice(lo, lo + _BLOCK)
        yield "".join([f"{i} {j} {c!r}\n" for i, j, c in
                       zip(a[at].tolist(), b[at].tolist(), vals[at].tolist())])


def _column(kind: type, tokens: list[str]) -> np.ndarray:
    """tokens read by kind, int or float, as an int64 or a float array;
    ints past int64 are kept as Python ints, so each reads as written."""
    values = list(map(kind, tokens))
    try:
        return np.array(values, dtype=np.int64 if kind is int else float)
    except OverflowError:
        return np.array(values, dtype=object)


def _columns(lines: list[str], counts: np.ndarray, kinds) -> list[np.ndarray]:
    """The columns of lines, whose token counts are counts. Each line
    must be blank or one token per kind (a type per column) that the
    kind reads; any other raises ValueError."""
    if np.any((counts != 0) & (counts != len(kinds))):
        raise ValueError("a line of another token count")
    tokens = " ".join(lines).split()
    return [_column(kind, tokens[at::len(kinds)]) for at, kind in enumerate(kinds)]


def _read(path: str, head: str, entry: str):
    """The text file at path, a line of the form head and then lines blank
    or of the form entry, each form as its refusals print it. Refused in
    turn: an empty file, a bad header, text that is not UTF-8. Returns
    the header's fields; of the lines after it, read _BLOCK at a time,
    the numbers and columns of those before the first that does not read,
    that line's refusal or None, and how many are not blank. Lines split
    as str.splitlines splits the text; a UTF-8 byte-order mark is skipped."""
    words, kinds = head.split(), [_KIND.get(field, int) for field in entry.split()]
    fields, read, fault, count, lineno = None, [], None, 0, 2
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for text in iter(lambda: "".join(itertools.islice(fh, _BLOCK)), ""):
            lines = text.splitlines()
            if fields is None:  # the header is named before the text's bytes
                first = lines.pop(0)
                parts = first.split()
                if len(parts) != len(words) or any(w != p for w, p in zip(words, parts) if w[0] != "<"):
                    raise QuboFormatError(f"{path}: line 1: expected {head!r}, got {first!r}")
                try:
                    fields = [_KIND.get(w, int)(p) for w, p in zip(words, parts) if w[0] == "<"]
                except ValueError:
                    raise QuboFormatError(f"{path}: line 1: malformed header {first!r}") from None
            if not text.isascii():  # a byte that is not UTF-8 was read as a lone surrogate
                try:
                    text.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise QuboFormatError(f"{path}: not UTF-8 text ({exc})") from None
            counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
            count += np.count_nonzero(counts)
            if fault is None:
                end = len(lines)
                try:
                    cols = _columns(lines, counts, kinds)
                except ValueError:  # read the block up to its first unreadable line
                    for end, line in enumerate(lines):
                        try:
                            _columns([line], counts[end:end + 1], kinds)
                        except ValueError:
                            break
                    why = "malformed entry" if counts[end] == len(kinds) else f"expected {entry!r}, got"
                    fault = QuboFormatError(f"{path}: line {lineno + end}: {why} {line!r}")
                    cols = _columns(lines[:end], counts[:end], kinds)
                read.append([lineno + np.flatnonzero(counts[:end]), *cols])
            lineno += len(lines)
    if fields is None:
        raise QuboFormatError(f"{path}: file is empty")
    return fields, [np.concatenate(col) for col in zip(*read)], fault, count


def _entries(path: str):
    """The variable count, offset and terms of the coordinate file at
    path. After _read's refusals, the first faulty entry line is named:
    an id out of range, a repeated entry, i > j, or one _read could not
    read; then a count other than the header's."""
    (num_vars, num_linear, num_quad, offset), (linenos, a, b, vals), fault, _ = _read(
        path, "p qubo <vars> <linear> <quad> <offset>", "<i> <j> <value>")
    lin = a == b
    first = _first_broken(_broken(a, b, vals, lin, num_vars)[0][:3])  # the values come last
    if first:
        at, rule = first
        var = a[at] if not 0 <= int(a[at]) < num_vars else b[at]
        why = (f"variable {var} outside 0..{num_vars - 1}", "quadratic entry must have i < j",
               f"duplicate linear entry for {a[at]}" if lin[at]
               else f"duplicate quadratic entry ({a[at]}, {b[at]})")[rule]
        raise QuboFormatError(f"{path}: line {linenos[at]}: {why}")
    if fault:
        raise fault
    terms = Terms(a[lin], vals[lin], a[~lin], b[~lin], vals[~lin])
    if terms.lin_vars.size != num_linear or terms.rows.size != num_quad:
        raise QuboFormatError(
            f"{path}: header promises {num_linear} linear and {num_quad} "
            f"quadratic entries, found {terms.lin_vars.size} and {terms.rows.size}"
        )
    return num_vars, offset, terms


def _sidecar(path: str, num_vars: int) -> tuple[int, int]:
    """n and k of the .map sidecar at path, whose rows must list each of
    the num_vars variables once, producer-major. Named in turn: a missing
    file, _read's refusals, n*k, the row count, then the first faulty row."""
    try:
        (n, k), (linenos, var, node, producer), fault, count = _read(
            path, "map <n> <k>", "<var> <node> <producer>")
    except FileNotFoundError:
        raise QuboFormatError(f"{path}: sidecar mapping file not found") from None
    if n * k != num_vars:
        raise QuboFormatError(f"{path}: n*k = {n * k} does not match {num_vars} variables")
    if count != num_vars:
        raise QuboFormatError(f"{path}: expected {num_vars} mapping rows, found {count}")
    # rows are read only where n*k = num_vars rows are listed, so n fits int64
    first = var.size and _first_broken(np.array([
        (node != var % n) | (producer != var // n),  # var = producer*n + node, node < n
        *_broken(var, var, np.ones(var.size), np.ones(var.size, bool), num_vars)[0][[0, 2]],
    ]))
    if first:
        at, rule = first
        why = (f"mapping is not producer-major (expected var = producer*{n} + node)",
               f"variable {var[at]} outside 0..{num_vars - 1}", f"variable {var[at]} listed twice")[rule]
        raise QuboFormatError(f"{path}: line {linenos[at]}: {why}")
    if fault:
        raise fault
    return n, k


def import_qubo(path: str) -> QuboInstance:
    """The instance in a coordinate file and its <path>.map sidecar, its
    terms in any order. Both files are streamed as UTF-8, _BLOCK lines at
    a time, and may start with a byte-order mark. Each refusal names its
    file: the .qubo's faults first (_entries), then the sidecar's
    (_sidecar), then a zero or non-finite value."""
    num_vars, offset, terms = _entries(path)
    n, k = _sidecar(path + ".map", num_vars)
    try:
        return QuboInstance(n=n, k=k, offset=offset, terms=terms)
    except QuboError as exc:  # a zero or non-finite value, or n or k below 1
        raise QuboFormatError(f"{path}: {exc}") from None
