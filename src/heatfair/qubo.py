"""Assemble the producer-assignment objective as a QUBO.

The assignment of n nodes to k producers is encoded in n*k binary
variables x[i, j] ("node i belongs to producer j"), flattened as
var = j*n + i. The objective combines three terms:

  beta  * sum_j x_j' DL x_j           pipe distance between same-producer
                                      neighbours (DL is the zero-diagonal
                                      edge-distance matrix)
  alpha * (sum_i w_i x_ij - W/k)^2    producer load balance, W = sum w_i
  gamma * (sum_j x_ij - 1)^2          each node picks exactly one producer

Expanding the squares yields linear coefficients, strictly
upper-triangular quadratic coefficients, and a constant offset, so QUBO
energies equal the objective value directly, with no dropped constants.

Sign of the graph term: the weighted distance term charges 2*beta*d for
every pipe kept inside one producer's area, so on its own it pushes
neighbours apart (balance and one-hot terms do the grouping). The
unweighted variant (build_unweighted_qubo) instead charges beta for
every edge leaving a producer's area, which rewards keeping neighbours
together. tests/test_qubo.py pins both readings. Both builders read
every coefficient from one Objective, which the instance carries.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers

import numpy as np

from . import graphs
from .demand import WeightVector
from .ioutil import atomic_write_text


class QuboError(ValueError):
    """Raised when an instance or its inputs are invalid."""


class QuboFormatError(QuboError):
    """Raised when a coordinate-format file cannot be parsed."""


@dataclasses.dataclass(frozen=True)
class PenaltyConfig:
    """The three penalty constants of the objective (module docstring):
    beta on pipe distance, alpha on every producer's load balance and
    gamma on every node's one-hot square. Each must be a finite,
    positive real number (not a bool) and is stored as a float."""

    beta: float = 1.0
    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta", "alpha", "gamma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise QuboError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise QuboError(f"{name} must be finite and positive, got an "
                                f"integer beyond the float range") from None
            if not math.isfinite(value) or value <= 0.0:
                raise QuboError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)


@dataclasses.dataclass(frozen=True, eq=False)
class Objective:
    """What a QUBO expands. Per producer j: edge_coeff[e] for each edge
    ends[e] inside j, node_linear[i] for each node i at j, and
    alpha * (load_j - target)^2, load_j the weights at j. Per node i:
    gamma * (producers of i - 1)^2. The four arrays are read-only copies."""

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

    @property
    def lin(self) -> np.ndarray:
        """The QUBO's linear coefficient of (i, j), the same at every j:
        node_linear[i] + alpha * (w_i^2 - 2 * target * w_i) - gamma."""
        w = self.weights
        return (self.node_linear + self.alpha * (w * w - 2.0 * self.target * w)) - self.gamma


@dataclasses.dataclass(frozen=True)
class QuboInstance:
    """Coefficients of one assignment problem.

    linear maps variable -> coefficient; quadratic maps (v1, v2) with
    v1 < v2 -> coefficient; zero coefficients are not stored, and every
    coefficient and the offset are finite. Treat instances as immutable
    even though dicts technically are not: the term arrays are read from
    the dicts once and then cached. objective is what a builder expanded,
    sized for n nodes; an imported instance has none.
    """

    n: int
    k: int
    linear: dict[int, float]
    quadratic: dict[tuple[int, int], float]
    offset: float
    objective: Objective | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise QuboError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if not math.isfinite(self.offset):
            raise QuboError(f"offset is {self.offset!r}, not finite")
        nv = self.num_vars
        for v, coeff in self.linear.items():
            if not (0 <= v < nv):
                raise QuboError(f"linear variable {v} outside 0..{nv - 1}")
            if coeff == 0.0:
                raise QuboError(f"zero linear coefficient stored for variable {v}")
            if not math.isfinite(coeff):
                raise QuboError(f"linear coefficient of variable {v} is {coeff!r}, not finite")
        for (a, b), coeff in self.quadratic.items():
            if not (0 <= a < b < nv):
                raise QuboError(
                    f"quadratic key ({a}, {b}) is not strictly upper-triangular "
                    f"within 0..{nv - 1}"
                )
            if coeff == 0.0:
                raise QuboError(f"zero quadratic coefficient stored for ({a}, {b})")
            if not math.isfinite(coeff):
                raise QuboError(f"quadratic coefficient of ({a}, {b}) is {coeff!r}, not finite")
        obj = self.objective
        if obj is not None and not (
            obj.weights.shape == obj.node_linear.shape == (self.n,)
            and obj.ends.shape == obj.edge_coeff.shape + (2,)
            and np.all((0 <= obj.ends) & (obj.ends < self.n))
        ):
            raise QuboError(
                f"objective does not fit {self.n} nodes: {obj.weights.size} weights, "
                f"{obj.node_linear.size} node terms, {obj.edge_coeff.size} edge "
                f"coefficients, edge ends of shape {obj.ends.shape} in "
                f"{obj.ends.min(initial=0)}..{obj.ends.max(initial=0)}"
            )

    @property
    def num_vars(self) -> int:
        return self.n * self.k

    def var_index(self, node: int, producer: int) -> int:
        if not (0 <= node < self.n) or not (0 <= producer < self.k):
            raise QuboError(
                f"(node={node}, producer={producer}) outside "
                f"n={self.n}, k={self.k}"
            )
        return producer * self.n + node

    def node_producer(self, var: int) -> tuple[int, int]:
        if not (0 <= var < self.num_vars):
            raise QuboError(f"variable {var} outside 0..{self.num_vars - 1}")
        return var % self.n, var // self.n

    @functools.cached_property
    def _term_arrays(self):
        """Stored terms as read-only arrays in dict order: linear (vars,
        values), then quadratic (rows, cols, values)."""
        lin_vars = np.fromiter(self.linear, np.int64, len(self.linear))
        lin_vals = np.fromiter(self.linear.values(), float, len(self.linear))
        pairs = np.fromiter(
            itertools.chain.from_iterable(self.quadratic),
            np.int64,
            2 * len(self.quadratic),
        ).reshape(-1, 2)
        vals = np.fromiter(self.quadratic.values(), float, len(self.quadratic))
        arrays = (lin_vars, lin_vals, pairs[:, 0], pairs[:, 1], vals)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


def _weight_array(w, n: int) -> np.ndarray:
    if isinstance(w, WeightVector):
        arr = np.asarray(w.values, dtype=float)
    else:
        arr = np.asarray(w, dtype=float)
        if arr.ndim != 1:
            raise QuboError(f"weights must be a vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise QuboError("weights must be finite and strictly positive")
    if arr.size != n:
        raise QuboError(f"got {arr.size} weights for {n} nodes")
    return arr


def _check_k(n: int, k: int) -> None:
    if k < 1:
        raise QuboError(f"need at least one producer, got k={k}")
    if k > n:
        raise QuboError(
            f"more producers than nodes (k={k} > n={n}) makes balance "
            f"targets degenerate"
        )


def _assemble(
    topo: graphs.Topology,
    k: int,
    cfg: PenaltyConfig,
    edge_coeff: np.ndarray,
    node_linear: np.ndarray,
    weights: np.ndarray,
    target: float,
) -> QuboInstance:
    """Coefficients of the shared objective shape, all producers at once.

    Per producer: edge_coeff on each topology edge, node_linear on each
    node, and the balance square alpha * (sum_i w_i x_ij - target)^2;
    per node the one-hot square. Keys come out in a fixed order (edge
    pairs of every producer, the other within-producer pairs, one-hot
    pairs node by node; linear keys with a node term first) and each
    coefficient adds its parts in a fixed order (graph or node term,
    balance, one-hot), so energy(), which adds terms in dict order, is
    reproducible bit for bit; tests/oracles.py accumulated_terms is the
    term-by-term reference. Coefficients that cancel to zero are not
    stored.
    """
    obj = Objective(
        ends=np.array([(u, v) for u, v, _ in topo.edges], dtype=np.int64).reshape(-1, 2),
        edge_coeff=edge_coeff, node_linear=node_linear, weights=weights, target=target,
        alpha=cfg.alpha, gamma=cfg.gamma,
    )
    n = topo.nodes
    alpha, gamma, weights, target = obj.alpha, obj.gamma, obj.weights, obj.target
    var = np.arange(k)[:, None] * n + np.arange(n)  # var[j, i] = j*n + i

    linear = np.broadcast_to(obj.lin, (k, n))
    has_node_term = np.broadcast_to(obj.node_linear != 0.0, (k, n))
    lin_keys = np.concatenate([var[has_node_term], var[~has_node_term]])
    lin_vals = np.concatenate([linear[has_node_term], linear[~has_node_term]])

    us, vs = np.triu_indices(n, 1)  # within-producer pairs, lexicographic
    pair = 2.0 * alpha * weights[us] * weights[vs]
    ends = obj.ends
    edge_pos = ends[:, 0] * (2 * n - ends[:, 0] - 1) // 2 + ends[:, 1] - ends[:, 0] - 1
    on_edge = np.zeros(us.size, dtype=bool)
    on_edge[edge_pos] = True
    j1, j2 = np.triu_indices(k, 1)
    nodes = np.arange(n)[:, None]
    quad_a = np.concatenate([
        var[:, ends[:, 0]].ravel(), var[:, us[~on_edge]].ravel(), (j1 * n + nodes).ravel()
    ])
    quad_b = np.concatenate([
        var[:, ends[:, 1]].ravel(), var[:, vs[~on_edge]].ravel(), (j2 * n + nodes).ravel()
    ])
    quad_vals = np.concatenate([
        np.tile(obj.edge_coeff + pair[edge_pos], k),
        np.tile(pair[~on_edge], k),
        np.full(n * j1.size, 2.0 * gamma),
    ])

    offset = 0.0
    for term in [alpha * target * target] * k + [gamma] * n:
        offset += term
    keep = lin_vals != 0.0
    linear_terms = dict(zip(lin_keys[keep].tolist(), lin_vals[keep].tolist()))
    keep = quad_vals != 0.0
    quadratic_terms = dict(
        zip(zip(quad_a[keep].tolist(), quad_b[keep].tolist()), quad_vals[keep].tolist())
    )
    return QuboInstance(n=n, k=k, linear=linear_terms, quadratic=quadratic_terms,
                        offset=offset, objective=obj)


# an overflowing coefficient is QuboInstance's to reject, with no numpy warning first
@np.errstate(over="ignore", invalid="ignore")
def build_qubo(topo: graphs.Topology, w, k: int, cfg: PenaltyConfig) -> QuboInstance:
    """Weighted objective over n*k variables; see module docstring.

    w may be a WeightVector or any positive vector; the balance target
    is W/k with W its actual sum, so unnormalised weights work too.
    """
    n = topo.nodes
    _check_k(n, k)
    weights = _weight_array(w, n)
    target = float(weights.sum()) / k
    dists = np.array([dist for _, _, dist in topo.edges], dtype=float)
    edge_coeff = 2.0 * cfg.beta * dists
    return _assemble(topo, k, cfg, edge_coeff, np.zeros(n), weights, target)


@np.errstate(over="ignore", invalid="ignore")
def build_unweighted_qubo(topo: graphs.Topology, k: int, cfg: PenaltyConfig) -> QuboInstance:
    """Node-count variant: cut edges via the combinatorial Laplacian and
    a balance target of n/k nodes per producer.

    Unlike the weighted form, the graph term here rewards keeping
    neighbours together (it counts edges leaving each group), while the
    weighted form's distance term counts edges kept inside each group.
    """
    n = topo.nodes
    _check_k(n, k)
    degree = np.zeros(n, dtype=np.int64)
    for u, v, _ in topo.edges:
        degree[u] += 1
        degree[v] += 1
    edge_coeff = np.full(topo.num_edges, -2.0 * cfg.beta)
    return _assemble(topo, k, cfg, edge_coeff, cfg.beta * degree, np.ones(n), n / k)


def energy(q: QuboInstance, bits) -> float:
    """Energy of one bit vector: the one-row case of energies()."""
    return float(energies(q, np.asarray(bits).reshape(1, -1))[0])


def energies(q: QuboInstance, bit_matrix: np.ndarray) -> np.ndarray:
    """Energy of many bit vectors, one per row; any nonzero entry counts
    as set.

    Each row is offset + its set linear terms + its set quadratic terms,
    added one at a time in dict order (a cumulative sum along the terms,
    unset terms padded with -0.0, the exact additive identity), so every
    energy is one fixed float sum; tests/oracles.py qubo_energy_direct
    is the term-by-term reference.
    """
    mat = np.asarray(bit_matrix)
    if mat.ndim != 2 or mat.shape[1] != q.num_vars:
        raise QuboError(
            f"bit matrix must be (rows, {q.num_vars}), got shape {mat.shape}"
        )
    lin_vars, lin_vals, rows, cols, vals = q._term_arrays
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


def default_penalties(topo: graphs.Topology, w, k: int) -> PenaltyConfig:
    """Deterministic penalty heuristic: beta = 1, alpha and gamma scaled
    so that violating balance or one-hot feasibility never pays off on
    desk-scale instances.

    The distance scale S is the largest row sum of the edge-distance
    matrix; an edgeless graph has S = 0, which would zero out alpha, so
    S falls back to 1 there to keep every penalty strictly positive.
    """
    n = topo.nodes
    _check_k(n, k)
    weights = _weight_array(w, n)
    beta = 1.0
    row_sums = np.zeros(n)
    for u, v, dist in topo.edges:
        row_sums[u] += dist
        row_sums[v] += dist
    scale = float(row_sums.max())
    if scale == 0.0:
        scale = 1.0
    w_min = float(weights.min())
    w_max = float(weights.max())
    alpha = beta * scale / (w_min * w_min)
    gamma = 2.0 * (beta * scale + alpha * w_max)
    return PenaltyConfig(beta=beta, alpha=alpha, gamma=gamma)


def export_qubo(q: QuboInstance, path: str) -> None:
    """Write coordinate text plus a <path>.map sidecar tying variables
    to (node, producer) pairs. Floats use shortest round-trip decimals,
    so import reproduces every coefficient bit-exactly.
    """
    lines = [
        f"p qubo {q.num_vars} {len(q.linear)} {len(q.quadratic)} {q.offset!r}"
    ]
    for v in sorted(q.linear):
        lines.append(f"{v} {v} {q.linear[v]!r}")
    for a, b in sorted(q.quadratic):
        lines.append(f"{a} {b} {q.quadratic[(a, b)]!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")

    map_lines = [f"map {q.n} {q.k}"]
    for var in range(q.num_vars):
        node, producer = q.node_producer(var)
        map_lines.append(f"{var} {node} {producer}")
    atomic_write_text(path + ".map", "\n".join(map_lines) + "\n")


def _parse_header(path: str, line: str) -> tuple[int, int, int, float]:
    parts = line.split()
    if len(parts) != 6 or parts[0] != "p" or parts[1] != "qubo":
        raise QuboFormatError(
            f"{path}: line 1: expected 'p qubo <vars> <linear> <quad> <offset>', "
            f"got {line!r}"
        )
    try:
        return int(parts[2]), int(parts[3]), int(parts[4]), float(parts[5])
    except ValueError:
        raise QuboFormatError(f"{path}: line 1: malformed header {line!r}") from None


def import_qubo(path: str) -> QuboInstance:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise QuboFormatError(f"{path}: file is empty")
    num_vars, num_linear, num_quad, offset = _parse_header(path, raw[0])
    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(
                f"{path}: line {lineno}: expected '<i> <j> <value>', got {line!r}"
            )
        try:
            a, b, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise QuboFormatError(
                f"{path}: line {lineno}: malformed entry {line!r}"
            ) from None
        if not (0 <= a < num_vars) or not (0 <= b < num_vars):
            raise QuboFormatError(
                f"{path}: line {lineno}: variable outside 0..{num_vars - 1}"
            )
        if a == b:
            if a in linear:
                raise QuboFormatError(
                    f"{path}: line {lineno}: duplicate linear entry for {a}"
                )
            linear[a] = value
        elif a < b:
            if (a, b) in quadratic:
                raise QuboFormatError(
                    f"{path}: line {lineno}: duplicate quadratic entry ({a}, {b})"
                )
            quadratic[(a, b)] = value
        else:
            raise QuboFormatError(
                f"{path}: line {lineno}: quadratic entry must have i < j"
            )
    if len(linear) != num_linear or len(quadratic) != num_quad:
        raise QuboFormatError(
            f"{path}: header promises {num_linear} linear and {num_quad} "
            f"quadratic entries, found {len(linear)} and {len(quadratic)}"
        )

    map_path = path + ".map"
    try:
        with open(map_path, "r", encoding="utf-8") as fh:
            map_raw = fh.read().splitlines()
    except FileNotFoundError:
        raise QuboFormatError(f"{map_path}: sidecar mapping file not found") from None
    if not map_raw:
        raise QuboFormatError(f"{map_path}: file is empty")
    head = map_raw[0].split()
    if len(head) != 3 or head[0] != "map":
        raise QuboFormatError(
            f"{map_path}: line 1: expected 'map <n> <k>', got {map_raw[0]!r}"
        )
    try:
        n, k = int(head[1]), int(head[2])
    except ValueError:
        raise QuboFormatError(f"{map_path}: line 1: malformed header") from None
    if n * k != num_vars:
        raise QuboFormatError(
            f"{map_path}: n*k = {n * k} does not match {num_vars} variables"
        )
    entries = [line for line in map_raw[1:] if line.strip()]
    if len(entries) != num_vars:
        raise QuboFormatError(
            f"{map_path}: expected {num_vars} mapping rows, found {len(entries)}"
        )
    for lineno, line in enumerate(entries, start=2):
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(
                f"{map_path}: line {lineno}: expected '<var> <node> <producer>'"
            )
        try:
            var, node, producer = (int(p) for p in parts)
        except ValueError:
            raise QuboFormatError(
                f"{map_path}: line {lineno}: malformed entry {line!r}"
            ) from None
        if var != producer * n + node:
            raise QuboFormatError(
                f"{map_path}: line {lineno}: mapping is not producer-major "
                f"(expected var = producer*{n} + node)"
            )
    return QuboInstance(n=n, k=k, linear=linear, quadratic=quadratic, offset=offset)
