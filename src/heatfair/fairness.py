"""Scoring assignments: load fairness, cluster compactness, and their
convex combination.

The Jain index scores how evenly producer loads are spread (1 means
perfectly even, 1/k means one producer carries everything). The
distance index scores how short the within-producer node-pair
distances are relative to the whole network (0 when one producer holds
every node, 1 when every node stands alone). The combined KPI blends
the two, weight kpi_alpha on the Jain index and the rest on the
distance index. KpiReport derives it from those parts and holds every
rule of a valid report, so a report that score_assignment builds and
one read back from a sweep file are checked alike.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from . import graphs
from .demand import WeightVector
from .ioutil import number, number_array, shown
from .solvers import Assignment, SolverError


class FairnessError(ValueError):
    """Raised for undefined metrics or invalid inputs."""


def producer_loads(a: Assignment, w: WeightVector) -> np.ndarray:
    """Each producer's share of the node weight: a length-k vector
    summing to the total weight."""
    if a.n != w.nodes:
        raise FairnessError(
            f"assignment covers {a.n} nodes but weights cover {w.nodes}"
        )
    return np.bincount(np.asarray(a.producer_of), weights=w.values, minlength=a.k)


_NORMAL = sys.float_info.min  # the smallest normal float


def jain_index(loads) -> float:
    """(sum y)^2 / (k * sum y^2) of the load vector y; 1 iff all shares
    equal, 1/k at full concentration. The index is at most 1
    (Cauchy-Schwarz), so a rounding excess over 1, as for k equal loads
    at k = 12, is clamped. Where a sum overflows or falls below the
    normal floats, y is first scaled by the power of two that brings its
    largest entry into [0.5, 1), which leaves the index unchanged. An
    empty, non-vector, negative, non-finite or all-zero y raises
    FairnessError."""
    y = number_array(loads, "loads", FairnessError)
    if y.ndim != 1 or y.size < 1:
        raise FairnessError(f"loads must be a non-empty vector, got {y.shape}")
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise FairnessError("loads must be finite and nonnegative")
    if not np.any(y):
        raise FairnessError("all producer loads are zero; the index is undefined")
    with np.errstate(over="ignore", under="ignore"):
        total, squares = float(y.sum()), float(y @ y)
        if not (_NORMAL <= total * total < math.inf and _NORMAL <= squares < math.inf):
            y = np.ldexp(y, -np.frexp(y.max())[1])
            total, squares = float(y.sum()), float(y @ y)
    return min(total * total / (y.size * squares), 1.0)


def distance_index(
    a: Assignment, topo: graphs.Topology, sp: np.ndarray | None = None
) -> float:
    """1 minus the within-producer share of total pairwise shortest-path
    distance.

    Both sums run over unordered node pairs. At k=1 the numerator is
    the same masked array as the denominator, so the result is exactly
    0; with singleton producers the numerator is empty, giving exactly
    1. A one-node network has no pairs and scores 0. A given sp of
    another shape than (n, n), or distances that sum past the largest
    float, raise FairnessError.
    """
    if a.n != topo.nodes:
        raise FairnessError(
            f"assignment covers {a.n} nodes but topology has {topo.nodes}"
        )
    n = topo.nodes
    if sp is None:
        sp = graphs.all_pairs_shortest_paths(topo)
    elif np.shape(sp) != (n, n):
        raise FairnessError(f"sp has shape {np.shape(sp)}, but {n} nodes need ({n}, {n})")
    if n == 1:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    pair_dist = sp[iu, ju]
    if not np.all(np.isfinite(pair_dist)):
        raise FairnessError(
            "topology is disconnected; pairwise distances are unbounded"
        )
    producers = np.asarray(a.producer_of)
    within = producers[iu] == producers[ju]
    with np.errstate(over="ignore"):  # a sum past the float range is refused below
        numerator = float(pair_dist[within].sum())
        denominator = float(pair_dist.sum())
    if not (math.isfinite(numerator) and math.isfinite(denominator)):
        raise FairnessError(
            "the pairwise pipe distances sum past the largest float; "
            "scale the pipe lengths down"
        )
    return 1.0 - numerator / denominator


@dataclasses.dataclass(frozen=True)
class KpiReport:
    """One scored solve: indices plus the solver context they came from,
    and the one owner of a report's rules: k an integer >= 1; jain,
    distance_index and kpi_alpha numbers in [0, 1]; energy a number;
    solver_name a string; assignment empty, or producer ids by
    Assignment's rule. A break raises FairnessError naming the field as
    as_dict writes it. kpi is derived from the parts, never stored."""

    k: int
    jain: float
    distance_index: float
    kpi_alpha: float
    solver_name: str
    energy: float
    assignment: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.solver_name, str):
            raise FairnessError(f"solver must be a string, got {shown(self.solver_name)}")
        object.__setattr__(self, "k", number(self.k, "k", FairnessError, integer=True, least=1))
        for name in ("jain", "distance_index", "kpi_alpha", "energy"):
            object.__setattr__(self, name, number(getattr(self, name), name, FairnessError))
        for name in ("jain", "distance_index", "kpi_alpha"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise FairnessError(f"{name} must lie in [0, 1], got {shown(getattr(self, name))}")
        if not isinstance(self.assignment, tuple | list):
            raise FairnessError(f"assignment must be a list, got {shown(self.assignment)}")
        try:
            placed = Assignment(self.assignment, self.k).producer_of if self.assignment else ()
        except SolverError as exc:
            raise FairnessError(f"assignment: {exc}") from exc
        object.__setattr__(self, "assignment", placed)

    @property
    def kpi(self) -> float:
        """The combined KPI: weight kpi_alpha on jain, the rest on
        distance_index."""
        return self.kpi_alpha * self.jain + (1.0 - self.kpi_alpha) * self.distance_index

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "solver": self.solver_name,
            "jain": self.jain,
            "distance_index": self.distance_index,
            "kpi": self.kpi,
            "kpi_alpha": self.kpi_alpha,
            "energy": self.energy,
            "assignment": list(self.assignment),
        }


def score_assignment(
    a: Assignment,
    topo: graphs.Topology,
    w: WeightVector,
    kpi_alpha: float = 0.5,
    solver_name: str = "",
    energy: float = float("nan"),
    sp: np.ndarray | None = None,
) -> KpiReport:
    return KpiReport(
        k=a.k,
        jain=jain_index(producer_loads(a, w)),
        distance_index=distance_index(a, topo, sp=sp),
        kpi_alpha=kpi_alpha,
        solver_name=solver_name,
        energy=energy,
        assignment=a.producer_of,
    )
