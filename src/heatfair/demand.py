"""Heat demand profiles and the node weights derived from them.

A demand matrix holds one column per substation and one row per
timestep. The weight of a node is its peak demand over the horizon,
normalised so all weights sum to one; peaks rather than means because
the network must be sized for the worst hour.
"""

from __future__ import annotations

import csv
import dataclasses

import numpy as np

from .ioutil import csv_text, number, number_array, read_json, write_json


class DemandError(ValueError):
    """Raised when a demand table or weight vector is invalid."""


@dataclasses.dataclass(frozen=True)
class DemandMatrix:
    """Demand samples, shape (timesteps, nodes), all values >= 0."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = number_array(self.values, "demands", DemandError)
        if values.ndim != 2:
            raise DemandError(
                f"demand table must be two-dimensional, got shape {values.shape}"
            )
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DemandError(
                f"demand table needs at least one row and one column, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DemandError(
                f"non-finite demand at timestep {bad[0]}, node {bad[1]}"
            )
        if np.any(values < 0.0):
            bad = np.argwhere(values < 0.0)[0]
            raise DemandError(
                f"negative demand at timestep {bad[0]}, node {bad[1]}"
            )
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            if len(self.labels) != values.shape[1]:
                raise DemandError(
                    f"got {len(self.labels)} labels for {values.shape[1]} nodes"
                )
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def timesteps(self) -> int:
        return int(self.values.shape[0])

    @property
    def nodes(self) -> int:
        return int(self.values.shape[1])

    def node_label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)


@dataclasses.dataclass(frozen=True)
class WeightVector:
    """Normalised node weights: strictly positive, summing to one."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = number_array(self.values, "weights", DemandError)
        if values.ndim != 1 or values.size < 1:
            raise DemandError(
                f"weights must be a non-empty vector, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DemandError("every weight must be finite and strictly positive")
        total = float(values.sum())
        if abs(total - 1.0) > 1e-12:
            raise DemandError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "values", values)

    @property
    def nodes(self) -> int:
        return int(self.values.size)


def compute_weights(demands: DemandMatrix) -> WeightVector:
    """Peak demand per node divided by the sum of peaks.

    A node whose demand is zero at every timestep has no defined share
    and is rejected by name.
    """
    peaks = demands.values.max(axis=0)
    zero = np.flatnonzero(peaks == 0.0)
    if zero.size:
        names = ", ".join(demands.node_label(int(i)) for i in zero)
        raise DemandError(
            f"node(s) {names} have zero demand at every timestep; "
            f"weights are undefined"
        )
    with np.errstate(over="ignore"):  # an overflowed sum is inf, refused below
        total = peaks.sum()
    if not np.isfinite(total):
        raise DemandError(
            "the peak demands sum past the largest float; scale the demands down"
        )
    return WeightVector(values=peaks / total)


def uniform_weights(nodes: int) -> WeightVector:
    nodes = number(nodes, "nodes", DemandError, integer=True, least=1)
    return WeightVector(values=np.full(nodes, 1.0 / nodes))


def synthetic_demands(
    nodes: int,
    timesteps: int = 168,
    seed: int = 0,
    anchor_scale: float = 10.0,
) -> DemandMatrix:
    """Heterogeneous weekly profiles for experiments.

    Each node gets a random peak level in [0.5, 2.0); node 0 is scaled
    up by anchor_scale to mimic one dominant consumer (an industrial
    site among households). The shape over time is a daily sinusoid
    plus noise, clipped at zero.
    """
    nodes = number(nodes, "nodes", DemandError, integer=True, least=1)
    timesteps = number(timesteps, "timesteps", DemandError, integer=True, least=1)
    rng = np.random.default_rng(number(seed, "seed", DemandError, integer=True, least=0))
    if number(anchor_scale, "anchor_scale", DemandError) <= 0.0:
        raise DemandError(f"anchor_scale must be positive, got {anchor_scale}")
    peaks = rng.uniform(0.5, 2.0, size=nodes)
    peaks[0] *= anchor_scale
    hours = np.arange(timesteps)[:, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, size=nodes)[None, :]
    base = 0.6 + 0.4 * np.sin(2.0 * np.pi * hours / 24.0 + phase)
    noise = rng.normal(0.0, 0.05, size=(timesteps, nodes))
    values = np.clip(base + noise, 0.0, None) * peaks[None, :]
    # guarantee the per-node peak survives clipping and noise exactly once
    peak_rows = rng.integers(0, timesteps, size=nodes)
    values[peak_rows, np.arange(nodes)] = peaks
    return DemandMatrix(values=values)


def demands_to_csv_text(demands: DemandMatrix) -> str:
    labels = [demands.node_label(i) for i in range(demands.nodes)]
    return csv_text([labels, *demands.values.tolist()])


def load_demands(path: str) -> DemandMatrix:
    """Read a demand table from CSV: header of node labels, rows of
    samples. A UTF-8 byte-order mark, as spreadsheets write, is skipped,
    and so is whitespace around a label. Text that is not UTF-8, or that
    csv.reader refuses (a field past csv.field_size_limit()), raises
    DemandError."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DemandError(f"{path}: file is empty")
            labels = tuple(cell.strip() for cell in header)
            if any(not lbl for lbl in labels):
                raise DemandError(f"{path}: header contains an empty label")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(labels):
                    raise DemandError(
                        f"{path}: line {lineno} has {len(row)} cells, "
                        f"expected {len(labels)}"
                    )
                parsed = []
                for col, cell in enumerate(row):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DemandError(
                            f"{path}: line {lineno}, column {labels[col]!r}: "
                            f"{cell!r} is not a number"
                        ) from None
                rows.append(parsed)
        except csv.Error as exc:
            raise DemandError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DemandError(f"{path}: not UTF-8 text ({exc})") from None
    if not rows:
        raise DemandError(f"{path}: no data rows after the header")
    try:
        return DemandMatrix(values=np.array(rows), labels=labels)
    except DemandError as exc:
        raise DemandError(f"{path}: {exc}") from exc


def save_weights(w: WeightVector, path: str, labels=None) -> None:
    doc: dict = {"weights": [float(v) for v in w.values]}
    if labels is not None:
        doc["labels"] = list(labels)
    write_json(path, doc)


def load_weights(path: str) -> WeightVector:
    """Read a weights document; every weight must be a JSON number."""
    doc = read_json(path, DemandError)
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), list):
        raise DemandError(f"{path}: expected an object with a 'weights' array")
    values = [number(v, f"{path}: weight {i}", DemandError) for i, v in enumerate(doc["weights"])]
    try:
        return WeightVector(values=np.array(values, dtype=float))
    except DemandError as exc:
        raise DemandError(f"{path}: {exc}") from exc
