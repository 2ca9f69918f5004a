"""Weighted graphs for budget-constrained minimum-cut instances.

Graphs are undirected with finite, non-negative edge weights of finite sum,
none of which vanishes against that sum, stored as a dense symmetric matrix
(benchmark instances are complete, so sparsity buys nothing). Node indices
are 0-based everywhere, including files.

Cut assignments are plain length-n integer vectors with entries in
{-1, +1}; a node with value -1 sits on the "selected" side of the cut.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "GraphFormatError",
    "WeightedGraph",
    "check_budget",
    "generate_complete_graph",
    "cut_size",
    "partition_count",
    "read_graph",
    "write_graph",
    "graph_hash",
]

WEIGHT_MODES = ("unit", "uniform")  # edge weights of generate_complete_graph


class GraphFormatError(ValueError):
    """A graph file is malformed or internally inconsistent."""


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weight matrix with zero diagonal; immutable after construction."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError("a graph needs at least 2 nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("diagonal must be zero (no self-loops)")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        with np.errstate(over="ignore"):  # an overflowing sum is refused here, not warned of
            total = self.weight_sum
        if not math.isfinite(total):
            raise ValueError(f"weights must have a finite sum, got {total}")
        # a cut is (sum - z'Wz)/4, so a weight that rounds away against the
        # sum would be cut or kept at no cost
        w_min = float(np.min(w, where=w > 0.0, initial=math.inf))
        if total - w_min == total:
            raise ValueError(f"the smallest nonzero weight {w_min} vanishes against the "
                             f"weight sum {total}; cuts could not be resolved")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each node, d_i = sum_j d_ij."""
        return self.weights.sum(axis=1)

    @cached_property
    def weight_sum(self) -> float:
        """Sum of every weight-matrix entry: twice the total edge weight."""
        return float(self.weights.sum())

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.weights, k=1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.weights.shape == other.weights.shape and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash(graph_hash(self))


def check_budget(n: int, c: int) -> None:
    """ValueError unless 1 <= c <= n/2; a c above n/2 is its n-c mirror's cut."""
    if not (1 <= c <= n // 2):
        raise ValueError(f"c must be in [1, n/2] = [1, {n // 2}], got {c}")


def generate_complete_graph(
    n: int,
    weights: str = "unit",
    seed: int | None = None,
    low: float = 0.0,
    high: float = 1.0,
    drop_prob: float = 0.0,
) -> WeightedGraph:
    """Build a complete graph on n nodes.

    weights: "unit" for all-ones edges, "uniform" for i.i.d. weights drawn
    uniformly from [low, high]. drop_prob deletes each edge independently
    with that probability (the complete-graph benchmarks use 0.0).
    Identical (n, weights, seed, low, high, drop_prob) inputs yield
    bit-identical graphs.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if weights not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {weights!r}")
    if weights == "uniform" and not (0.0 <= low <= high):
        raise ValueError(f"need 0 <= low <= high, got low={low}, high={high}")
    if not (0.0 <= drop_prob < 1.0):
        raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")

    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    if weights == "unit":
        vals = np.ones(iu[0].size)
    else:
        vals = rng.uniform(low, high, size=iu[0].size)
    if drop_prob > 0.0:
        vals = np.where(rng.random(iu[0].size) < drop_prob, 0.0, vals)
    w = np.zeros((n, n))
    w[iu] = vals
    w = w + w.T
    return WeightedGraph(w)


def _as_assignment(z, n: int | None = None) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim != 1:
        raise ValueError(f"assignment must be a 1-D vector, got shape {z.shape}")
    if n is not None and z.shape[0] != n:
        raise ValueError(f"assignment length {z.shape[0]} does not match n={n}")
    if not np.all(np.abs(z) == 1):
        raise ValueError("assignment entries must be exactly -1 or +1")
    return z.astype(float)


def cut_size(g: WeightedGraph, z) -> float:
    """Total weight of edges whose endpoints carry opposite signs."""
    zf = _as_assignment(z, g.n)
    # sum_{i<j} d_ij (1 - z_i z_j)/2 == (sum(d) - z.W.z)/4 with zero diagonal;
    # the cut is a sum of non-negative weights, so a difference that rounds
    # below 0 reads 0
    return max(0.0, float(0.25 * (g.weight_sum - zf @ g.weights @ zf)))


def partition_count(z) -> tuple[int, int]:
    """(number of -1 entries, number of +1 entries)."""
    zf = _as_assignment(z)
    minus = int(np.sum(zf < 0))
    return minus, zf.shape[0] - minus


def graph_hash(g: WeightedGraph) -> str:
    """Stable content hash, used for baseline caching and run records."""
    h = hashlib.sha256()
    h.update(str(g.n).encode())
    h.update(np.ascontiguousarray(g.weights).tobytes())
    return h.hexdigest()[:16]


# --- file I/O ---------------------------------------------------------------
#
# Two formats, each with a parser giving n and (i, j, w, where) edge triples:
#   JSON:      {"n": int, "edges": [[i, j, w], ...]}, unlisted pairs weigh 0
#   edge list: one "i j w" triple per line, '#' starts a comment

# the JSON values that stand for each Python type, and their name in an
# error; a bool is no int or number here
JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
              str: ((str,), "a string"), bool: ((bool,), "true or false")}


def json_fits(value, kind: type) -> bool:
    """Whether a JSON value is of kind, a key of JSON_KINDS."""
    return isinstance(value, JSON_KINDS[kind][0]) and isinstance(value, bool) == (kind is bool)


def write_atomically(path: Path, text: str) -> None:
    """Replace path's contents in one step, so a crash leaves the old file whole."""
    # same directory, so the rename stays on one file system
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_graph(path) -> WeightedGraph:
    text = Path(path).read_text()
    parse = _parse_json if text.lstrip().startswith("{") else _parse_edge_list
    n, triples = parse(text, str(path))
    w = np.zeros((n, n))
    seen: dict = {}
    for i, j, val, where in triples:
        _insert_edge(w, seen, i, j, val, where)
    return WeightedGraph(w)


def write_graph(g: WeightedGraph, path) -> None:
    """Write a graph: as JSON if the file name ends in .json, else as an edge list."""
    path = Path(path)
    iu = np.triu_indices(g.n, k=1)
    edges = [
        (int(i), int(j), float(g.weights[i, j]))
        for i, j in zip(*iu)
        if g.weights[i, j] != 0.0
    ]
    if path.suffix == ".json":
        path.write_text(json.dumps({"n": g.n, "edges": edges}) + "\n")
        return
    # the reader takes n from the largest index: list (0, n-1) even at weight 0
    if g.weights[0, g.n - 1] == 0.0:
        edges.append((0, g.n - 1, 0.0))
    path.write_text("\n".join(f"{i} {j} {w!r}" for i, j, w in edges) + "\n")


def _insert_edge(w: np.ndarray, seen: dict, i: int, j: int, val: float, where: str) -> None:
    n = w.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise GraphFormatError(f"{where}: node index out of range for n={n}")
    if i == j:
        raise GraphFormatError(f"{where}: self-loop on node {i}")
    if not math.isfinite(val):
        raise GraphFormatError(f"{where}: weight {val} is not finite")
    if val < 0:
        raise GraphFormatError(f"{where}: negative weight {val}")
    key = (min(i, j), max(i, j))
    if key in seen and seen[key] != val:
        raise GraphFormatError(
            f"{where}: conflicting weight for edge {key}: {seen[key]} vs {val}"
        )
    seen[key] = val
    w[i, j] = w[j, i] = val


def _parse_json(text: str, name: str) -> tuple[int, list]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{name}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "n" not in data:
        raise GraphFormatError(f"{name}: missing field 'n'")
    n = data["n"]
    if not json_fits(n, int) or n < 2:
        raise GraphFormatError(f"{name}: field 'n' must be an integer >= 2")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError(f"{name}: field 'edges' must be a list")
    triples = []
    for idx, edge in enumerate(edges):
        where = f"{name}: edges[{idx}]"
        if not (isinstance(edge, (list, tuple)) and len(edge) == 3):
            raise GraphFormatError(f"{where}: expected [i, j, w]")
        i, j, val = edge
        if not (json_fits(i, int) and json_fits(j, int)):
            raise GraphFormatError(f"{where}: node indices must be integers")
        if not json_fits(val, float):
            raise GraphFormatError(f"{where}: weight must be a number")
        triples.append((i, j, float(val), where))
    return n, triples


def _parse_edge_list(text: str, name: str) -> tuple[int, list]:
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{name}:{lineno}"
        if len(parts) != 3:
            raise GraphFormatError(f"{where}: expected 'i j w', got {raw!r}")
        if "_" in line or not line.isascii():  # int() and float() read 1_0 as 10, and non-ASCII digits
            raise GraphFormatError(f"{where}: expected plain ASCII numbers, got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            val = float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
        if i < 0 or j < 0:
            raise GraphFormatError(f"{where}: negative node index")
        triples.append((i, j, val, where))
    if not triples:
        raise GraphFormatError(f"{name}: no edges found")
    n = max(max(i, j) for i, j, _, _ in triples) + 1
    if n < 2:
        raise GraphFormatError(f"{name}: needs at least 2 nodes")
    return n, triples
