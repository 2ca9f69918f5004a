"""The constrained soft-cut loss, its penalty heuristic, and decoding.

The loss relaxes each binary node variable to tanh(alpha * <P_i>):

    L = sum_{i<j} d_ij/2 * (1 - t_i t_j)  +  beta * (sum_i t_i - (n - 2c))^2

with t_i the soft value of node i. The penalty pins the number of -1 nodes
to the budget c: on fully binarized values, sum(z) = n - 2c holds exactly
when c entries are -1. Feasibility of a decoded assignment is checked
symmetrically (a c : n-c split equals an n-c : c split).

An optional regularizer eta * (mean(t^2))^2 discourages early saturation;
it defaults to off because it works against constraint satisfaction here.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingSpec
from .graph import WeightedGraph, partition_count

__all__ = [
    "ObjectiveSpec",
    "soft_values",
    "loss",
    "regularization",
    "beta_c",
    "decode",
    "is_feasible",
    "binarization",
    "plateau_width",
    "BINARIZED_THRESHOLD",
]

# magnitude above which a soft value counts as binarized
BINARIZED_THRESHOLD = 0.9


@dataclass(frozen=True)
class ObjectiveSpec:
    """Loss definition for one instance; immutable and shareable across runs.

    beta defaults (None) to the degree-sum heuristic beta_c(graph, c), which
    upper-bounds every size-c cut and needs no per-instance tuning.
    """

    # the fields after encoding are a run record's objective keys, in order
    graph: WeightedGraph
    encoding: EncodingSpec
    alpha: float
    c: int
    beta: float | None = None
    eta: float = 0.0

    def __post_init__(self) -> None:
        n = self.graph.n
        if not (1 <= self.c <= n // 2):
            raise ValueError(f"c must be in [1, n/2] = [1, {n // 2}], got {self.c}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.eta < 0:
            raise ValueError(f"eta must be non-negative, got {self.eta}")
        if self.encoding.n_vars != n:
            raise ValueError(
                f"encoding holds {self.encoding.n_vars} variables, graph has {n} nodes"
            )
        if self.beta is None:
            object.__setattr__(self, "beta", beta_c(self.graph, self.c))
        elif self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        else:
            object.__setattr__(self, "beta", float(self.beta))


def soft_values(expectations, alpha: float) -> np.ndarray:
    """Elementwise tanh(alpha * e): the continuous relaxation of the bitstring."""
    e = np.asarray(expectations, dtype=float)
    if np.any(np.abs(e) > 1.0 + 1e-9):
        raise ValueError("expectation values must lie in [-1, 1]")
    return np.tanh(alpha * e)


def loss(spec: ObjectiveSpec | Sequence[ObjectiveSpec], expectations) -> float | list[float]:
    """Soft cut weight plus the budget penalty (plus regularizer when eta > 0).

    One spec scores a 1-D expectation vector and gives a float. A sequence
    of B specs, all on one graph object (their alpha, c, beta and eta may
    differ), scores a (B, n) stack, one row each, and gives a list of B
    floats, the b-th bit-equal to loss(spec[b], expectations[b]): tanh, the
    quadratic form and the sum run over the stack in forms that give each row
    the 1-D call's bits, and the rest is each row's own arithmetic.

    The stack is read C-contiguous, copied if it is not: numpy sums a row
    pairwise, as it does a 1-D vector, only when the row is contiguous, so a
    column-major stack (the expectation kernel returns one from m=8 on)
    would sum its rows in another order than the 1-D call does.
    """
    e = np.ascontiguousarray(expectations, dtype=float)
    if isinstance(spec, ObjectiveSpec):
        n = spec.graph.n
        if e.shape != (n,):
            raise ValueError(f"expected {n} expectation values, got shape {e.shape}")
        t = spec.alpha * e
        np.tanh(t, out=t)
        return _penalized(spec, n, float(t @ spec.graph.weights @ t), float(np.add.reduce(t)), t)
    specs = list(spec)
    if not specs:
        raise ValueError("a stack needs one spec per row, got none")
    graph = specs[0].graph
    n = graph.n
    if e.shape != (len(specs), n):
        raise ValueError(f"expected a ({len(specs)}, {n}) stack, got shape {e.shape}")
    if any(s.graph is not graph for s in specs):
        raise ValueError("a stack's specs must share one graph object")
    t = np.array([s.alpha for s in specs])[:, None] * e
    np.tanh(t, out=t)
    # (1, n) @ (n, n) and (1, n) @ (n, 1) per row: the 1-D call's BLAS calls
    cut = ((t[:, None, :] @ graph.weights) @ t[:, :, None])[:, 0, 0].tolist()
    total = np.add.reduce(t, axis=1).tolist()
    return [_penalized(s, n, q, sum_t, row) for s, q, sum_t, row in zip(specs, cut, total, t)]


def _penalized(spec: ObjectiveSpec, n: int, cut: float, total: float, t: np.ndarray) -> float:
    """One row's loss from t @ W @ t and sum(t), in Python floats.

    The penalty's ** 2 is the libm pow that the float64 scalar of a sum also
    calls; an array ** 2 squares by multiplication and differs in the last
    bit for about 1 value in 1,000.
    """
    value = 0.25 * (spec.graph.weight_sum - cut) + spec.beta * (total - (n - 2 * spec.c)) ** 2
    if spec.eta > 0:
        value += regularization(t, spec.eta, n)
    return value


def regularization(values, eta: float, n: int) -> float:
    """eta * (mean of squared soft values)^2; zero at the all-zero point."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    v = np.asarray(values, dtype=float)
    return float(eta * (np.sum(v * v) / n) ** 2)


def beta_c(g: WeightedGraph, c: int) -> float:
    """Penalty strength: sum of the c largest weighted degrees.

    This upper-bounds the weight of any cut that separates c nodes, so the
    penalty term always dominates an unsatisfied budget.
    """
    if not (1 <= c <= g.n // 2):
        raise ValueError(f"c must be in [1, n/2], got {c}")
    deg = np.sort(g.degrees)
    return float(deg[-c:].sum())


def decode(expectations) -> np.ndarray:
    """Sign of each expectation value; ties at exactly zero go to +1."""
    e = np.asarray(expectations, dtype=float)
    return np.where(e >= 0.0, 1, -1).astype(int)


def is_feasible(z, c: int) -> bool:
    """True iff the assignment splits the nodes c : n-c (either labeling)."""
    counts = partition_count(z)
    return min(counts) == c


def binarization(values) -> float:
    """Fraction of soft values with magnitude strictly above BINARIZED_THRESHOLD."""
    v = np.asarray(values, dtype=float)
    return float(np.mean(np.abs(v) > BINARIZED_THRESHOLD))


def plateau_width(alpha: float) -> float:
    """Distance between the points where |tanh(alpha*x)| crosses 0.99.

    Equals 2*arctanh(0.99)/alpha; halves whenever alpha doubles, which is
    why large alpha flattens the loss landscape outside a shrinking band.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return 2.0 * math.atanh(0.99) / alpha
