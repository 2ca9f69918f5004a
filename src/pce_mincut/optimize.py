"""Gradient-free minimization of the loss over ansatz angles.

The method is Nelder-Mead with the standard coefficients (reflection 1,
expansion 2, contraction 0.5, shrink 0.5), an axis-aligned initial simplex
of side INITIAL_STEP, and the stopping tolerances X_TOL and F_TOL. Only the
evaluation budget is configurable; run records store the fixed values so
that a record written under other values is refused, not replayed.

Everything here is deterministic: identical (objective, x0, config) inputs
replay the exact same evaluation sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "METHOD",
    "X_TOL",
    "F_TOL",
    "INITIAL_STEP",
    "OptimizerConfig",
    "OptimizeResult",
    "EvaluationError",
    "minimize",
    "random_init",
]

METHOD = "nelder_mead"
X_TOL = 1e-6  # largest vertex distance from the best vertex at convergence
F_TOL = 1e-8  # largest value spread over the simplex at convergence
INITIAL_STEP = 0.5  # side of the initial simplex


class EvaluationError(RuntimeError):
    """The objective returned NaN or infinity; .params holds the offending point."""

    def __init__(self, value: float, params: np.ndarray):
        self.value = value
        self.params = np.array(params)
        super().__init__(
            f"objective returned non-finite value {value!r} at parameters "
            f"{self.params.tolist()}"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    max_evals: int | None = None  # None -> 400 * dimension

    def budget(self, dim: int) -> int:
        b = 400 * dim if self.max_evals is None else self.max_evals
        if b < dim + 1:
            raise ValueError(f"max_evals={b} cannot even build a simplex in {dim}-D")
        return b


@dataclass
class OptimizeResult:
    best_params: np.ndarray
    best_value: float
    evals: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


def minimize(objective, x0, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize a total real function of a real vector from the start point x0."""
    if cfg is None:
        cfg = OptimizerConfig()
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    dim = x0.size
    max_evals = cfg.budget(dim)

    evals = 0
    best_x = x0.copy()
    best_f = math.inf

    def f(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_f
        if evals >= max_evals:
            raise _BudgetExhausted
        value = float(objective(x))
        evals += 1
        if not math.isfinite(value):
            raise EvaluationError(value, x)
        if value < best_f:
            best_f = value
            best_x = np.array(x)
        return value

    converged = False
    try:
        simplex = [x0.copy()]
        for i in range(dim):
            v = x0.copy()
            v[i] += INITIAL_STEP
            simplex.append(v)
        fvals = [f(v) for v in simplex]

        while True:
            order = sorted(range(dim + 1), key=lambda i: fvals[i])
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]

            spread_f = fvals[-1] - fvals[0]
            spread_x = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
            if spread_f <= F_TOL and spread_x <= X_TOL:
                converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + (centroid - worst)
            fr = f(reflected)

            if fvals[0] <= fr < fvals[-2]:
                simplex[-1], fvals[-1] = reflected, fr
                continue
            if fr < fvals[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                fe = f(expanded)
                if fe < fr:
                    simplex[-1], fvals[-1] = expanded, fe
                else:
                    simplex[-1], fvals[-1] = reflected, fr
                continue
            # fr >= second worst: contract toward the better of worst/reflected
            if fr < fvals[-1]:
                contracted = centroid + 0.5 * (centroid - worst)
                fc = f(contracted)
                if fc <= fr:
                    simplex[-1], fvals[-1] = contracted, fc
                    continue
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                fc = f(contracted)
                if fc < fvals[-1]:
                    simplex[-1], fvals[-1] = contracted, fc
                    continue
            # shrink everything toward the best vertex
            for i in range(1, dim + 1):
                simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                fvals[i] = f(simplex[i])
    except _BudgetExhausted:
        converged = False

    return OptimizeResult(
        best_params=best_x,
        best_value=best_f,
        evals=evals,
        converged=converged,
    )


def random_init(dim: int, seed: int | None, low: float = -math.pi, high: float = math.pi) -> np.ndarray:
    """Uniform i.i.d. start vector; reproducible per seed."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return np.random.default_rng(seed).uniform(low, high, size=dim)
