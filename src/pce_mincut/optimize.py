"""Gradient-free minimization of the loss over ansatz angles.

The method is Nelder-Mead with the standard coefficients (reflection 1,
expansion 2, contraction 0.5, shrink 0.5), an axis-aligned initial simplex
of side INITIAL_STEP, and the stopping tolerances X_TOL and F_TOL. Only the
evaluation budget is configurable; run records store the fixed values so
that a record written under other values is refused, not replayed.

Everything here is deterministic: identical (objective, x0, config) inputs
replay the exact same evaluation sequence. nelder_mead is the method as a
generator that asks for one value at a time, so a caller can serve many
runs' requests together (solver.run_lockstep scores them with one stacked
loss call per step); minimize drives it with a Python objective.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    "nelder_mead",
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


def _sort(simplex: np.ndarray, fvals: list[float]):
    """The simplex and its values in the order a stable sort by value gives."""
    order = sorted(range(len(fvals)), key=fvals.__getitem__)
    return simplex[order], [fvals[i] for i in order]


def nelder_mead(x0, max_evals: int):
    """Nelder-Mead from the start point x0, as a generator of evaluation requests.

    Yields each point whose value it needs and is sent that value; returns
    the OptimizeResult once the simplex converges or max_evals values have
    been received. A non-finite value raises EvaluationError.

    The simplex is kept sorted by value. A vertex that replaces the worst is
    inserted after its equals, where a stable sort of the whole simplex puts
    it; only a shrink, which moves every vertex but the best, sorts again.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    dim = x0.size

    evals = 0
    best_x = x0.copy()
    best_f = math.inf

    def f(x: np.ndarray):
        nonlocal evals, best_x, best_f
        if evals >= max_evals:
            raise _BudgetExhausted
        value = float((yield x))
        evals += 1
        if not math.isfinite(value):
            raise EvaluationError(value, x)
        if value < best_f:
            best_f = value
            best_x = np.array(x)
        return value

    converged = False
    try:
        # only fresh arrays are yielded: the initial vertices, the candidate
        # points and the shrunk rows are built before they are written into
        # the simplex
        vertices = [x0.copy()]
        for i in range(dim):
            v = x0.copy()
            v[i] += INITIAL_STEP
            vertices.append(v)
        fvals = []
        for v in vertices:
            fvals.append((yield from f(v)))
        # fvals is a list of Python floats, kept in step with the rows
        simplex, fvals = _sort(np.array(vertices), fvals)

        while True:
            # the vertex spread is only worth computing once the values agree
            if (fvals[-1] - fvals[0] <= F_TOL
                    and np.max(np.abs(simplex[1:] - simplex[0])) <= X_TOL):
                converged = True
                break

            centroid = np.add.reduce(simplex[:-1]) / dim  # np.mean's sum and division
            worst = simplex[-1]  # a view: compute every candidate before moving rows
            reflected = centroid + (centroid - worst)
            fr = yield from f(reflected)

            if fvals[0] <= fr < fvals[-2]:
                new, fnew = reflected, fr
            elif fr < fvals[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                fe = yield from f(expanded)
                new, fnew = (expanded, fe) if fe < fr else (reflected, fr)
            else:
                # fr >= second worst: contract toward the better of worst/reflected
                if fr < fvals[-1]:
                    new = centroid + 0.5 * (centroid - worst)
                    fnew = yield from f(new)
                    accepted = fnew <= fr
                else:
                    new = centroid - 0.5 * (centroid - worst)
                    fnew = yield from f(new)
                    accepted = fnew < fvals[-1]
                if not accepted:
                    # shrink everything toward the best vertex, then sort again
                    for i in range(1, dim + 1):
                        shrunk = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        simplex[i], fvals[i] = shrunk, (yield from f(shrunk))
                    simplex, fvals = _sort(simplex, fvals)
                    continue
            # the new vertex replaces the worst and goes after its equals among
            # the other dim, where a stable sort of the whole simplex puts it
            k = bisect_right(fvals, fnew, 0, dim)
            simplex[k + 1:] = simplex[k:-1]
            simplex[k] = new
            del fvals[-1]
            fvals.insert(k, fnew)
    except _BudgetExhausted:
        converged = False

    return OptimizeResult(
        best_params=best_x,
        best_value=best_f,
        evals=evals,
        converged=converged,
    )


def minimize(objective, x0, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize a total real function of a real vector from the start point x0.

    Serves each point nelder_mead asks for with objective's value there.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    run = nelder_mead(x0, cfg.budget(np.size(x0)))
    try:
        x = next(run)
        while True:
            x = run.send(objective(x))
    except StopIteration as stop:
        return stop.value


def random_init(dim: int, seed: int | None) -> np.ndarray:
    """Uniform i.i.d. start vector in [-pi, pi); reproducible per seed."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return np.random.default_rng(seed).uniform(-math.pi, math.pi, size=dim)
