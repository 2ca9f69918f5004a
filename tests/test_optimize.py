import math

import numpy as np
import pytest

from pce_mincut.optimize import (
    EvaluationError,
    OptimizerConfig,
    minimize,
    random_init,
)


def quadratic(x):
    return float((x[0] - 1.0) ** 2)


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def test_quadratic_minimum():
    res = minimize(quadratic, np.array([5.0]))
    assert res.converged
    assert res.best_params[0] == pytest.approx(1.0, abs=1e-6)
    assert res.best_value <= quadratic(np.array([5.0]))


def test_rosenbrock():
    cfg = OptimizerConfig(max_evals=5000)
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert np.allclose(res.best_params, [1.0, 1.0], atol=1e-4)


def test_constant_function_converges():
    res = minimize(lambda x: 2.5, np.array([0.0, 0.0, 0.0]))
    assert res.converged
    assert res.best_value == 2.5
    assert res.evals < 400 * 3  # well before the budget


def recording(objective):
    """Wrap objective so every value it returns is appended to .values."""
    def f(x):
        value = objective(x)
        f.values.append(value)
        return value

    f.values = []
    return f


def test_determinism():
    x0 = np.array([3.0, -2.0])
    fa, fb = recording(rosenbrock), recording(rosenbrock)
    a = minimize(fa, x0)
    b = minimize(fb, x0)
    assert fa.values == fb.values
    assert np.array_equal(a.best_params, b.best_params)
    assert a.evals == b.evals == len(fa.values)


def test_translation_equivariance():
    # comparison-only method: shifting the problem shifts the whole trajectory
    for shift in (0.5, 2.0, -8.0):
        a = np.full(2, shift)
        base = minimize(rosenbrock, np.array([0.25, 0.75]), OptimizerConfig(max_evals=600))
        moved = minimize(
            lambda x: rosenbrock(x - a),
            np.array([0.25, 0.75]) + a,
            OptimizerConfig(max_evals=600),
        )
        assert moved.evals == base.evals
        assert np.allclose(moved.best_params - a, base.best_params, atol=1e-9)
        assert moved.best_value == pytest.approx(base.best_value, abs=1e-9)


def test_monotone_incumbent():
    f = recording(rosenbrock)
    res = minimize(f, np.array([2.0, 2.0]), OptimizerConfig(max_evals=800))
    incumbent = math.inf
    best_seen = []
    for value in f.values:
        incumbent = min(incumbent, value)
        best_seen.append(incumbent)
    assert all(a >= b for a, b in zip(best_seen, best_seen[1:]))
    assert res.best_value == best_seen[-1]
    assert res.best_value == min(f.values)
    assert res.evals == len(f.values)


def test_budget_is_respected():
    cfg = OptimizerConfig(max_evals=50)
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert res.evals == 50
    assert not res.converged


def test_nan_objective_aborts_with_params():
    def bad(x):
        return math.nan if x[0] < 0 else float(x[0] ** 2)

    with pytest.raises(EvaluationError) as exc_info:
        minimize(bad, np.array([-4.0]))
    assert exc_info.value.params[0] == -4.0
    assert "-4.0" in str(exc_info.value)


def test_infinite_objective_aborts():
    with pytest.raises(EvaluationError):
        minimize(lambda x: math.inf, np.array([0.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_evals=2).budget(5)


def test_random_init():
    a = random_init(10, seed=3)
    b = random_init(10, seed=3)
    assert np.array_equal(a, b)
    assert np.all(a >= -math.pi) and np.all(a <= math.pi)
    c = random_init(10, seed=4)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        random_init(0, seed=1)
