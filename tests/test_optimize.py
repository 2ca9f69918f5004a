import math

import numpy as np
import pytest

import loop_reference
from pce_mincut.encoding import enumerate_strings
from pce_mincut.graph import generate_complete_graph
from pce_mincut.objective import loss
from pce_mincut.optimize import (
    EvaluationError,
    OptimizerConfig,
    minimize,
    random_init,
)
from pce_mincut.quantum import ExpectationKernel, parameter_count, prepare_state
from pce_mincut.solver import SolverSpec


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


def evaluations(objective):
    """Wrap objective so every (x, value) it sees is appended to .calls as bytes."""
    def f(x):
        value = objective(x)
        f.calls.append((np.array(x).tobytes(), np.float64(value).tobytes()))
        return value

    f.calls = []
    return f


def pce_loss_k6():
    cfg = SolverSpec(mode="fixed", alpha=3.0).config(generate_complete_graph(6), 3, 0)
    spec = cfg.objective
    m = spec.encoding.m
    kernel = ExpectationKernel(enumerate_strings(spec.encoding))

    def f(theta):
        return loss(spec, kernel(prepare_state(m, theta, cfg.layers)))

    return f, random_init(parameter_count(m, cfg.layers), cfg.seed)


def pseudo_random(x):
    # a rugged landscape: values with no structure the simplex can follow
    return float(np.sin(1e3 * np.sum(x * np.arange(1, x.size + 1))))


def quantized_quadratic(x):
    # values on a grid of 1/4: new vertices often tie with old ones
    return math.floor(4.0 * float(np.sum((x - 0.3) ** 2))) / 4.0


LOOP_CASES = {
    "quadratic": (quadratic, np.array([5.0]), None),
    "rosenbrock": (rosenbrock, np.array([-1.2, 1.0]), 5000),
    "rosenbrock-budget": (rosenbrock, np.array([-1.2, 1.0]), 50),
    "constant": (lambda x: 2.5, np.zeros(3), None),
    # 4 vertices, a reflection, a contraction, then the budget ends mid-shrink
    "constant-budget-mid-shrink": (lambda x: 2.5, np.zeros(3), 7),
    "abs-sum": (lambda x: float(np.sum(np.abs(x - 0.3))), np.array([1.0, -2.0, 0.5]), None),
    "pseudo-random": (pseudo_random, np.array([0.1, 0.2]), 300),
    "quantized-quadratic": (quantized_quadratic, np.array([3.0, -2.0, 1.0, 0.5]), 400),
    "pce-k6": (*pce_loss_k6(), 3000),
}


@pytest.mark.parametrize("name", LOOP_CASES)
def test_minimize_matches_loop_reference_bit_for_bit(name):
    objective, x0, max_evals = LOOP_CASES[name]
    cfg = OptimizerConfig(max_evals=max_evals)
    fast, ref = evaluations(objective), evaluations(objective)
    got = minimize(fast, x0, cfg)
    want = loop_reference.minimize(ref, x0, cfg)
    assert fast.calls == ref.calls
    assert got.best_params.tobytes() == want.best_params.tobytes()
    assert (got.best_value, got.evals, got.converged) == (
        want.best_value, want.evals, want.converged)


def test_loop_cases_reach_every_step_and_stop():
    steps, stops = set(), set()
    for objective, x0, max_evals in LOOP_CASES.values():
        taken = []
        res = loop_reference.minimize(objective, x0, OptimizerConfig(max_evals=max_evals), taken)
        steps.update(taken)
        stops.add("converged" if res.converged else "budget")
    assert steps == {"reflect", "expand", "contract_outside", "contract_inside", "shrink"}
    assert stops == {"converged", "budget"}


def test_quantized_case_ties_new_vertices_and_shrinks():
    # the bit-for-bit case above then shows that each tied vertex goes after
    # its equals, where the reference's stable sort puts it
    objective, x0, max_evals = LOOP_CASES["quantized-quadratic"]
    steps, ties = [], []
    loop_reference.minimize(objective, x0, OptimizerConfig(max_evals=max_evals), steps, ties)
    assert len(ties) >= 5
    assert "shrink" in steps


def test_minimize_matches_loop_reference_on_a_non_finite_value():
    def bad(x):
        # the simplex walks toward (-1, 0) and meets the NaN region on the way
        return math.nan if x[0] < 0.2 else float(np.sum((x + [1.0, 0.0]) ** 2))

    fast, ref = evaluations(bad), evaluations(bad)
    with pytest.raises(EvaluationError) as got:
        minimize(fast, np.array([1.0, 0.0]))
    with pytest.raises(EvaluationError) as want:
        loop_reference.minimize(ref, np.array([1.0, 0.0]))
    assert fast.calls == ref.calls
    assert got.value.params.tobytes() == want.value.params.tobytes()
