import math
from dataclasses import replace

import numpy as np
import pytest

import pce_mincut.solver as solver_mod
from conftest import read_at_theta_final
from pce_mincut.graph import generate_complete_graph
from pce_mincut.objective import binarization
from pce_mincut.optimize import EvaluationError, OptimizerConfig, random_init
from pce_mincut.quantum import parameter_count
from pce_mincut.solver import (
    CONTROL_SEED_OFFSET,
    PceConfig,
    SolverSpec,
    next_alpha,
    solve,
    solve_pce_at_final_alpha,
)

FAST = OptimizerConfig(max_evals=800)


def test_next_alpha_terminates_when_all_clear():
    vals = [0.95, -0.92, 0.99]
    assert next_alpha(vals, 3.0, 0.9, "arctanh_ratio") == 3.0
    assert next_alpha(vals, 3.0, 0.9, "large_scale") == 3.0


def test_next_alpha_ratio_rule():
    want = 3.0 * math.atanh(0.9) / math.atanh(0.5)
    assert next_alpha([0.5], 3.0, 0.9) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(8.0405, abs=5e-4)


def test_next_alpha_large_scale_rule():
    want = 1.0 * math.atanh(0.95) / 0.5
    assert next_alpha([0.5], 1.0, 0.95, "large_scale") == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(3.6636, abs=5e-4)


def test_next_alpha_picks_value_closest_to_threshold():
    # 0.7 is closer to M=0.9 than 0.1: the update must key off 0.7
    vals = [0.1, -0.7, 0.95]
    want = 2.0 * math.atanh(0.9) / math.atanh(0.7)
    assert next_alpha(vals, 2.0, 0.9) == pytest.approx(want, rel=1e-12)


def test_next_alpha_zero_value_overflows():
    assert next_alpha([0.0], 3.0, 0.9) == math.inf
    assert next_alpha([0.0], 3.0, 0.9, "large_scale") == math.inf


def test_next_alpha_always_increases():
    rng = np.random.default_rng(4)
    for _ in range(200):
        vals = rng.uniform(-0.999, 0.999, size=8)
        alpha = float(rng.uniform(0.5, 100))
        for rule in ("arctanh_ratio", "large_scale"):
            new = next_alpha(vals, alpha, 0.9, rule)
            if new != alpha:  # unchanged means termination
                assert new > alpha


def test_solve_pce_k3_feasible_cut_is_two(k3):
    # every 1:2 split of unit K3 cuts weight 2; fixed-alpha runs may still
    # land infeasible (that failure mode motivates the iterative schedule)
    outcomes = [
        solve(SolverSpec(mode="fixed", alpha=100.0).config(k3, 1, s))
        for s in range(4)
    ]
    feasible = [o for o in outcomes if o.feasible]
    assert feasible
    assert all(o.cut == 2.0 for o in feasible)


def test_solve_pce_deterministic(k6):
    cfg = SolverSpec(mode="fixed", alpha=50.0, optimizer=FAST).config(k6, 2, 11)
    a, b = solve(cfg), solve(cfg)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.theta_final, b.theta_final)
    assert a.cut == b.cut and a.loss_final == b.loss_final
    assert a.inner_evals == b.inner_evals


def test_small_alpha_cannot_binarize(k6):
    out = solve(SolverSpec(mode="fixed", alpha=0.1, optimizer=FAST).config(k6, 2, 0))
    assert binarization(out.soft) == 0.0
    assert np.max(np.abs(out.soft)) <= math.tanh(0.1) + 1e-12


def test_solve_iterative_k6(k6):
    for seed in range(3):
        out = solve(SolverSpec().config(k6, 3, seed))
        assert out.feasible
        assert out.cut == 9.0  # every 3:3 split of unit K6
        assert not out.capped
        assert out.outer_iters <= 50
        assert out.history is not None and len(out.history) == out.outer_iters


def test_terminal_binarization(k6):
    cfg = SolverSpec().config(k6, 2, 1)
    out = solve(cfg)
    if not out.capped and out.outer_iters < cfg.max_outer_iters:
        assert np.all(np.abs(out.soft) >= cfg.M)
        assert binarization(out.soft) == 1.0


def test_alpha_sequence_strictly_increases(k6):
    cfg = SolverSpec(update_rule="large_scale").config(k6, 2, 3)
    out = solve(cfg)
    alphas = [h.alpha for h in out.history]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert alphas[0] == cfg.alpha0
    assert out.final_alpha == alphas[-1]


def test_history_minus_counts_and_evals(k6):
    out = solve(SolverSpec().config(k6, 2, 5))
    assert sum(h.evals for h in out.history) == out.inner_evals
    for h in out.history:
        assert 0 <= h.minus_count <= 6
        assert 0.0 <= h.binarization <= 1.0
    assert out.history[-1].binarization == 1.0


def test_every_prepared_state_is_an_evaluation(k6, prepared_rows):
    # an inner run ends at the expectations of its best evaluation; no state
    # is prepared again to read them
    out = solve(SolverSpec(optimizer=FAST).config(k6, 2, 3))
    assert out.outer_iters > 1
    assert sum(prepared_rows) == out.inner_evals


def test_a_non_finite_loss_raises_with_its_parameters(k6, monkeypatch):
    monkeypatch.setattr(solver_mod, "loss", lambda spec, e: math.nan)
    cfg = SolverSpec(optimizer=FAST).config(k6, 2, 5)
    with pytest.raises(EvaluationError) as exc_info:
        solve(cfg)
    start = random_init(parameter_count(cfg.objective.encoding.m, cfg.layers), cfg.seed)
    assert math.isnan(exc_info.value.value)
    assert np.array_equal(exc_info.value.params, start)


def test_warm_start_chains_theta(k6, monkeypatch):
    starts, finals = [], []
    real = solver_mod.nelder_mead

    def recording_nelder_mead(x0, max_evals, context=None):
        starts.append(np.array(x0))
        res = yield from real(x0, max_evals, context)
        finals.append(np.array(res.best_params))
        return res

    monkeypatch.setattr(solver_mod, "nelder_mead", recording_nelder_mead)
    out = solve(SolverSpec(optimizer=FAST).config(k6, 2, 7))
    assert len(starts) == out.outer_iters
    for t in range(1, len(starts)):
        assert np.array_equal(starts[t], finals[t - 1])


@pytest.mark.parametrize("solver_spec", [
    SolverSpec(mode="fixed", alpha=5.0, optimizer=FAST),
    SolverSpec(optimizer=FAST),
], ids=["fixed", "iterative"])
def test_the_outcome_is_read_at_theta_final(k6, solver_spec):
    # z and soft come from the e that nelder_mead kept with its best value,
    # so the e recomputed at theta_final gives them bit for bit
    for c, seed in [(2, 0), (2, 7), (3, 2)]:
        cfg = solver_spec.config(k6, c, seed)
        out = solve(cfg)
        assert out.outer_iters < cfg.max_outer_iters
        z, soft = read_at_theta_final(cfg, out.theta_final, out.final_alpha)
        assert np.array_equal(z, out.z)
        assert soft.tobytes() == out.soft.tobytes()


def test_iterative_deterministic(k6):
    cfg = SolverSpec(optimizer=FAST).config(k6, 3, 2)
    a, b = solve(cfg), solve(cfg)
    assert np.array_equal(a.z, b.z)
    assert a.final_alpha == b.final_alpha
    assert a.outer_iters == b.outer_iters
    assert np.array_equal(a.theta_final, b.theta_final)


def test_alpha_cap_flags_outcome(k6):
    # a cap below the first update forces capped termination after one
    # final inner run executed exactly at the cap value
    cfg = replace(SolverSpec(optimizer=FAST).config(k6, 2, 0), alpha_cap=4.0)
    out = solve(cfg)
    if out.capped:
        assert out.final_alpha == 4.0
        assert out.history[-1].alpha == 4.0
        assert out.outer_iters >= 2  # the pre-cap run plus the at-cap run
    else:  # finished before hitting the cap: all values cleared M at once
        assert np.all(np.abs(out.soft) >= cfg.M)


def test_max_outer_iters_respected(k6):
    cfg = replace(SolverSpec(optimizer=OptimizerConfig(max_evals=60)).config(k6, 2, 0),
                  max_outer_iters=3)
    out = solve(cfg)
    assert out.outer_iters <= 3


def test_control_run_pairs_with_iterative(k6):
    cfg = SolverSpec(optimizer=FAST).config(k6, 2, 9)
    out = solve(cfg)
    ctrl = solve_pce_at_final_alpha(out, cfg)
    assert ctrl.outer_iters == 1
    # fresh angles: the control must not share the iterative run's init
    ctrl2 = solve_pce_at_final_alpha(out, cfg)
    assert np.array_equal(ctrl.z, ctrl2.z)  # but it is deterministic
    direct = solve(
        PceConfig(
            objective=type(cfg.objective)(
                graph=cfg.objective.graph,
                encoding=cfg.objective.encoding,
                alpha=out.final_alpha,
                c=cfg.objective.c,
                beta=cfg.objective.beta,
                eta=cfg.objective.eta,
            ),
            optimizer=cfg.optimizer,
            seed=cfg.seed + CONTROL_SEED_OFFSET,
            alpha_mode="fixed",
        )
    )
    assert np.array_equal(ctrl.z, direct.z)
    assert ctrl.final_alpha == out.final_alpha


def test_solve_dispatch(k6):
    fixed = SolverSpec(mode="fixed", alpha=10.0, optimizer=FAST).config(k6, 2, 0)
    iterative = SolverSpec(optimizer=FAST).config(k6, 2, 0)
    assert solve(fixed).outer_iters == 1
    assert solve(iterative).history is not None


def test_config_validation(k6):
    with pytest.raises(ValueError):
        SolverSpec(M=1.5).config(k6, 2)
    with pytest.raises(ValueError):
        SolverSpec(alpha0=-1.0).config(k6, 2)
    with pytest.raises(ValueError):
        SolverSpec(update_rule="exponential").config(k6, 2)
    with pytest.raises(ValueError):
        SolverSpec(mode="sharp")
    # the schedule starts at alpha0; an alpha it never runs must not be recorded
    with pytest.raises(ValueError, match="alpha0"):
        SolverSpec(mode="iterative", alpha=50.0)


@pytest.mark.parametrize("kwargs, field", [
    ({"alpha0": math.nan}, "alpha0"),
    ({"alpha0": math.inf}, "alpha0"),
    ({"alpha_cap": 0.0}, "alpha_cap"),
    ({"alpha_cap": 1.0}, "alpha_cap"),  # below alpha0: the schedule would run backwards
    ({"alpha_cap": math.nan}, "alpha_cap"),
    ({"alpha_cap": math.inf}, "alpha_cap"),
])
def test_degenerate_schedule_inputs_are_refused(k6, kwargs, field):
    cfg = SolverSpec().config(k6, 2)
    if field == "alpha0":  # alpha_cap is no solver setting; only replace sets it
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverSpec(**kwargs).config(k6, 2)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        replace(cfg, **kwargs)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PceConfig(objective=cfg.objective, alpha_mode="iterative", **kwargs)


def test_alpha_cap_only_bounds_iterative_runs(k6):
    cfg = replace(SolverSpec(mode="fixed", alpha=10.0).config(k6, 2), alpha_cap=1.0)
    assert cfg.alpha_cap == 1.0
    assert replace(SolverSpec().config(k6, 2), alpha_cap=3.0).alpha_cap == cfg.alpha0 == 3.0


def test_fixed_run_is_the_first_step_of_the_schedule(k6):
    fixed = solve(SolverSpec(mode="fixed", alpha=30.0, optimizer=FAST).config(k6, 2, 4))
    first = solve(replace(SolverSpec(alpha0=30.0, optimizer=FAST).config(k6, 2, 4),
                          max_outer_iters=1))
    assert np.array_equal(fixed.theta_final, first.theta_final)
    assert np.array_equal(fixed.z, first.z)
    assert fixed.inner_evals == first.inner_evals
    assert first.history[0].loss == fixed.loss_final
    assert fixed.history is None and fixed.outer_iters == 1


def test_solver_spec_size_rules():
    for n, k, m, rule in ((6, 2, 3, "arctanh_ratio"), (25, 2, 5, "arctanh_ratio"),
                          (50, 3, 6, "large_scale")):
        g = generate_complete_graph(n)
        cfg = SolverSpec().config(g, 2)
        assert cfg.objective.encoding.k == k
        assert cfg.objective.encoding.m == m
        assert cfg.update_rule == rule
        assert cfg.M == 0.90 and cfg.alpha0 == 3.0
