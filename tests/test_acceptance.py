"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
measured runtimes. The campaign fixtures pin every seed, so results are
reproducible bit for bit.
"""

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import random_graphs
from dense_reference import dense_expectation, dense_prepare
from pce_mincut.encoding import EncodingSpec, capacity, enumerate_strings
from pce_mincut.graph import cut_size, generate_complete_graph
from pce_mincut.harness import (
    ExperimentPlan,
    GraphSource,
    SolverSpec,
    metric_epsilon_c,
    replay_record,
    run_plan,
)
from pce_mincut.objective import (
    ObjectiveSpec,
    beta_c,
    binarization,
    loss,
    plateau_width,
)
from pce_mincut.optimize import OptimizerConfig
from pce_mincut.oracles import SaConfig, exhaustive_best, sa_solve
from pce_mincut.quantum import ExpectationKernel, parameter_count, prepare_state
from pce_mincut.solver import default_config, solve_iterative, solve_pce

# about 95% of the suite's wall time; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# campaign shared by criteria 5, 6, and 10: paired iterative/control runs on
# the unit complete graphs, 10 seeds per (graph, c) cell
CAMPAIGN_SIZES = (6, 14)
CAMPAIGN_OPTIMIZER = OptimizerConfig(max_evals=3000)


@pytest.fixture(scope="module")
def paired_campaign():
    results = {}
    t0 = time.monotonic()
    for n in CAMPAIGN_SIZES:
        plan = ExperimentPlan(
            graph=GraphSource(kind="generate", n=n),
            c_values=None,  # every c in [2, n/2]
            repetitions=10,
            solvers=(
                SolverSpec(label="iterative", paired_control=True,
                           optimizer=CAMPAIGN_OPTIMIZER),
            ),
            seed_base=0,
            baseline_method="exhaustive",
            record_history=False,
            workers=2,
        )
        records, rep = run_plan(plan)
        assert not rep.failures
        results[n] = records
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_1_quantum_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for m in (2, 3, 4, 5):
        spec = EncodingSpec("full_xyz", m=m, n_vars=capacity("full_xyz", m, 2), k=2)
        strings = enumerate_strings(spec)
        kernel = ExpectationKernel(strings)
        rng = np.random.default_rng(m)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi, parameter_count(m))
            psi = prepare_state(m, theta)
            ref_psi = dense_prepare(m, theta)
            fast = kernel(psi)
            ref = np.array([dense_expectation(ref_psi, s.letters) for s in strings])
            worst = max(worst, float(np.max(np.abs(fast - ref))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report(f"1 quantum-oracle-equivalence: PASS (max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_loss_qubo_identity():
    rng = np.random.default_rng(2024)
    t = 1 - 1e-9
    alpha = 15.0
    worst = 0.0
    for g in random_graphs(50, max_n=10, seed=2):
        n = g.n
        c = int(rng.integers(1, n // 2 + 1))
        z = np.where(rng.random(n) < 0.5, -1, 1)
        beta = float(rng.uniform(0.5, 100.0))
        enc = EncodingSpec("full_xyz", m=5, n_vars=n, k=2)
        spec = ObjectiveSpec(graph=g, encoding=enc, alpha=alpha, c=c, beta=beta)
        e = np.arctanh(t * z) / alpha
        want = cut_size(g, z) + beta * (z.sum() - (n - 2 * c)) ** 2
        worst = max(worst, abs(loss(spec, e) - want))
    assert worst < 1e-5
    report(f"2 loss-qubo-identity: PASS (max dev {worst:.2e})")


def test_criterion_3_beta_c_bound():
    t0 = time.monotonic()
    checked = 0
    for g in random_graphs(50, max_n=12, seed=3):
        n = g.n
        w = g.weights
        wsum = w.sum()
        for c in range(1, n // 2 + 1):
            bound = beta_c(g, c)
            subsets = np.array(list(itertools.combinations(range(n), c)))
            zmat = np.ones((len(subsets), n))
            rows = np.repeat(np.arange(len(subsets)), c)
            zmat[rows, subsets.ravel()] = -1.0
            cuts = 0.25 * (wsum - np.einsum("ai,ij,aj->a", zmat, w, zmat))
            assert np.all(cuts <= bound + 1e-9)
            checked += len(subsets)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"3 beta-c-bound: PASS ({checked} assignments, {elapsed:.1f}s)")


ORACLE_GRAPHS = (
    generate_complete_graph(6),
    generate_complete_graph(12),
    generate_complete_graph(5, weights="uniform", seed=17, low=0.1, high=2.0),
    generate_complete_graph(9, weights="uniform", seed=18, low=0.1, high=2.0),
    generate_complete_graph(12, weights="uniform", seed=19, low=0.1, high=2.0),
    generate_complete_graph(10, weights="uniform", seed=20, low=0.0, high=1.0,
                            drop_prob=0.2),
)


def test_criterion_4_oracle_agreement():
    t0 = time.monotonic()
    calls = 0
    for g in ORACLE_GRAPHS:
        for c in range(1, g.n // 2 + 1):
            exact = exhaustive_best(g, c).cut
            for seed in range(5):
                got = sa_solve(g, c, SaConfig(seed=seed)).cut
                assert got == pytest.approx(exact, abs=1e-9), (g.n, c, seed)
                calls += 1
    report(f"4 oracle-agreement: PASS ({calls} SA runs, {time.monotonic() - t0:.1f}s)")


def test_criterion_5_iterative_feasibility(paired_campaign):
    assert paired_campaign["elapsed"] < 600.0
    for n in CAMPAIGN_SIZES:
        it_records = [r for r in paired_campaign[n] if r["role"] == "iterative"]
        assert len(it_records) == 10 * (n // 2 - 1)
        eps = metric_epsilon_c(it_records)
        mean_bin = float(np.mean([r["metrics"]["binarization"] for r in it_records]))
        assert eps >= 0.9, f"n={n}: eps_c={eps}"
        assert mean_bin >= 0.95, f"n={n}: binarization={mean_bin}"
        report(
            f"5 iterative-feasibility n={n}: PASS (eps_c={eps:.2f}, "
            f"binarization={mean_bin:.3f}, campaign {paired_campaign['elapsed']:.0f}s)"
        )


def test_criterion_6_never_worse_pairing(paired_campaign):
    total_pairs = 0
    control_only = 0
    for n in CAMPAIGN_SIZES:
        pairs = {}
        for rec in paired_campaign[n]:
            pairs.setdefault(rec["pair_id"], {})[rec["role"]] = rec
        for sides in pairs.values():
            total_pairs += 1
            if (
                sides["control"]["metrics"]["feasible"]
                and not sides["iterative"]["metrics"]["feasible"]
            ):
                control_only += 1
    assert total_pairs >= 20
    assert control_only == 0
    report(f"6 never-worse-pairing: PASS ({total_pairs} pairs, control-only={control_only})")


def test_criterion_7_alpha_sweep():
    g = generate_complete_graph(6)
    means = {}
    for alpha in (4.0, 100.0):
        bins = []
        for c in (2, 3):
            for seed in range(5):
                cfg = default_config(g, c, alpha_mode="fixed", alpha=alpha, seed=seed)
                bins.append(binarization(solve_pce(cfg).soft))
        means[alpha] = float(np.mean(bins))
    gap = means[100.0] - means[4.0]
    assert gap >= 0.5, means
    report(f"7 alpha-sweep: PASS (bin@4={means[4.0]:.2f}, bin@100={means[100.0]:.2f})")


def test_criterion_8_plateau_width_law():
    for alpha in np.logspace(-3, 9, 25):
        assert plateau_width(2 * alpha) == pytest.approx(plateau_width(alpha) / 2, rel=1e-12)
    report("8 plateau-width-law: PASS (25 log-spaced alphas)")


def test_criterion_9_iteration_count_sanity():
    t0 = time.monotonic()
    cases = [(n, seed) for n, seeds in ((6, (0, 1)), (14, (0, 1)), (25, (0,)))
             for seed in seeds]
    # independent solves, two at a time, the longest (n=25) first
    with ProcessPoolExecutor(max_workers=2) as pool:
        solves = {
            (n, seed): pool.submit(solve_iterative,
                                   default_config(generate_complete_graph(n), 2, seed=seed))
            for n, seed in reversed(cases)
        }
    checked = []
    for n, seed in cases:
        out = solves[n, seed].result()
        assert out.outer_iters <= 50, (n, seed, out.outer_iters)
        assert not out.capped, (n, seed)
        if n == 25:  # loose band around the typical update count
            assert 5 <= out.outer_iters <= 50
        checked.append((n, out.outer_iters))
    report(
        f"9 iteration-count-sanity: PASS ({checked}, {time.monotonic() - t0:.0f}s)"
    )


def test_criterion_10_replay_determinism(paired_campaign):
    rng = np.random.default_rng(10)
    for n in CAMPAIGN_SIZES:
        recs = paired_campaign[n]
        for rec in (recs[int(i)] for i in rng.integers(0, len(recs), 3)):
            frozen = json.loads(json.dumps(rec))  # as read back from disk
            out = replay_record(frozen)
            assert out.z.tolist() == frozen["outcome"]["z"]
            assert out.soft.tolist() == frozen["outcome"]["soft"]
            assert out.theta_final.tolist() == frozen["outcome"]["theta_final"]
            assert out.cut == frozen["outcome"]["cut"]
            assert out.loss_final == frozen["outcome"]["loss_final"]
            assert out.final_alpha == frozen["outcome"]["final_alpha"]
            assert out.inner_evals == frozen["outcome"]["inner_evals"]
            assert out.outer_iters == frozen["outcome"]["outer_iters"]
    report("10 replay-determinism: PASS (6 records replayed bit-identically)")
