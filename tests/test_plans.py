"""The campaign plan files in plans/: each runs, and each builds its campaign's plan."""

from pathlib import Path

import pytest

from pce_mincut.cli import _apply_config, _plan_from_args, build_parser, main
from pce_mincut.harness import ExperimentPlan, GraphSource, SolverSpec, read_records
from pce_mincut.optimize import OptimizerConfig

PLANS = Path(__file__).resolve().parent.parent / "plans"


def plan_of(name, *flags):
    argv = ["bench", "--config", str(PLANS / name), *map(str, flags)]
    return _plan_from_args(_apply_config(build_parser().parse_args(argv)))


def assert_same_plan(built, expected):
    assert built == expected
    assert repr(built) == repr(expected)  # also tells 4 from 4.0


@pytest.mark.parametrize("plan", sorted(PLANS.glob("*.json")), ids=lambda p: p.name)
def test_plan_file_runs(plan, tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    code = main([
        "bench", "--config", str(plan), "--n", "4", "--reps", "1",
        "--max-evals", "200", "--workers", "1", "--records", str(records),
        "--report-dir", str(tmp_path), "--cache", str(tmp_path / "baselines.json"),
        "--quiet",
    ])
    assert code == 0
    assert read_records(records)


def test_alpha_sweep_plan():
    built = plan_of("alpha_sweep.json", "--n", 6, "--reps", 10, "--workers", 2,
                    "--cache", "results/alpha_sweep/baselines.json")
    expected = ExperimentPlan(
        graph=GraphSource(kind="generate", n=6),
        repetitions=10,
        solvers=tuple(
            SolverSpec(label=f"fixed-a{a}", mode="fixed", alpha=a, beta=1000.0)
            for a in (4, 8, 16, 32, 64, 100, 300, 1000)
        ),
        baseline_method="auto",
        baseline_cache="results/alpha_sweep/baselines.json",
        record_history=False,
        workers=2,
    )
    assert_same_plan(built, expected)


@pytest.mark.parametrize("n", [6, 14])
def test_paired_campaign_plan(n):
    cache = f"results/iterative_benchmark/n{n}/baselines.json"
    built = plan_of("paired_campaign.json", "--n", n, "--reps", 10, "--max-evals", 3000,
                    "--workers", 2, "--cache", cache)
    expected = ExperimentPlan(
        graph=GraphSource(kind="generate", n=n),
        repetitions=10,
        solvers=(SolverSpec(label="iterative", paired_control=True,
                            optimizer=OptimizerConfig(max_evals=3000)),),
        baseline_method="auto",
        baseline_cache=cache,
        workers=2,
    )
    assert_same_plan(built, expected)


def test_regularization_sweep_plan():
    built = plan_of("regularization_sweep.json", "--n", 6, "--reps", 5, "--workers", 2,
                    "--cache", "results/regularization/baselines.json")
    expected = ExperimentPlan(
        graph=GraphSource(kind="generate", n=6),
        repetitions=5,
        solvers=tuple(
            SolverSpec(label=label, mode="fixed", alpha=100.0, eta=eta)
            for label, eta in (("eta0", 0.0), ("eta1", 1.0), ("eta10", 10.0),
                               ("eta100", 100.0), ("eta1000", 1000.0))
        ),
        baseline_method="auto",
        baseline_cache="results/regularization/baselines.json",
        record_history=False,
        workers=2,
    )
    assert_same_plan(built, expected)
