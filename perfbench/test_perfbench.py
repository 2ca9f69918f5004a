"""Tests of the benchmark itself: tiny smoke runs, span arithmetic, patching.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import runner
import spans
import workloads
from pce_mincut import harness, oracles, quantum, solver

HERE = Path(__file__).resolve().parent

TINY = {
    "paired-k6": workloads.PairedK6(n=4, c_values=(2,), repetitions=2, max_evals=200),
    "iterative-large": workloads.IterativeLarge(cases=((30, 6), (12, 3)), max_evals=80),
    "baselines": workloads.Baselines(exhaustive_n=8, sa_ns=(12,), sa_seeds=2,
                                     check_c=(2, 4), sa_steps=300),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    run = runner.execute(TINY[name], seed=1, seconds=0.0, trace=trace, out_dir=tmp_path)
    assert run["errors"] == []
    assert run["attempted"] >= 1 and run["failed"] == 0
    m = run["metrics"]
    for key in ("wall_s", "evals_per_s", "bin_mean", "peak_rss_mb"):
        assert m[key] > 0, key
    if trace:
        assert set(run["per_layer"]) == set(runner.per_layer_units())
        assert (tmp_path / f"spans-{TINY[name].name}.npz").is_file()
    else:
        assert run["per_layer"] is None
    line = runner.result_line(True, {**run, "metrics": {**m, "setup_s": 0.5}}, trace)
    assert line.startswith('{"correct": true')


def test_baselines_second_sweep_is_served_from_cache(tmp_path):
    run = runner.execute(TINY["baselines"], seed=2, seconds=0.0, trace=True, out_dir=tmp_path)
    assert run["per_layer"]["oracles.baseline_cut.cache_hit_frac"] == 0.5


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on
    # [3, 4]; a has child g [1, 2]; c [7, 12] sticks out of the root
    start = [0.0, 1.0, 3.0, 1.0, 7.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    assert got == pytest.approx([10 - 5 - 3, 3 - 1, 3, 1, 5])
    table = spans.summarize(["root", "x", "x", "g", "c"], [e - s for s, e in zip(start, end)], got)
    assert table["x"]["calls"] == 2
    assert table["x"]["self_s"] == pytest.approx(5.0)
    assert table["x"]["us_per_call"] == pytest.approx(3e6)


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    def count(counters, args, kwargs, result):
        counters["inner"] = counters.get("inner", 0) + result

    with tracer.patched([spans.Site(Box, "outer", "outer"),
                         spans.Site(Box, "inner", "inner", count)]):
        assert Box.outer(3) == 7
    assert tracer.span_names() == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counters == {"inner": 6}
    assert sum(tracer.self_times()) == pytest.approx(tracer.end[0] - tracer.start[0])


def test_patching_restores_every_original_attribute():
    sites = workloads.trace_sites()
    before = [(s.owner, s.attr, s.owner.__dict__[s.attr]) for s in sites]
    kernel_call = quantum.ExpectationKernel.__call__
    minimize = solver.minimize
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(sites):
            assert harness.solve is not solver.solve
            assert quantum.ExpectationKernel.__call__ is not kernel_call
            assert oracles.sa_solve.__wrapped__ is not None
            raise RuntimeError("leave the block early")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
    with spans.tap(sites, {}):
        assert solver.minimize is not minimize
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


def test_bench_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "baselines",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
