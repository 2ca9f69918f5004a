"""Run one workload, check its outputs and turn the passes into metrics.

The untraced passes give the end-to-end metrics. A traced run adds one more
pass with every layer boundary wrapped (see ``spans``) and reports the
per-layer metrics; the gap between its wall time and the untraced median
is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]

# name -> unit of every metric printed for a workload; BENCHMARK.json bounds
# the ones defined and non-zero on every workload (END_TO_END)
DISPLAY_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "s_per_feasible": "s",
    "iter_solve_s_p50": "s",
    "eps_c": "ratio",
    "control_only_frac": "ratio",
    "bin_mean": "ratio",
    "norm_cut_mean": "ratio",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
END_TO_END = ("setup_s", "evals_per_s", "bin_mean", "peak_rss_mb")

SPANS = (
    "harness.run_plan",
    "harness.make_record",
    "oracles.baseline_cut",
    "oracles.exhaustive_best",
    "oracles.sa_solve",
    "solver.solve",
    "optimize.minimize",
    "quantum.prepare_state",
    "quantum.kernel",
    "objective.loss",
)
ORACLE_SPANS = ("oracles.exhaustive_best", "oracles.sa_solve")

SETUP_PROBES = 7


def per_layer_units() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric of a traced run."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = ("count", "lower")
        units[f"{span}.self_s"] = ("s", "lower")
        units[f"{span}.us_per_call"] = ("us", "lower")
    units.update({
        "optimize.evals": ("count", "lower"),
        "optimize.converged_frac": ("ratio", "higher"),
        "optimize.self_us_per_eval": ("us", "lower"),
        "solver.outer_iters_mean": ("count", "lower"),
        "solver.capped_frac": ("ratio", "lower"),
        "quantum.kernel.bytes_computed": ("B", "lower"),
        "oracles.exhaustive_best.subsets_per_s": ("1/s", "higher"),
        "oracles.sa_solve.steps_per_s": ("1/s", "higher"),
        "oracles.baseline_cut.cache_hit_frac": ("ratio", "higher"),
        "harness.records_bytes": ("B", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return units


# --- environment ----------------------------------------------------------------


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, blas_vars) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "git_commit": _git_commit(ROOT),
    }


# --- set-up time -------------------------------------------------------------------


def measure_setup(bench_script: Path, workload: str, seed: int, probes: int = SETUP_PROBES) -> float:
    """Median time from process start to the end of input building.

    Each probe is a fresh interpreter running the benchmark with
    --setup-only: it imports the package, builds the workload's graphs and
    plans and prints one line, which is when the clock stops.
    """
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(bench_script), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


# --- one workload run --------------------------------------------------------------


def _oracle_sites():
    return [s for s in workloads.trace_sites() if s.span in ORACLE_SPANS]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _per_layer(tracer: spans.Tracer, traced, untraced_wall: float) -> tuple[dict, float]:
    """Per-layer metrics of a traced pass, and the sum of all span self times."""
    names = tracer.span_names()
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    selfs = tracer.self_times()
    table = spans.summarize(names, durations, selfs)
    empty = {"calls": 0, "self_s": 0.0, "us_per_call": 0.0}
    out = {}
    for span in SPANS:
        row = table.get(span, empty)
        out[f"{span}.calls"] = row["calls"]
        out[f"{span}.self_s"] = row["self_s"]
        out[f"{span}.us_per_call"] = row["us_per_call"]

    c = tracer.counters
    evals = c.get("optimize.evals", 0)
    runs = c.get("optimize.runs", 0)
    out["optimize.evals"] = evals
    out["optimize.converged_frac"] = c.get("optimize.converged", 0) / runs if runs else 0.0
    out["optimize.self_us_per_eval"] = (
        1e6 * table["optimize.minimize"]["self_s"] / evals if evals else 0.0
    )
    iterative = c.get("solver.iterative", [])
    out["solver.outer_iters_mean"] = (
        statistics.fmean(n for n, _ in iterative) if iterative else 0.0
    )
    out["solver.capped_frac"] = (
        sum(capped for _, capped in iterative) / len(iterative) if iterative else 0.0
    )
    out["quantum.kernel.bytes_computed"] = c.get("quantum.kernel.bytes", 0)

    answers = c.get("oracle_answers", [])
    for span, kind, key in (("oracles.exhaustive_best", "exhaustive", "subsets_per_s"),
                            ("oracles.sa_solve", "sa", "steps_per_s")):
        work = sum(a.work for a in answers if a.kind == kind)
        busy = table.get(span, empty)["self_s"]
        out[f"{span}.{key}"] = work / busy if busy else 0.0

    oracle_parents = {p for p, n in zip(tracer.parent, names) if n in ORACLE_SPANS}
    cut_calls = [i for i, n in enumerate(names) if n == "oracles.baseline_cut"]
    out["oracles.baseline_cut.cache_hit_frac"] = (
        sum(i not in oracle_parents for i in cut_calls) / len(cut_calls) if cut_calls else 0.0
    )
    out["harness.records_bytes"] = getattr(traced, "records_bytes", 0)
    out["trace.overhead_frac"] = (traced.wall_s - untraced_wall) / untraced_wall
    return out, sum(selfs)


def execute(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run whole untraced passes until ``seconds`` have been measured, then
    (when ``trace``) one traced pass and one more untraced pass; check every
    pass and replay one record.

    Returns every metric of the run, the errors the checks found and the
    attempted and failed operation counts.
    """
    inputs = workload.setup(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    errors: list[str] = []
    attempted = failed = 0
    passes = []

    def untraced_pass():
        counters: dict = {}
        with spans.tap(_oracle_sites(), counters):
            p = workload.run_pass(inputs, tmp, counters)
        errors.extend(workload.check(inputs, p, passes[0] if passes else None))
        passes.append(p)

    try:
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            untraced_pass()
        runs = list(passes)
        per_layer = None
        if trace:
            tracer = spans.Tracer()
            with tracer.patched(workloads.trace_sites()):
                traced = workload.run_pass(inputs, tmp, tracer.counters)
            errors += workload.check(inputs, traced, passes[0])
            # an untraced pass on each side of the traced one, so that a
            # drift in machine speed does not read as tracing overhead
            untraced_pass()
            runs += [traced, passes[-1]]
            untraced_wall = statistics.median(p.wall_s for p in passes)
            per_layer, self_sum = _per_layer(tracer, traced, untraced_wall)
            if self_sum > traced.wall_s:
                errors.append(f"span self times sum to {self_sum:.6f} s, "
                              f"more than the traced wall {traced.wall_s:.6f} s")
            tracer.save(out_dir / f"spans-{workload.name}.npz")
        per_pass = [workload.metrics(inputs, p) for p in passes]
        metrics = {k: _median(m.get(k) for m in per_pass) for k in per_pass[0]}

        for p in runs:
            a, f = workload.attempted_failed(inputs, p)
            attempted += a
            failed += f
        metrics["failed_frac"] = failed / attempted
        errors += workload.replay_check(inputs, passes[0])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["passes"] = len(passes)
    return {
        "metrics": metrics,
        "per_layer": per_layer,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
    }


def render(name: str, metrics: dict, per_layer: dict | None) -> list[str]:
    """Human-readable lines: every applicable metric with its unit."""
    lines = []
    for key, unit in DISPLAY_UNITS.items():
        if key not in metrics:
            continue
        value = metrics[key]
        if key == "iter_solve_s_p50":
            unit += f"  (n={metrics['iter_solve_samples']})"
        shown = "none" if value is None else f"{value:.6g}"
        lines.append(f"{name:16s} {key:34s} {shown:>14s} {unit}")
    if per_layer is not None:
        units = per_layer_units()
        for key, value in per_layer.items():
            lines.append(f"{name:16s} {key:34s} {value:>14.6g} {units[key][0]}")
    return lines


def result_line(correct: bool, run: dict, trace: bool) -> str:
    """The last stdout line: end-to-end metrics untraced, per-layer traced."""
    if trace:
        units = per_layer_units()
        chosen = {k: {"value": v, "unit": units[k][0]} for k, v in run["per_layer"].items()}
    else:
        chosen = {k: {"value": run["metrics"][k], "unit": DISPLAY_UNITS[k]} for k in END_TO_END}
    return json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": chosen,
    })
