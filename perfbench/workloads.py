"""The benchmark's workloads, their metrics and their correctness checks.

Each workload builds its inputs from the workload seed (``setup``), runs
one pass of its timed work through the package's public API
(``run_pass``), turns a pass into metrics (``metrics``) and checks that the
pass's outputs are right (``check``). Every package function is looked up
on its module at call time, so the wrappers in ``spans`` see each call.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from pce_mincut import harness, oracles, quantum, solver
from pce_mincut.graph import cut_size, generate_complete_graph
from pce_mincut.harness import ExperimentPlan, GraphSource, SolverSpec
from pce_mincut.objective import binarization, is_feasible
from pce_mincut.optimize import OptimizerConfig
from pce_mincut.oracles import SaConfig

from spans import Site

# --- counters taken where the work happens ----------------------------------


def _count_evals(counters, args, kwargs, result):
    counters["optimize.evals"] = counters.get("optimize.evals", 0) + result.evals
    counters["optimize.runs"] = counters.get("optimize.runs", 0) + 1
    counters["optimize.converged"] = counters.get("optimize.converged", 0) + int(result.converged)


def _count_kernel_bytes(counters, args, kwargs, result):
    # computed, not measured: the stacked int64 permutation (8 B) and complex
    # phase (16 B) per string and amplitude, plus the complex state itself;
    # temporaries are not counted
    dim = 2 ** args[0].m
    counters["quantum.kernel.bytes"] = (
        counters.get("quantum.kernel.bytes", 0) + result.shape[0] * dim * 24 + dim * 16
    )


def _count_iterative(counters, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    if cfg.alpha_mode == "iterative":
        counters.setdefault("solver.iterative", []).append((result.outer_iters, result.capped))


class OracleAnswer(NamedTuple):
    kind: str  # "exhaustive" | "sa"
    graph: object
    c: int
    work: int  # candidate cuts scored: C(n, c), or SA steps over all restarts
    result: object  # the OracleResult

    @property
    def key(self) -> tuple[int, int]:
        return id(self.graph), self.c


def _oracle_answer(kind):
    def record(counters, args, kwargs, result):
        g, c = args[0], args[1]
        if kind == "exhaustive":
            work = math.comb(g.n, c)
        else:
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg", SaConfig())
            work = cfg.steps * cfg.restarts
        counters.setdefault("oracle_answers", []).append(OracleAnswer(kind, g, c, work, result))

    return record


def trace_sites() -> list[Site]:
    """Every traced layer boundary, patched where its caller looks it up."""
    return [
        Site(harness, "run_plan", "harness.run_plan"),
        Site(harness, "make_record", "harness.make_record"),
        Site(harness, "baseline_cut", "oracles.baseline_cut"),
        Site(oracles, "baseline_cut", "oracles.baseline_cut"),
        Site(oracles, "exhaustive_best", "oracles.exhaustive_best", _oracle_answer("exhaustive")),
        Site(oracles, "sa_solve", "oracles.sa_solve", _oracle_answer("sa")),
        Site(harness, "solve", "solver.solve", _count_iterative),
        Site(harness, "solve_pce_at_final_alpha", "solver.solve"),
        Site(solver, "minimize", "optimize.minimize", _count_evals),
        Site(solver, "prepare_state", "quantum.prepare_state"),
        Site(quantum.ExpectationKernel, "__call__", "quantum.kernel", _count_kernel_bytes),
        Site(solver, "loss", "objective.loss"),
    ]


# --- solve workloads -----------------------------------------------------------


@dataclass
class SolvePass:
    wall_s: float
    records: list[list[dict]]  # one list per plan
    records_bytes: int


def _outcome_key(rec: dict):
    if "error" in rec:
        return rec["error"]
    out = rec["outcome"]
    return (rec["label"], rec["c"], out["z"], out["soft"], out["theta_final"],
            out["loss_final"], out["inner_evals"])


def _evals_per_s(batches: list[list[dict]]) -> float | None:
    """Loss evals per second of solve time, each graph weighted equally.

    Per-eval cost differs between graph sizes by about 2x, so a plain ratio
    of totals would move with how a seed splits its evals among graphs;
    averaging the seconds per eval over graphs removes that.
    """
    s_per_eval = []
    for batch in batches:
        ok = [r for r in batch if "error" not in r]
        evals = sum(r["outcome"]["inner_evals"] for r in ok)
        if evals:
            s_per_eval.append(sum(r["wall_time_s"] for r in ok) / evals)
    return 1.0 / statistics.fmean(s_per_eval) if s_per_eval else None


class SolveWorkload:
    """Iterative solves run through ``harness.run_plan``, one plan per graph."""

    name = ""
    paired = False

    def plans(self, seed: int) -> list[ExperimentPlan]:
        raise NotImplementedError

    def setup(self, seed: int):
        plans = self.plans(seed)
        return plans, [p.graph.load() for p in plans]

    def cells(self, inputs) -> int:
        plans, graphs = inputs
        return sum(len(p.resolve_c_values(g.n)) * p.repetitions * len(p.solvers)
                   for p, g in zip(plans, graphs))

    def run_pass(self, inputs, tmp: Path, counters: dict) -> SolvePass:
        plans, _ = inputs
        paths = [tmp / f"records-{i}.jsonl" for i in range(len(plans))]
        t0 = time.perf_counter()
        records = [harness.run_plan(plan, records_path=path)[0]
                   for plan, path in zip(plans, paths)]
        wall = time.perf_counter() - t0
        return SolvePass(wall, records, sum(p.stat().st_size for p in paths))

    def metrics(self, inputs, p: SolvePass) -> dict:
        cells = self.cells(inputs)
        ok = [r for batch in p.records for r in batch if "error" not in r]
        it = [r for r in ok if r["role"] == "iterative"]
        feasible = [r for r in it if r["metrics"]["feasible"]]
        m = {
            "wall_s": p.wall_s,
            "evals_per_s": _evals_per_s(p.records),
            "s_per_feasible": p.wall_s / len(feasible) if feasible else None,
            "iter_solve_s_p50": statistics.median(r["wall_time_s"] for r in it) if it else None,
            "iter_solve_samples": len(it),
            "eps_c": len(feasible) / cells,
            "bin_mean": sum(r["metrics"]["binarization"] for r in it) / cells,
            "norm_cut_mean": statistics.fmean(r["metrics"]["normalized_cut"] for r in feasible)
            if feasible else None,
            "evals": sum(r["outcome"]["inner_evals"] for r in ok),
        }
        if self.paired:
            sides: dict[str, dict] = {}
            for r in ok:
                sides.setdefault(r["pair_id"], {})[r["role"]] = r
            m["control_only_frac"] = sum(
                1 for s in sides.values()
                if "control" in s and s["control"]["metrics"]["feasible"]
                and not s["iterative"]["metrics"]["feasible"]
            ) / cells
        return m

    def attempted_failed(self, inputs, p: SolvePass) -> tuple[int, int]:
        recs = [r for batch in p.records for r in batch]
        return self.cells(inputs), sum(1 for r in recs if "error" in r)

    def check(self, inputs, p: SolvePass, reference: SolvePass | None) -> list[str]:
        _, graphs = inputs
        errors = []
        for g, batch in zip(graphs, p.records):
            for r in batch:
                if "error" in r:
                    continue
                z, c = r["outcome"]["z"], r["c"]
                if cut_size(g, z) != r["outcome"]["cut"]:
                    errors.append(f"{r['pair_id'] or r['label']}: cut differs from graph.cut_size")
                if is_feasible(z, c) != r["metrics"]["feasible"]:
                    errors.append(f"{r['pair_id'] or r['label']}: feasible differs from is_feasible")
        if reference is not None:
            same = [_outcome_key(r) for b in p.records for r in b] == \
                   [_outcome_key(r) for b in reference.records for r in b]
            if not same:
                errors.append("a repeated pass gave different outcomes")
        return errors

    def replay_check(self, inputs, p: SolvePass) -> list[str]:
        """Replay the iterative record with the fewest evals, bit for bit,
        rebuilding its graph from the record alone."""
        candidates = [(r["outcome"]["inner_evals"], i, j)
                      for i, batch in enumerate(p.records)
                      for j, r in enumerate(batch)
                      if "error" not in r and r["role"] == "iterative"]
        if not candidates:
            return ["no iterative record to replay"]
        _, i, j = min(candidates)
        frozen = json.loads(json.dumps(p.records[i][j]))
        out = harness.replay_record(frozen)
        want = frozen["outcome"]
        errors = []
        for key, got in (("z", out.z.tolist()), ("soft", out.soft.tolist()),
                         ("theta_final", out.theta_final.tolist()),
                         ("loss_final", out.loss_final), ("inner_evals", out.inner_evals)):
            if got != want[key]:
                errors.append(f"replay of {frozen['pair_id'] or frozen['label']}: {key} differs")
        return errors


@dataclass(frozen=True)
class PairedK6(SolveWorkload):
    """The n=6 half of the acceptance campaign, with paired controls."""

    n: int = 6
    c_values: tuple[int, ...] = (2, 3)
    repetitions: int = 10
    max_evals: int = 3000
    name = "paired-k6"
    paired = True

    def plans(self, seed):
        return [ExperimentPlan(
            graph=GraphSource(kind="generate", n=self.n),
            c_values=self.c_values,
            repetitions=self.repetitions,
            solvers=(SolverSpec(label="iterative", paired_control=True,
                                optimizer=OptimizerConfig(max_evals=self.max_evals)),),
            seed_base=seed,
            baseline_method="exhaustive",
            record_history=False,
            workers=1,
        )]


@dataclass(frozen=True)
class IterativeLarge(SolveWorkload):
    """One iterative solve per (n, c) on uniform-weight complete graphs."""

    cases: tuple[tuple[int, int], ...] = ((105, 20), (300, 60))
    max_evals: int = 500
    name = "iterative-large"

    def plans(self, seed):
        return [ExperimentPlan(
            graph=GraphSource(kind="generate", n=n, weights="uniform", seed=seed,
                              low=0.1, high=1.0),
            c_values=(c,),
            repetitions=1,
            solvers=(SolverSpec(label="iterative",
                                optimizer=OptimizerConfig(max_evals=self.max_evals)),),
            seed_base=seed,
            baseline_method="sa",
            baseline_seed=seed,
            workers=1,
        ) for n, c in self.cases]


# --- classical oracles only ----------------------------------------------------


@dataclass
class BaselinePass:
    wall_s: float
    compute_s: float
    first: list  # baseline_cut values of the computing pass (None on error)
    second: list  # the same calls again, to be served from the cache
    answers: list  # oracle results produced by the computing pass
    second_answers: int  # oracle calls made by the cached pass (must be 0)


@dataclass(frozen=True)
class Baselines:
    """Exhaustive and SA baselines through ``oracles.baseline_cut`` and its cache."""

    exhaustive_n: int = 22
    sa_ns: tuple[int, ...] = (100, 300)
    sa_seeds: int = 3
    check_c: tuple[int, ...] = (5, 11)
    sa_steps: int = SaConfig().steps
    name = "baselines"

    def setup(self, seed: int):
        def graph(n):
            return generate_complete_graph(n, weights="uniform", seed=seed, low=0.1, high=1.0)

        small = graph(self.exhaustive_n)
        sa_cfgs = [SaConfig(seed=self.sa_seeds * seed + i, steps=self.sa_steps)
                   for i in range(self.sa_seeds)]
        calls = [(small, c, "exhaustive", None)
                 for c in range(1, self.exhaustive_n // 2 + 1)]
        for n in self.sa_ns:
            g = graph(n)
            calls += [(g, c, "sa", cfg) for c in (2, n // 4, n // 2) for cfg in sa_cfgs]
        calls += [(small, c, "sa", cfg) for c in self.check_c for cfg in sa_cfgs]
        return calls

    def cells(self, calls) -> int:
        return 2 * len(calls)

    def _sweep(self, calls, cache: Path) -> list:
        values = []
        for g, c, method, cfg in calls:
            try:
                values.append(oracles.baseline_cut(g, c, method=method, sa_config=cfg,
                                                   cache_path=cache))
            except Exception:  # counted as a failed call, the sweep goes on
                values.append(None)
        return values

    def run_pass(self, calls, tmp: Path, counters: dict) -> BaselinePass:
        cache = tmp / "baseline-cache.json"
        cache.unlink(missing_ok=True)
        answers = counters.setdefault("oracle_answers", [])
        start = len(answers)
        t0 = time.perf_counter()
        first = self._sweep(calls, cache)
        t1 = time.perf_counter()
        mid = len(answers)
        second = self._sweep(calls, cache)
        t2 = time.perf_counter()
        return BaselinePass(t2 - t0, t1 - t0, first, second, answers[start:mid],
                            len(answers) - mid)

    def metrics(self, calls, p: BaselinePass) -> dict:
        # each SA cut is normalized by the exhaustive optimum where there is
        # one, else by the best SA cut over the SA seeds
        sa = [a for a in p.answers if a.kind == "sa"]
        exact = {a.key: a.result.cut for a in p.answers if a.kind == "exhaustive"}
        best_sa: dict = {}
        for a in sa:
            best_sa[a.key] = min(best_sa.get(a.key, math.inf), a.result.cut)
        ratios = [oracles.normalized_cut(a.result.cut, exact.get(a.key, best_sa[a.key]))
                  for a in sa]
        feasible = [a for a in p.answers if is_feasible(a.result.z, a.c)]
        evals = sum(a.work for a in p.answers)
        return {
            "wall_s": p.wall_s,
            "evals_per_s": evals / p.compute_s,
            "s_per_feasible": p.wall_s / len(feasible) if feasible else None,
            "eps_c": len(feasible) / len(calls),
            "bin_mean": sum(binarization(a.result.z) for a in p.answers) / len(calls),
            "norm_cut_mean": statistics.fmean(ratios) if ratios else None,
            "evals": evals,
        }

    def attempted_failed(self, calls, p: BaselinePass) -> tuple[int, int]:
        return self.cells(calls), sum(v is None for v in p.first + p.second)

    def check(self, calls, p: BaselinePass, reference: BaselinePass | None) -> list[str]:
        errors = []
        for a in p.answers:
            if cut_size(a.graph, a.result.z) != a.result.cut:
                errors.append(f"{a.kind} n={a.graph.n} c={a.c}: cut differs from graph.cut_size")
            if not is_feasible(a.result.z, a.c):
                errors.append(f"{a.kind} n={a.graph.n} c={a.c}: answer violates the budget")
        if len(p.answers) != len(calls):
            errors.append(f"{len(p.answers)} oracle answers for {len(calls)} calls")
        if p.second != p.first:
            errors.append("the cached pass returned different values")
        if p.second_answers:
            errors.append(f"the cached pass recomputed {p.second_answers} baselines")
        exact = {(id(g), c): v for (g, c, method, _), v in zip(calls, p.first)
                 if method == "exhaustive"}
        for (g, c, method, cfg), v in zip(calls, p.first):
            opt = exact.get((id(g), c))
            # the slack only absorbs summation-order rounding between two
            # different optimal partitions
            if method == "sa" and opt is not None and v is not None and v < opt - 1e-9 * max(1.0, opt):
                errors.append(f"SA n={g.n} c={c} seed={cfg.seed} beat the exhaustive optimum")
        if reference is not None and p.first != reference.first:
            errors.append("a repeated pass gave different values")
        return errors

    def replay_check(self, calls, p: BaselinePass) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (PairedK6(), IterativeLarge(), Baselines())}
