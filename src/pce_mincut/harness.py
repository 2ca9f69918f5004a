"""Experiment orchestration: plans, run records, metrics, and reports.

A plan fixes one graph, a set of budget values c, solver variants, and a
repetition count; run_plan executes every cell, normalizes cut sizes
against a classical baseline computed once per (graph, c), and streams one
JSON record per run. Records carry everything needed to replay the run
bit-identically, so reports are always rebuilt from records rather than
from in-memory state.

Iterative solvers may request a paired control: after each iterative run, a
fresh fixed-alpha run at the alpha the iterative schedule reached, seeded
at seed + CONTROL_SEED_OFFSET. The aggregate report tabulates the four
feasibility combinations of each pair.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .encoding import EncodingSpec
from .graph import WeightedGraph, generate_complete_graph, graph_hash, read_graph
from .objective import ObjectiveSpec, binarization
from .optimize import F_TOL, INITIAL_STEP, METHOD, X_TOL, OptimizerConfig
from .oracles import SaConfig, baseline_cut, normalized_cut
from .quantum import numerics
from .solver import (
    ANSATZ_LAYOUT,
    PceConfig,
    SolveOutcome,
    control_config,
    default_config,
    solve,
    solve_pce_at_final_alpha,
)

__all__ = [
    "ARTIFACT_VERSION",
    "GraphSource",
    "SolverSpec",
    "ExperimentPlan",
    "AggregateReport",
    "metric_epsilon_c",
    "run_plan",
    "aggregate",
    "emit_report",
    "replay_record",
    "read_records",
    "write_runs_csv",
    "write_history_csv",
]

ARTIFACT_VERSION = "0.2.0"

HISTORY_FIELDS = ("iter", "alpha", "loss", "binarization", "minus_count")


# --- plan types --------------------------------------------------------------

@dataclass(frozen=True)
class GraphSource:
    """Where a plan's graph comes from: a seeded generator or a file."""

    kind: str = "generate"  # "generate" | "file"
    n: int | None = None
    weights: str = "unit"
    seed: int = 0
    low: float = 0.0
    high: float = 1.0
    drop_prob: float = 0.0
    path: str | None = None

    def load(self) -> WeightedGraph:
        if self.kind == "file":
            if not self.path:
                raise ValueError("file graph source needs a path")
            return read_graph(self.path)
        if self.kind == "generate":
            if self.n is None:
                raise ValueError("generator graph source needs n")
            return generate_complete_graph(
                self.n, weights=self.weights, seed=self.seed,
                low=self.low, high=self.high, drop_prob=self.drop_prob,
            )
        raise ValueError(f"unknown graph source kind {self.kind!r}")

    def to_dict(self, graph: WeightedGraph | None = None) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if graph is not None:
            d["hash"] = graph_hash(graph)
            d["nodes"] = graph.n
        return d

    @staticmethod
    def from_dict(d: dict) -> "GraphSource":
        known = {f for f in GraphSource.__dataclass_fields__}
        return GraphSource(**{k: v for k, v in d.items() if k in known})


@dataclass(frozen=True)
class SolverSpec:
    """One solver variant in a plan; None fields fall back to size defaults."""

    label: str = "iterative"
    mode: str = "iterative"  # "fixed" | "iterative"
    alpha: float | None = None  # required for fixed mode
    paired_control: bool = False
    beta: float | None = None
    eta: float = 0.0
    M: float | None = None
    alpha0: float | None = None
    update_rule: str | None = None
    family: str = "full_xyz"
    pauli: str = "Z"
    k: int | None = None
    layers: int = 1
    optimizer: OptimizerConfig | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "iterative"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.mode == "fixed" and self.alpha is None:
            raise ValueError("fixed-alpha solver needs an alpha value")
        if self.paired_control and self.mode != "iterative":
            raise ValueError("paired_control only applies to iterative solvers")


@dataclass(frozen=True)
class ExperimentPlan:
    graph: GraphSource
    c_values: tuple[int, ...] | None = None  # None -> every c in [2, n/2]
    repetitions: int = 10
    solvers: tuple[SolverSpec, ...] = (
        SolverSpec(label="iterative", paired_control=True),
    )
    seed_base: int = 0
    baseline_method: str = "sa"
    baseline_seed: int = 0
    baseline_cache: str | None = None
    record_history: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.solvers:
            raise ValueError("plan has no solvers")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.c_values is not None:
            object.__setattr__(self, "c_values", tuple(int(c) for c in self.c_values))

    def resolve_c_values(self, n: int) -> tuple[int, ...]:
        if self.c_values is None:
            return tuple(range(2, n // 2 + 1)) or (1,)
        for c in self.c_values:
            if not (1 <= c <= n // 2):
                raise ValueError(f"c={c} outside [1, n/2] for n={n}")
        return self.c_values


# --- metrics -----------------------------------------------------------------

def _record_feasible(record) -> bool:
    if isinstance(record, dict):
        return bool(record["metrics"]["feasible"])
    return bool(record.feasible)


def metric_epsilon_c(records) -> float:
    """Fraction of runs whose decoded assignment satisfies the budget."""
    records = list(records)
    if not records:
        raise ValueError("epsilon_c needs at least one record")
    return sum(_record_feasible(r) for r in records) / len(records)


# --- record building and replay ----------------------------------------------

# PceConfig fields stored at the top level of a record's config, in order
_SCHEDULE_FIELDS = ("alpha_mode", "seed", "M", "alpha0", "update_rule",
                    "max_outer_iters", "alpha_cap", "layers")
_OBJECTIVE_FIELDS = ("alpha", "c", "beta", "eta")

# Values this code always runs with. Records store them so they stay
# self-describing; a record that ran under other values is refused, not
# replayed under these.
_FIXED = {
    "encoding": {"permute_seed": None},
    "optimizer": {"method": METHOD, "x_tol": X_TOL, "f_tol": F_TOL,
                  "initial_step": INITIAL_STEP, "seed": None},
}


# Records written before the numerics tag (artifact version 0.1.0) carry none;
# that code ran the kron state preparation up to this register size and the
# permutation kernel everywhere.
_V0_1_0_KRON_MAX_QUBITS = 7


def _recorded_numerics(d: dict) -> str:
    if "numerics" in d:
        return d["numerics"]
    prepare = "kron" if d["encoding"]["m"] <= _V0_1_0_KRON_MAX_QUBITS else "sweep"
    return f"prepare={prepare};kernel=perm"


def config_to_dict(cfg: PceConfig) -> dict:
    obj = cfg.objective
    encoding = asdict(obj.encoding)
    if encoding["k_range"] is not None:
        encoding["k_range"] = list(encoding["k_range"])
    return {
        **{name: getattr(cfg, name) for name in _SCHEDULE_FIELDS},
        "ansatz": ANSATZ_LAYOUT,
        "numerics": numerics(obj.encoding.m),
        "objective": {name: getattr(obj, name) for name in _OBJECTIVE_FIELDS},
        "encoding": {**encoding, **_FIXED["encoding"]},
        # method leads the optimizer section, max_evals follows it
        "optimizer": {"method": METHOD, "max_evals": cfg.optimizer.max_evals,
                      **_FIXED["optimizer"]},
    }


def config_from_dict(d: dict, graph: WeightedGraph) -> PceConfig:
    """Rebuild a record's config; ValueError if it ran under other fixed values
    or other numerical paths than this code runs at its register size."""
    m = d["encoding"]["m"]
    recorded, running = _recorded_numerics(d), numerics(m)
    if recorded != running:
        raise ValueError(
            f"record ran numerics {recorded!r}, but this code runs {running!r} "
            f"at m={m}; it cannot be replayed"
        )
    for section, fixed in _FIXED.items():
        for key, value in fixed.items():
            recorded = d[section].get(key)
            if recorded != value:
                raise ValueError(
                    f"record has {section}.{key}={recorded!r}, but this code "
                    f"runs {section}.{key}={value!r}; it cannot be replayed"
                )
    encoding = EncodingSpec(**{k: v for k, v in d["encoding"].items()
                               if k not in _FIXED["encoding"]})
    objective = ObjectiveSpec(graph=graph, encoding=encoding,
                              **{name: d["objective"][name] for name in _OBJECTIVE_FIELDS})
    return PceConfig(
        objective=objective,
        optimizer=OptimizerConfig(max_evals=d["optimizer"]["max_evals"]),
        **{name: d[name] for name in _SCHEDULE_FIELDS},
    )


def outcome_to_dict(out: SolveOutcome, include_history: bool = True) -> dict:
    d = {
        "z": out.z.tolist(),
        "soft": out.soft.tolist(),
        "feasible": out.feasible,
        "cut": out.cut,
        "final_alpha": out.final_alpha,
        "outer_iters": out.outer_iters,
        "inner_evals": out.inner_evals,
        "theta_final": out.theta_final.tolist(),
        "loss_final": out.loss_final,
        "capped": out.capped,
        "history": None,
    }
    if include_history and out.history is not None:
        d["history"] = [
            {
                "iter": h.outer_iter,
                "alpha": h.alpha,
                "loss": h.loss,
                "binarization": h.binarization,
                "minus_count": h.minus_count,
                "evals": h.evals,
                "stalled": h.stalled,
            }
            for h in out.history
        ]
    return d


def make_record(
    cfg: PceConfig,
    outcome: SolveOutcome,
    graph_info: dict,
    label: str,
    role: str,
    pair_id: str | None,
    baseline: float,
    wall_time_s: float,
    include_history: bool = True,
) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "label": label,
        "role": role,
        "pair_id": pair_id,
        "c": cfg.objective.c,
        "graph": graph_info,
        "config": config_to_dict(cfg),
        "outcome": outcome_to_dict(outcome, include_history),
        "metrics": {
            "feasible": outcome.feasible,
            "binarization": binarization(outcome.soft),
            "baseline_cut": baseline,
            "normalized_cut": normalized_cut(outcome.cut, baseline),
        },
        "wall_time_s": wall_time_s,
    }


def replay_record(record: dict, graph: WeightedGraph | None = None) -> SolveOutcome:
    """Re-run a record's config; the outcome must match the record bit for bit."""
    if graph is None:
        graph = GraphSource.from_dict(record["graph"]).load()
    cfg = config_from_dict(record["config"], graph)
    return solve(cfg)


def read_records(path) -> list[dict]:
    """Records of a JSON-lines file; ValueError naming the line that does not parse."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not a JSON record ({exc})") from exc
    return records


# --- plan execution ----------------------------------------------------------

def _build_config(graph: WeightedGraph, spec: SolverSpec, c: int, seed: int) -> PceConfig:
    return default_config(
        graph,
        c,
        alpha_mode=spec.mode,
        seed=seed,
        alpha=spec.alpha,
        beta=spec.beta,
        eta=spec.eta,
        family=spec.family,
        pauli=spec.pauli,
        k=spec.k,
        layers=spec.layers,
        optimizer=spec.optimizer,
        M=spec.M,
        alpha0=spec.alpha0,
        update_rule=spec.update_rule,
    )


def _cell_seed(seed_base: int, c: int, rep: int) -> int:
    return seed_base + 1000 * c + rep


def _run_cell(args: tuple) -> list[dict]:
    graph, graph_info, spec, c, rep, seed_base, baseline, record_history = args
    pair_id = f"{spec.label}-c{c}-r{rep}"
    try:
        cfg = _build_config(graph, spec, c, _cell_seed(seed_base, c, rep))
        t0 = time.perf_counter()
        out = solve(cfg)
        wall = time.perf_counter() - t0
        role = "iterative" if cfg.alpha_mode == "iterative" else "single"
        records = [
            make_record(cfg, out, graph_info, spec.label, role,
                        pair_id if spec.paired_control else None,
                        baseline, wall, record_history)
        ]
        if spec.paired_control:
            t0 = time.perf_counter()
            ctrl = solve_pce_at_final_alpha(out, cfg)
            wall = time.perf_counter() - t0
            records.append(
                make_record(control_config(out, cfg), ctrl, graph_info,
                            f"{spec.label}-control", "control", pair_id,
                            baseline, wall, record_history)
            )
        return records
    except Exception as exc:  # failures are data; the plan continues
        return [
            {
                "artifact_version": ARTIFACT_VERSION,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "label": spec.label,
                "c": c,
                "rep": rep,
                "graph": graph_info,
            }
        ]


def run_plan(
    plan: ExperimentPlan,
    records_path=None,
    progress=None,
) -> tuple[list[dict], "AggregateReport"]:
    """Execute every (solver, c, repetition) cell and aggregate the records.

    Records stream to records_path (JSON lines, one record per line) as they
    complete, so partial campaigns survive a crash. progress, if given, is
    called with each record.
    """
    graph = plan.graph.load()
    graph_info = plan.graph.to_dict(graph)
    c_values = plan.resolve_c_values(graph.n)
    sa_cfg = SaConfig(seed=plan.baseline_seed)
    baselines = {
        c: baseline_cut(graph, c, method=plan.baseline_method,
                        sa_config=sa_cfg, cache_path=plan.baseline_cache)
        for c in c_values
    }

    cells = [
        (graph, graph_info, spec, c, rep, plan.seed_base, baselines[c],
         plan.record_history)
        for spec in plan.solvers
        for c in c_values
        for rep in range(plan.repetitions)
    ]

    writer = open(records_path, "w") if records_path is not None else None
    records: list[dict] = []
    try:
        if plan.workers > 1:
            with ProcessPoolExecutor(max_workers=plan.workers) as pool:
                batches = pool.map(_run_cell, cells)
                for batch in batches:
                    for rec in batch:
                        _emit_record(rec, records, writer, progress)
        else:
            for cell in cells:
                for rec in _run_cell(cell):
                    _emit_record(rec, records, writer, progress)
    finally:
        if writer is not None:
            writer.close()
    return records, aggregate(records)


def _emit_record(rec: dict, records: list, writer, progress) -> None:
    records.append(rec)
    if writer is not None:
        writer.write(json.dumps(rec) + "\n")
        writer.flush()
    if progress is not None:
        progress(rec)


# --- aggregation -------------------------------------------------------------

@dataclass
class ReportRow:
    nodes: int
    graph_hash: str
    solver: str
    runs: int
    epsilon_c: float
    mean_binarization: float
    mean_normalized_cut: float | None  # None when no run was feasible
    mean_outer_iters: float | None
    mean_final_alpha: float | None


@dataclass
class ContingencyRow:
    nodes: int
    graph_hash: str
    solver: str
    pairs: int
    both_pct: float
    iter_only_pct: float
    control_only_pct: float
    neither_pct: float


@dataclass
class PairedCutRow:
    nodes: int
    graph_hash: str
    solver: str
    matched_pairs: int
    iterative_cut: float | None
    control_cut: float | None
    delta_pct: float | None


@dataclass
class AggregateReport:
    rows: list[ReportRow] = field(default_factory=list)
    contingency: list[ContingencyRow] = field(default_factory=list)
    paired_cuts: list[PairedCutRow] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "contingency": [asdict(r) for r in self.contingency],
            "paired_cuts": [asdict(r) for r in self.paired_cuts],
            "failures": self.failures,
        }


def _mean(values) -> float | None:
    values = list(values)
    return float(np.mean(values)) if values else None


def aggregate(records: list[dict]) -> AggregateReport:
    """Deterministic reduction of run records into the report tables.

    Cut-size aggregates use feasible runs only; a group with no feasible run
    reports its cut as absent.
    """
    report = AggregateReport()
    good = [r for r in records if "error" not in r]
    report.failures = [r for r in records if "error" in r]

    groups: dict[tuple, list[dict]] = {}
    for rec in good:
        key = (rec["graph"].get("nodes"), rec["graph"].get("hash", ""), rec["label"])
        groups.setdefault(key, []).append(rec)

    for (nodes, ghash, label), recs in sorted(groups.items(), key=lambda kv: kv[0][:2] + (kv[0][2],)):
        feasible = [r for r in recs if r["metrics"]["feasible"]]
        iterative = [r for r in recs if r["config"]["alpha_mode"] == "iterative"]
        report.rows.append(
            ReportRow(
                nodes=nodes,
                graph_hash=ghash,
                solver=label,
                runs=len(recs),
                epsilon_c=metric_epsilon_c(recs),
                mean_binarization=_mean(r["metrics"]["binarization"] for r in recs),
                mean_normalized_cut=_mean(
                    r["metrics"]["normalized_cut"] for r in feasible
                ),
                mean_outer_iters=_mean(
                    r["outcome"]["outer_iters"] for r in iterative
                ),
                mean_final_alpha=_mean(
                    r["outcome"]["final_alpha"] for r in iterative
                ),
            )
        )

    # paired contingency per (graph, iterative solver label)
    pairs: dict[tuple, dict[str, dict]] = {}
    for rec in good:
        if rec.get("pair_id") is None:
            continue
        base_label = rec["label"].removesuffix("-control")
        key = (rec["graph"].get("nodes"), rec["graph"].get("hash", ""),
               base_label, rec["pair_id"])
        pairs.setdefault(key, {})[rec["role"]] = rec

    by_solver: dict[tuple, list[dict[str, dict]]] = {}
    for (nodes, ghash, label, _pid), sides in sorted(pairs.items()):
        by_solver.setdefault((nodes, ghash, label), []).append(sides)

    for (nodes, ghash, label), pair_list in by_solver.items():
        complete = [p for p in pair_list if "iterative" in p and "control" in p]
        if not complete:
            continue
        n_pairs = len(complete)
        flags = [
            (p["iterative"]["metrics"]["feasible"], p["control"]["metrics"]["feasible"])
            for p in complete
        ]
        count = lambda it, ct: sum(1 for a, b in flags if a == it and b == ct)
        report.contingency.append(
            ContingencyRow(
                nodes=nodes,
                graph_hash=ghash,
                solver=label,
                pairs=n_pairs,
                both_pct=100.0 * count(True, True) / n_pairs,
                iter_only_pct=100.0 * count(True, False) / n_pairs,
                control_only_pct=100.0 * count(False, True) / n_pairs,
                neither_pct=100.0 * count(False, False) / n_pairs,
            )
        )
        matched = [
            p for p in complete
            if p["iterative"]["metrics"]["feasible"] and p["control"]["metrics"]["feasible"]
        ]
        it_cut = _mean(p["iterative"]["metrics"]["normalized_cut"] for p in matched)
        ct_cut = _mean(p["control"]["metrics"]["normalized_cut"] for p in matched)
        delta = None
        if it_cut is not None and ct_cut not in (None, 0.0):
            delta = 100.0 * (it_cut - ct_cut) / ct_cut
        report.paired_cuts.append(
            PairedCutRow(
                nodes=nodes,
                graph_hash=ghash,
                solver=label,
                matched_pairs=len(matched),
                iterative_cut=it_cut,
                control_cut=ct_cut,
                delta_pct=delta,
            )
        )
    return report


# --- report emission ----------------------------------------------------------

def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def emit_report(report: AggregateReport, fmt: str = "markdown", out_dir=".") -> list[Path]:
    """Write the report as json, csv, or markdown tables; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt == "json":
        path = out_dir / "report.json"
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        written.append(path)
    elif fmt == "csv":
        for name, rows in (
            ("report_rows.csv", report.rows),
            ("report_contingency.csv", report.contingency),
            ("report_paired.csv", report.paired_cuts),
        ):
            path = out_dir / name
            with open(path, "w", newline="") as fh:
                if rows:
                    writer = csv.DictWriter(fh, fieldnames=list(asdict(rows[0])))
                    writer.writeheader()
                    for row in rows:
                        writer.writerow(asdict(row))
            written.append(path)
    elif fmt == "markdown":
        path = out_dir / "report.md"
        path.write_text(render_markdown(report))
        written.append(path)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return written


def render_markdown(report: AggregateReport) -> str:
    lines = ["# Benchmark report", ""]
    lines += ["## Aggregate metrics", ""]
    lines += [
        "| Nodes | Solver | eps_c | Binarization | CutSize | Outer iters |",
        "|---:|:---|---:|---:|---:|---:|",
    ]
    for r in report.rows:
        lines.append(
            f"| {r.nodes} | {r.solver} | {_fmt(r.epsilon_c)} "
            f"| {_fmt(r.mean_binarization)} | {_fmt(r.mean_normalized_cut)} "
            f"| {_fmt(r.mean_outer_iters, 1)} |"
        )
    if report.contingency:
        lines += ["", "## Constraint satisfaction by pair", ""]
        lines += [
            "| Nodes | Iterative | Control | Runs (%) |",
            "|---:|:---:|:---:|---:|",
        ]
        for r in report.contingency:
            for mark_it, mark_ct, pct in (
                ("Y", "Y", r.both_pct),
                ("Y", "x", r.iter_only_pct),
                ("x", "Y", r.control_only_pct),
                ("x", "x", r.neither_pct),
            ):
                lines.append(f"| {r.nodes} | {mark_it} | {mark_ct} | {pct:.0f} % |")
    if report.paired_cuts:
        lines += ["", "## Cut size over matched feasible pairs", ""]
        lines += [
            "| Nodes | Iterative | Control | Delta (%) |",
            "|---:|---:|---:|---:|",
        ]
        for r in report.paired_cuts:
            delta = "-" if r.delta_pct is None else f"{r.delta_pct:+.2f} %"
            lines.append(
                f"| {r.nodes} | {_fmt(r.iterative_cut, 4)} "
                f"| {_fmt(r.control_cut, 4)} | {delta} |"
            )
    if report.failures:
        lines += ["", f"## Failures: {len(report.failures)}", ""]
        for rec in report.failures:
            lines.append(f"- c={rec.get('c')} rep={rec.get('rep')}: {rec.get('error')}")
    return "\n".join(lines) + "\n"


# --- tidy per-run / per-iteration exports --------------------------------------

def write_runs_csv(records: list[dict], path) -> None:
    """One observation per row, for plotting sweeps without reparsing JSON."""
    fields = [
        "nodes", "graph_hash", "label", "role", "c", "seed", "alpha_mode",
        "alpha", "final_alpha", "feasible", "binarization", "cut",
        "baseline_cut", "normalized_cut", "outer_iters", "inner_evals",
        "capped", "wall_time_s",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            if "error" in rec:
                continue
            writer.writerow(
                {
                    "nodes": rec["graph"].get("nodes"),
                    "graph_hash": rec["graph"].get("hash"),
                    "label": rec["label"],
                    "role": rec["role"],
                    "c": rec["c"],
                    "seed": rec["config"]["seed"],
                    "alpha_mode": rec["config"]["alpha_mode"],
                    "alpha": rec["config"]["objective"]["alpha"],
                    "final_alpha": rec["outcome"]["final_alpha"],
                    "feasible": rec["metrics"]["feasible"],
                    "binarization": rec["metrics"]["binarization"],
                    "cut": rec["outcome"]["cut"],
                    "baseline_cut": rec["metrics"]["baseline_cut"],
                    "normalized_cut": rec["metrics"]["normalized_cut"],
                    "outer_iters": rec["outcome"]["outer_iters"],
                    "inner_evals": rec["outcome"]["inner_evals"],
                    "capped": rec["outcome"]["capped"],
                    "wall_time_s": rec["wall_time_s"],
                }
            )


def write_history_csv(records: list[dict], path) -> None:
    """Flatten per-iteration histories; one (run, iteration) pair per row."""
    fields = ["label", "c", "seed"] + list(HISTORY_FIELDS)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            if "error" in rec or not rec["outcome"].get("history"):
                continue
            for h in rec["outcome"]["history"]:
                writer.writerow(
                    {
                        "label": rec["label"],
                        "c": rec["c"],
                        "seed": rec["config"]["seed"],
                        **{k: h[k] for k in HISTORY_FIELDS},
                    }
                )
