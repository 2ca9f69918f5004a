"""Experiment orchestration: plans, run records, metrics, and reports.

A plan fixes one graph, a set of budget values c, solver variants, and a
repetition count; run_plan executes every cell, all of them in lockstep
(solver.run_lockstep), normalizes cut sizes against a classical baseline
computed once per (graph, c), and streams one JSON record per run.
Records carry everything needed to replay the run bit-identically, so
reports are always rebuilt from records rather than from in-memory state.

Iterative solvers may request a paired control: after each iterative run, a
fresh fixed-alpha run at the alpha the iterative schedule reached, seeded
at seed + CONTROL_SEED_OFFSET. The aggregate report tabulates the four
feasibility combinations of each pair.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .encoding import EncodingSpec
from .graph import WeightedGraph, check_budget, generate_complete_graph, graph_hash, read_graph
from .objective import ObjectiveSpec, binarization
from .optimize import F_TOL, INITIAL_STEP, METHOD, X_TOL, OptimizerConfig
from .oracles import SaConfig, baseline_cut, normalized_cut, positive_baseline
from .quantum import ANSATZ_LAYOUT, numerics
from .solver import (
    PceConfig,
    SolveOutcome,
    SolverSpec,
    control_config,
    run_lockstep,
    solve,
    solve_pce_at_final_alpha,  # not called here; the benchmark traces this name
    solve_steps,
)

__all__ = [
    "ARTIFACT_VERSION",
    "GraphSource",
    "SolverSpec",
    "ExperimentPlan",
    "AggregateReport",
    "metric_epsilon_c",
    "RUN_COLUMNS",
    "run_row",
    "run_plan",
    "normalizing_baseline",
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

    def to_dict(self, graph: WeightedGraph) -> dict:
        return {**{k: v for k, v in asdict(self).items() if v is not None},
                "hash": graph_hash(graph), "nodes": graph.n}

    @staticmethod
    def from_dict(d: dict) -> "GraphSource":
        known = {f for f in GraphSource.__dataclass_fields__}
        return GraphSource(**{k: v for k, v in d.items() if k in known})


@dataclass(frozen=True)
class ExperimentPlan:
    graph: GraphSource
    c_values: tuple[int, ...] | None = None  # None -> every c in [2, n/2]
    repetitions: int = 10
    solvers: tuple[SolverSpec, ...] = ()
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
        # a paired solver's controls are labelled <label>-control; the report
        # groups runs by label, so two solvers must never share one
        labels = [s.label for s in self.solvers]
        labels += [f"{s.label}-control" for s in self.solvers if s.paired_control]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"two solvers of the plan label their runs {label!r}")
        if self.c_values is not None:
            object.__setattr__(self, "c_values", tuple(int(c) for c in self.c_values))

    def resolve_c_values(self, n: int) -> tuple[int, ...]:
        if self.c_values is None:
            return tuple(range(2, n // 2 + 1)) or (1,)
        for c in self.c_values:
            check_budget(n, c)
        return self.c_values


# --- metrics -----------------------------------------------------------------

def metric_epsilon_c(records) -> float:
    """Fraction of run records whose decoded assignment satisfies the budget."""
    records = list(records)
    if not records:
        raise ValueError("epsilon_c needs at least one record")
    return sum(bool(r["metrics"]["feasible"]) for r in records) / len(records)


# --- record building and replay ----------------------------------------------

# a record's config keys of the schedule and of its objective, in field order
_SCHEDULE_FIELDS = tuple(f.name for f in fields(PceConfig)
                         if f.name not in ("objective", "optimizer"))
_OBJECTIVE_FIELDS = tuple(f.name for f in fields(ObjectiveSpec)
                          if f.name not in ("graph", "encoding"))

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
    """Rebuild a record's config; ValueError if it ran another ansatz, other
    fixed values or other numerical paths than this code runs at its register size."""
    m = d["encoding"]["m"]
    recorded, running = _recorded_numerics(d), numerics(m)
    if recorded != running:
        raise ValueError(
            f"record ran numerics {recorded!r}, but this code runs {running!r} "
            f"at m={m}; it cannot be replayed"
        )
    fixed = [("ansatz", d.get("ansatz"), ANSATZ_LAYOUT)] + [
        (f"{section}.{key}", d[section].get(key), value)
        for section, values in _FIXED.items() for key, value in values.items()]
    for name, recorded, value in fixed:
        if recorded != value:
            raise ValueError(f"record has {name}={recorded!r}, but this code runs "
                             f"{name}={value!r}; it cannot be replayed")
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
    d = asdict(out, dict_factory=lambda items: {
        k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items})
    if not include_history:
        d["history"] = None
    return d


def make_record(
    cfg: PceConfig,
    outcome: SolveOutcome,
    graph_info: dict,
    label: str,
    pair_id: str | None,
    baseline: float,
    wall_time_s: float,
    include_history: bool = True,
) -> dict:
    """A run's record; a fixed run with a pair_id is that pair's control."""
    role = ("iterative" if cfg.alpha_mode == "iterative"
            else "single" if pair_id is None else "control")
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


def replay_record(record: dict) -> SolveOutcome:
    """Re-run a record's config; the outcome must match the record bit for bit.
    ValueError if the record's graph source now loads another graph."""
    graph = GraphSource.from_dict(record["graph"]).load()
    if graph_hash(graph) != record["graph"]["hash"]:
        raise ValueError(f"record ran on graph {record['graph']['hash']}, but its source "
                         f"now loads graph {graph_hash(graph)}; it cannot be replayed")
    return solve(config_from_dict(record["config"], graph))


# every key of make_record's records; _error_record's need only "error"
_RUN_RECORD_KEYS = ("artifact_version", "label", "role", "pair_id", "c", "graph",
                    "config", "outcome", "metrics", "wall_time_s")
# the JSON values that stand for each Python type, and their name in an
# error; a bool is no int or number here
JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
              str: ((str,), "a string"), bool: ((bool,), "true or false")}


def json_fits(value, kind: type) -> bool:
    """Whether a JSON value is of kind, a key of JSON_KINDS."""
    return isinstance(value, JSON_KINDS[kind][0]) and isinstance(value, bool) == (kind is bool)


# runs.csv's columns, the record keys they hold and the kind of value the
# report reads there: with pair_id and outcome.history, every key of a run
# record that the report reads
RUN_COLUMNS = (
    ("nodes", "graph.nodes", int), ("graph_hash", "graph.hash", str),
    ("label", "label", str), ("role", "role", str), ("c", "c", int),
    ("seed", "config.seed", int), ("alpha_mode", "config.alpha_mode", str),
    ("alpha", "config.objective.alpha", float), ("final_alpha", "outcome.final_alpha", float),
    ("feasible", "metrics.feasible", bool), ("binarization", "metrics.binarization", float),
    ("cut", "outcome.cut", float), ("baseline_cut", "metrics.baseline_cut", float),
    ("normalized_cut", "metrics.normalized_cut", float),
    ("outer_iters", "outcome.outer_iters", int), ("inner_evals", "outcome.inner_evals", int),
    ("capped", "outcome.capped", bool), ("wall_time_s", "wall_time_s", float),
)


def run_row(record: dict) -> dict:
    """A run record's runs.csv row; ValueError naming the first key of
    RUN_COLUMNS that the record lacks, whose parent is not an object, or
    whose value is not of its column's kind."""
    row = {}
    for column, key, kind in RUN_COLUMNS:
        node = record
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"no key {key!r}")
            node = node[part]
        if not json_fits(node, kind):
            raise ValueError(f"key {key!r} holds {node!r}, not {JSON_KINDS[kind][1]}")
        row[column] = node
    return row


def read_records(path) -> list[dict]:
    """Records of a JSON-lines file; ValueError naming a line that is neither
    a run record nor an error record."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"a JSON {type(record).__name__}, not an object")
                if "error" not in record:
                    _check_run_record(record)
            except ValueError as exc:  # JSONDecodeError is one
                raise ValueError(f"{path}, line {number}: not a JSON record ({exc})") from exc
            records.append(record)
    return records


def _check_run_record(record: dict) -> None:
    """ValueError naming the first key the report reads that record lacks."""
    missing = [key for key in _RUN_RECORD_KEYS if key not in record]
    if missing:
        raise ValueError(f"no key {missing[0]!r}")
    run_row(record)
    if not (record["pair_id"] is None or isinstance(record["pair_id"], str)):
        raise ValueError(f"key 'pair_id' holds {record['pair_id']!r}, not a string or null")
    history = record["outcome"].get("history") or []
    if not isinstance(history, list):
        raise ValueError("no key 'outcome.history'")
    for i, entry in enumerate(history):
        for name in HISTORY_FIELDS:
            if not isinstance(entry, dict) or name not in entry:
                raise ValueError(f"no key 'outcome.history[{i}].{name}'")


# --- plan execution ----------------------------------------------------------

def normalizing_baseline(graph: WeightedGraph, c: int, method: str, seed: int, cache=None) -> float:
    """The cut that normalizes runs' cuts: baseline_cut, refused unless finite and positive."""
    cut = baseline_cut(graph, c, method=method, sa_config=SaConfig(seed=seed), cache_path=cache)
    return positive_baseline(cut, c)


def _cell_seed(seed_base: int, c: int, rep: int) -> int:
    return seed_base + 1000 * c + rep


def _cell_steps(cell: tuple, clock):
    """A cell's runs as one step generator for run_lockstep: the solver's run,
    then its paired control. Returns the cell's records; clock() reads the
    cell's share of the driver's wall time so far."""
    cfg, graph_info, spec, c, rep, baseline, record_history = cell
    pair_id = f"{spec.label}-c{c}-r{rep}"
    out = yield from solve_steps(cfg)
    wall = clock()
    records = [
        make_record(cfg, out, graph_info, spec.label,
                    pair_id if spec.paired_control else None,
                    baseline, wall, record_history)
    ]
    if spec.paired_control:
        ctrl_cfg = control_config(out, cfg)
        ctrl = yield from solve_steps(ctrl_cfg)
        records.append(
            make_record(ctrl_cfg, ctrl, graph_info, f"{spec.label}-control", pair_id,
                        baseline, clock() - wall, record_history)
        )
    return records


def _error_record(cell: tuple, exc: Exception) -> dict:
    """A failed cell's record; failures are data and the plan goes on."""
    _, graph_info, spec, c, rep, *_ = cell
    return {
        "artifact_version": ARTIFACT_VERSION,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_exception(exc)),
        "label": spec.label,
        "c": c,
        "rep": rep,
        "graph": graph_info,
    }


def _run_cells(cells: list[tuple]):
    """Run cells in lockstep; yields (position, records) as each cell ends."""
    spent = [0.0] * len(cells)
    jobs = [_cell_steps(cell, lambda i=i: spent[i]) for i, cell in enumerate(cells)]
    for i, result in run_lockstep(jobs, spent):
        yield i, [_error_record(cells[i], result)] if isinstance(result, Exception) else result


def _run_share(cells: list[tuple]) -> list[tuple[int, list[dict]]]:
    """One worker's cells, run in lockstep; (position, records) as each cell ended."""
    return list(_run_cells(cells))


def run_plan(
    plan: ExperimentPlan,
    records_path=None,
    progress=None,
) -> tuple[list[dict], "AggregateReport"]:
    """Execute every (solver, c, repetition) cell and aggregate the records.

    Every cell's config is built before the first baseline, so a bad solver
    setting raises its ValueError before any work. The cells run in lockstep (solver.run_lockstep), each worker process
    driving a round-robin share of them. Records are released in cell order,
    each cell's run before its control, once the cell and every earlier cell
    have ended; with workers > 1, only once the cell's worker has ended its
    whole share. They stream to records_path (JSON lines), so the released
    prefix of a campaign survives a crash, and progress, if given, is called
    with each record. A record's wall_time_s is its run's share of the
    lockstep steps it took part in, so a plan's records add up to the time
    its cells ran.
    """
    graph = plan.graph.load()
    graph_info = plan.graph.to_dict(graph)
    c_values = plan.resolve_c_values(graph.n)
    configs = [(spec, c, rep, spec.config(graph, c, _cell_seed(plan.seed_base, c, rep)))
               for spec in plan.solvers
               for c in c_values
               for rep in range(plan.repetitions)]
    baselines = {c: normalizing_baseline(graph, c, plan.baseline_method, plan.baseline_seed,
                                         plan.baseline_cache)
                 for c in c_values}

    cells = [(cfg, graph_info, spec, c, rep, baselines[c], plan.record_history)
             for spec, c, rep, cfg in configs]

    writer = open(records_path, "w") if records_path is not None else None
    records: list[dict] = []
    ended: dict[int, list[dict]] = {}  # records of cells waiting on an earlier cell
    next_cell = 0

    def release(position: int, cell_records: list[dict]) -> None:
        nonlocal next_cell
        ended[position] = cell_records
        while next_cell in ended:
            for rec in ended.pop(next_cell):
                _emit_record(rec, records, writer, progress)
            next_cell += 1

    try:
        if plan.workers > 1:
            # imported here, as it loads multiprocessing and socket (~20 ms a process)
            from concurrent.futures import ProcessPoolExecutor, as_completed

            shares = [list(range(k, len(cells), plan.workers)) for k in range(plan.workers)]
            with ProcessPoolExecutor(max_workers=plan.workers) as pool:
                futures = {pool.submit(_run_share, [cells[j] for j in share]): share
                           for share in shares if share}
                for future in as_completed(futures):
                    for i, cell_records in future.result():
                        release(futures[future][i], cell_records)
        else:
            for j, cell_records in _run_cells(cells):
                release(j, cell_records)
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


def _mean(values) -> float | None:
    values = list(values)
    return float(np.mean(values)) if values else None


def aggregate(records: list[dict]) -> AggregateReport:
    """Deterministic reduction of run records into the report tables.

    Cut-size aggregates use feasible runs only; a group with no feasible run
    reports its cut as absent.
    """
    report = AggregateReport(failures=[r for r in records if "error" in r])
    groups: dict[tuple, list[tuple[dict, dict]]] = {}
    pairs: dict[tuple, dict[str, dict[str, dict]]] = {}  # by (graph, iterative label)
    for rec in records:
        if "error" in rec:
            continue
        row = run_row(rec)
        graph_key = (row["nodes"], row["graph_hash"])
        groups.setdefault(graph_key + (row["label"],), []).append((rec, row))
        if rec.get("pair_id") is not None:
            # a control is labelled with its solver's label + "-control"
            label = row["label"].removesuffix("-control") if row["role"] == "control" else row["label"]
            pairs.setdefault(graph_key + (label,), {}).setdefault(rec["pair_id"], {})[row["role"]] = row

    for (nodes, ghash, label), members in sorted(groups.items()):
        recs, rows = zip(*members)
        feasible = [r for r in rows if r["feasible"]]
        iterative = [r for r in rows if r["alpha_mode"] == "iterative"]
        report.rows.append(ReportRow(
            nodes, ghash, label, runs=len(rows), epsilon_c=metric_epsilon_c(recs),
            mean_binarization=_mean(r["binarization"] for r in rows),
            mean_normalized_cut=_mean(r["normalized_cut"] for r in feasible),
            mean_outer_iters=_mean(r["outer_iters"] for r in iterative),
            mean_final_alpha=_mean(r["final_alpha"] for r in iterative),
        ))

    for (nodes, ghash, label), by_pair_id in sorted(pairs.items()):
        complete = [sides for _, sides in sorted(by_pair_id.items())
                    if "iterative" in sides and "control" in sides]
        if not complete:
            continue
        flags = [(p["iterative"]["feasible"], p["control"]["feasible"]) for p in complete]
        # both feasible, iterative only, control only, neither
        pcts = [100.0 * flags.count(combo) / len(complete)
                for combo in ((True, True), (True, False), (False, True), (False, False))]
        report.contingency.append(ContingencyRow(nodes, ghash, label, len(complete), *pcts))
        matched = [p for p in complete if p["iterative"]["feasible"] and p["control"]["feasible"]]
        it_cut = _mean(p["iterative"]["normalized_cut"] for p in matched)
        ct_cut = _mean(p["control"]["normalized_cut"] for p in matched)
        delta = None
        if it_cut is not None and ct_cut not in (None, 0.0):
            delta = 100.0 * (it_cut - ct_cut) / ct_cut
        report.paired_cuts.append(
            PairedCutRow(nodes, ghash, label, len(matched), it_cut, ct_cut, delta))
    return report


# --- report emission ----------------------------------------------------------

def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def emit_report(records: list[dict], report: AggregateReport, out_dir=".") -> None:
    """Write the report as markdown, json and csv tables, plus the tidy
    runs.csv and history.csv of its records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.md").write_text(render_markdown(report))
    (out_dir / "report.json").write_text(json.dumps(asdict(report), indent=2) + "\n")
    for name, rows in (
        ("report_rows.csv", report.rows),
        ("report_contingency.csv", report.contingency),
        ("report_paired.csv", report.paired_cuts),
    ):
        with open(out_dir / name, "w", newline="") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(asdict(rows[0])))
                writer.writeheader()
                for row in rows:
                    writer.writerow(asdict(row))
    write_runs_csv(records, out_dir / "runs.csv")
    write_history_csv(records, out_dir / "history.csv")


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
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[column for column, _, _ in RUN_COLUMNS])
        writer.writeheader()
        writer.writerows(run_row(rec) for rec in records if "error" not in rec)


def write_history_csv(records: list[dict], path,
                      run_fields: tuple[str, ...] = ("label", "c", "seed")) -> None:
    """Flatten per-iteration histories; one (run, iteration) pair per row,
    led by the runs.csv columns run_fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=run_fields + HISTORY_FIELDS)
        writer.writeheader()
        for rec in records:
            if "error" in rec or not rec["outcome"].get("history"):
                continue
            row = run_row(rec)
            for h in rec["outcome"]["history"]:
                writer.writerow({**{k: row[k] for k in run_fields},
                                 **{k: h[k] for k in HISTORY_FIELDS}})
