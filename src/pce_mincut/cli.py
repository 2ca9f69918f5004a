"""Command-line entry point.

Subcommands:
    generate   write a graph instance to a file
    baseline   classical baseline cut for a (graph, c) pair
    solve      one solver run, printed as a JSON run record
    bench      run an experiment plan, stream JSON-line records, report
    report     rebuild report tables / tidy CSVs from a records file

Every subcommand accepts --config FILE, a JSON object whose keys override
the flags of the same name; a key that names no flag of the subcommand, or
a value that is not the JSON type of its flag, is an error. `bench` also
takes the config-only key `solvers`, a list of SolverSpec keyword objects
that replaces --solver/--alphas/--paired, so a campaign such as an eta
sweep is one plan file (see plans/).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from .graph import generate_complete_graph, read_graph, write_graph
from .harness import (
    HISTORY_FIELDS,
    ExperimentPlan,
    GraphSource,
    SolverSpec,
    aggregate,
    emit_report,
    make_record,
    read_records,
    render_markdown,
    run_plan,
    write_history_csv,
    write_runs_csv,
)
from .optimize import OptimizerConfig
from .oracles import SaConfig, baseline_cut
from .solver import default_config, solve


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", type=str, default=None,
        help="JSON file whose keys override command-line flags",
    )


# the JSON values that stand for each flag type, and their name in an error
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number")}
_JSON_STRING = ((str,), "a string")


def _fits_one(action: argparse.Action, value) -> bool:
    if action.choices is not None:
        return value in action.choices
    kinds = _JSON_KINDS.get(action.type, _JSON_STRING)[0]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _config_mismatch(action: argparse.Action, value) -> str | None:
    """What a config value for this flag must be, or None when it is that."""
    if action.nargs == 0:
        fits, want = isinstance(value, bool), "true or false"
    else:
        one = (f"one of {sorted(action.choices)}" if action.choices is not None
               else _JSON_KINDS.get(action.type, _JSON_STRING)[1])
        if action.nargs in ("*", "+"):
            fits = isinstance(value, list) and all(_fits_one(action, v) for v in value)
            want = f"a list whose items are each {one}"
        else:
            fits = _fits_one(action, value) or (value is None and action.default is None)
            want = one if action.default is not None else f"{one} or null"
    return None if fits else want


def _subcommand_flags(command: str) -> dict[str, argparse.Action]:
    """The flag definitions of a subcommand, by destination name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a for a in sub.choices[command]._actions}


def _check_solvers(path, entries) -> None:
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SystemExit(f"{path}: 'solvers' must be a list of objects, got {entries!r}")
    fields = {f.name for f in dataclasses.fields(SolverSpec)}
    for i, entry in enumerate(entries):
        for key in entry:
            if key not in fields:
                raise SystemExit(f"{path}: solvers[{i}] has key {key!r}, which is no "
                                 f"solver setting (one of {sorted(fields)})")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Override flags with the keys of the --config file.

    A value must already be the JSON value the flag's type and choices
    accept (4 or 4.0 for a number, never "4"). It is kept as JSON gives it,
    so a plan file's `4` reaches the run records as `4`, not `4.0`.
    """
    if getattr(args, "config", None):
        overrides = json.loads(Path(args.config).read_text())
        flags = _subcommand_flags(args.command)
        # every flag of the subcommand has a default in args, and so has the
        # config-only key `solvers` of bench
        known = set(vars(args)) - {"func", "command", "config"}
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in known:
                raise SystemExit(f"{args.config}: {key!r} is not a setting of {args.command}")
            if name == "solvers":
                _check_solvers(args.config, value)
            elif (want := _config_mismatch(flags[name], value)) is not None:
                raise SystemExit(f"{args.config}: {key!r} must be {want}, got {value!r}")
            setattr(args, name, value)
    return args


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """Solver flags shared by `solve` and `bench`; see _solver_kwargs."""
    parser.add_argument("--alpha0", type=float, default=None, help="starting sharpness (iterative)")
    parser.add_argument("--M", type=float, default=None, help="binarization threshold")
    parser.add_argument("--beta", type=float, default=None, help="penalty strength (default: degree heuristic)")
    parser.add_argument("--eta", type=float, default=0.0, help="regularization strength")
    parser.add_argument("--update-rule", choices=["arctanh_ratio", "large_scale"], default=None)
    parser.add_argument("--family", choices=["full_xyz", "single_pauli", "single_pauli_mixed"],
                        default="full_xyz")
    parser.add_argument("--pauli", choices=["X", "Y", "Z"], default="Z")
    parser.add_argument("--k", type=int, default=None, help="Pauli-string order (default by size)")
    parser.add_argument("--layers", type=int, default=1)
    parser.add_argument("--max-evals", type=int, default=None, help="optimizer evaluation budget")


def _solver_kwargs(args) -> dict:
    """Keywords of the shared solver flags, as default_config and SolverSpec take them."""
    return dict(
        alpha0=args.alpha0, M=args.M, beta=args.beta, eta=args.eta,
        update_rule=args.update_rule, family=args.family, pauli=args.pauli,
        k=args.k, layers=args.layers,
        optimizer=None if args.max_evals is None else OptimizerConfig(max_evals=args.max_evals),
    )


def cmd_generate(args) -> int:
    g = generate_complete_graph(
        args.n, weights=args.weights, seed=args.seed,
        low=args.low, high=args.high, drop_prob=args.drop_prob,
    )
    write_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n}, edges={g.edge_count}")
    return 0


def cmd_baseline(args) -> int:
    g = read_graph(args.graph)
    value = baseline_cut(
        g, args.c, method=args.method,
        sa_config=SaConfig(seed=args.seed), cache_path=args.cache,
    )
    print(json.dumps({"graph": args.graph, "c": args.c, "method": args.method,
                      "cut": value}))
    return 0


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    cfg = default_config(
        g, args.c,
        alpha_mode=args.alpha_mode,
        seed=args.seed,
        alpha=args.alpha,
        max_outer_iters=args.max_outer_iters,
        alpha_cap=args.alpha_cap,
        **_solver_kwargs(args),
    )
    t0 = time.perf_counter()
    outcome = solve(cfg)
    wall = time.perf_counter() - t0
    baseline = baseline_cut(g, args.c, method=args.baseline_method,
                            sa_config=SaConfig(seed=args.baseline_seed),
                            cache_path=args.cache)
    source = GraphSource(kind="file", path=str(args.graph))
    record = make_record(cfg, outcome, source.to_dict(g), label="cli-solve",
                         role="iterative" if args.alpha_mode == "iterative" else "single",
                         pair_id=None, baseline=baseline, wall_time_s=wall)
    print(json.dumps(record, indent=2))
    if args.history and outcome.history is not None:
        _write_single_history(record["outcome"]["history"], args.history)
        print(f"history written to {args.history}", file=sys.stderr)
    if args.records:
        with open(args.records, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


def _write_single_history(history: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(history)


def _graph_source_from_args(args) -> GraphSource:
    if args.graph:
        return GraphSource(kind="file", path=args.graph)
    if args.n is None:
        raise SystemExit("bench needs --graph FILE or --n N")
    return GraphSource(kind="generate", n=args.n, weights=args.weights,
                       seed=args.graph_seed, low=args.low, high=args.high,
                       drop_prob=args.drop_prob)


def _plan_from_args(args) -> ExperimentPlan:
    common = _solver_kwargs(args)
    if args.solvers is not None:
        if args.alphas or args.paired:
            raise SystemExit("bench: `solvers` replaces --alphas and --paired; give one or the other")
        solvers = [SolverSpec(**{**common, **entry}) for entry in args.solvers]
    else:
        solvers = []
        if args.solver in ("iterative", "both"):
            solvers.append(SolverSpec(label="iterative", mode="iterative",
                                      paired_control=args.paired, **common))
        if args.solver in ("fixed", "both"):
            for alpha in args.alphas or [100.0]:
                solvers.append(SolverSpec(label=f"fixed-a{alpha:g}", mode="fixed",
                                          alpha=alpha, **common))
    return ExperimentPlan(
        graph=_graph_source_from_args(args),
        c_values=tuple(args.c_values) if args.c_values else None,
        repetitions=args.reps,
        solvers=tuple(solvers),
        seed_base=args.seed_base,
        baseline_method=args.baseline_method,
        baseline_seed=args.baseline_seed,
        baseline_cache=args.cache,
        record_history=not args.no_history,
        workers=args.workers,
    )


def _write_report(records: list[dict], report, out_dir, formats) -> None:
    """The report tables in each format, plus the tidy runs.csv and history.csv."""
    for fmt in formats:
        emit_report(report, fmt, out_dir)
    write_runs_csv(records, Path(out_dir) / "runs.csv")
    write_history_csv(records, Path(out_dir) / "history.csv")


def cmd_bench(args) -> int:
    try:
        plan = _plan_from_args(args)
    except ValueError as exc:  # a plan or solver value out of range
        raise SystemExit(f"bench: {exc}") from exc
    done = {"count": 0}

    def tick(rec):
        done["count"] += 1
        if not args.quiet:
            status = rec.get("error") or (
                f"feasible={rec['metrics']['feasible']} "
                f"cut={rec['metrics']['normalized_cut']:.3f}"
            )
            print(f"[{done['count']}] {rec['label']} c={rec.get('c')}: {status}",
                  file=sys.stderr)

    records, report = run_plan(plan, records_path=args.records, progress=tick)
    if args.report_dir:
        _write_report(records, report, args.report_dir, ("markdown", "json", "csv"))
    if not args.quiet:
        print(render_markdown(report))
    return 1 if report.failures else 0


def cmd_report(args) -> int:
    records = read_records(args.records)
    report = aggregate(records)
    _write_report(records, report, args.out, args.formats)
    print(render_markdown(report))
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pce-mincut",
        description="Budget-constrained minimum cuts via Pauli-correlation encoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", choices=["unit", "uniform"], default="unit")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("baseline", help="classical baseline cut")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--method", choices=["sa", "exhaustive", "auto"], default="sa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", type=str, default=None)
    _add_config_flag(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("solve", help="single run, prints a JSON run record")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--c", type=int, required=True, help="budget: nodes on the selected side")
    p.add_argument("--alpha-mode", choices=["fixed", "iterative"], default="iterative")
    p.add_argument("--alpha", type=float, default=None, help="sharpness for fixed mode")
    p.add_argument("--max-outer-iters", type=int, default=50)
    p.add_argument("--alpha-cap", type=float, default=1e16)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    p.add_argument("--baseline-method", choices=["sa", "exhaustive", "auto"], default="sa")
    p.add_argument("--baseline-seed", type=int, default=0)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--history", type=str, default=None, help="write per-iteration CSV here")
    p.add_argument("--records", type=str, default=None, help="append the record to this JSONL file")
    _add_config_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment plan")
    p.add_argument("--graph", type=str, default=None, help="graph file (or use --n)")
    p.add_argument("--n", type=int, default=None, help="generate a complete graph of this size")
    p.add_argument("--weights", choices=["unit", "uniform"], default="unit")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--graph-seed", type=int, default=0)
    p.add_argument("--c-values", type=int, nargs="*", default=None,
                   help="budget values (default: every c in [2, n/2])")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--solver", choices=["iterative", "fixed", "both"], default="iterative")
    p.add_argument("--alphas", type=float, nargs="*", default=None,
                   help="alpha grid for fixed-mode solvers")
    p.add_argument("--paired", action="store_true",
                   help="pair each iterative run with a fixed control at its final alpha")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--baseline-method", choices=["sa", "exhaustive", "auto"], default="sa")
    p.add_argument("--baseline-seed", type=int, default=0)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--records", type=str, default=None, help="JSONL output path")
    p.add_argument("--report-dir", type=str, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-history", action="store_true")
    p.add_argument("--quiet", action="store_true")
    _add_solver_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_bench, solvers=None)

    p = sub.add_parser("report", help="rebuild tables from a records file")
    p.add_argument("--records", type=str, required=True)
    p.add_argument("--formats", nargs="*", choices=["json", "csv", "markdown"],
                   default=["markdown", "json"])
    p.add_argument("--out", type=str, default=".")
    _add_config_flag(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _apply_config(parser.parse_args(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
