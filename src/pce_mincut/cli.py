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
takes the config-only key `solvers`, a list of SolverSpec keyword objects,
so a campaign such as an alpha or eta sweep is one plan file (see plans/).
Their values follow the same rule, the shared solver flags fill what an
entry leaves out, and the optimizer budget comes from --max-evals. Without
`solvers`, bench runs one unpaired iterative solver labelled `iterative`.
`solve` and `bench` both build each run's config with SolverSpec.config, so
they refuse the same settings; `solve` alone also sets the outer-iteration
and alpha caps of its run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .graph import (JSON_KINDS, WEIGHT_MODES, generate_complete_graph, json_fits, read_graph,
                    write_graph)
from .harness import (
    ExperimentPlan,
    GraphSource,
    aggregate,
    emit_report,
    make_record,
    normalizing_baseline,
    read_records,
    render_markdown,
    run_plan,
    write_history_csv,
)
from .optimize import OptimizerConfig
from .oracles import BASELINE_METHODS, SaConfig, baseline_cut
from .solver import MODES, UPDATE_RULES, SolverSpec, solve


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", type=str, default=None,
        help="JSON file whose keys override command-line flags",
    )


def _integer(text: str) -> int:
    """An integer flag's value: an optional '-' and ASCII digits, nothing else
    (int() alone also reads '1_0' as 10 and non-ASCII digits)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return int(text)


def _kind(action: argparse.Action) -> type:
    """The JSON_KINDS key of a flag's values."""
    return bool if action.nargs == 0 else {_integer: int, float: float}.get(action.type, str)


def _fits_one(action: argparse.Action, value) -> bool:
    if action.choices is not None:
        return value in action.choices
    return json_fits(value, _kind(action))


def _config_mismatch(action: argparse.Action, value) -> str | None:
    """What a config value for this flag must be, or None when it is that."""
    one = (f"one of {sorted(action.choices)}" if action.choices is not None
           else JSON_KINDS[_kind(action)][1])
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


# the value rules of the SolverSpec fields that no bench flag shares
_SOLVER_ONLY_FLAGS = {a.dest: a for a in (
    argparse.Action([], "label", default="iterative"),
    argparse.Action([], "mode", choices=MODES, default="iterative"),
    argparse.Action([], "alpha", type=float),
    argparse.Action([], "paired_control", nargs=0, default=False),
)}


def _check_solvers(path, entries, flags: dict[str, argparse.Action]) -> None:
    """Refuse a key that is no SolverSpec field, or a value its flag would refuse."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SystemExit(f"{path}: 'solvers' must be a list of objects, got {entries!r}")
    # optimizer has no JSON form
    fields = {f.name for f in dataclasses.fields(SolverSpec)} - {"optimizer"}
    flags = {**flags, **_SOLVER_ONLY_FLAGS}
    for i, entry in enumerate(entries):
        for key, value in entry.items():
            if key not in fields:
                raise SystemExit(f"{path}: solvers[{i}] has key {key!r}, which is no solver "
                                 f"setting (one of {sorted(fields)}; the evaluation budget "
                                 "is --max-evals)")
            if (want := _config_mismatch(flags[key], value)) is not None:
                raise SystemExit(f"{path}: solvers[{i}] key {key!r} must be {want}, "
                                 f"got {value!r}")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Override flags with the keys of the --config file.

    A value must already be the JSON value the flag's type and choices
    accept (4 or 4.0 for a number, never "4"). It is kept as JSON gives it,
    so a plan file's `4` reaches the run records as `4`, not `4.0`.
    """
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{args.config}: not valid JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise SystemExit(f"{args.config}: holds a {type(overrides).__name__}, "
                             "not a JSON object")
        flags = _subcommand_flags(args.command)
        # every flag of the subcommand has a default in args, and so has the
        # config-only key `solvers` of bench
        known = set(vars(args)) - {"func", "command", "config"}
        for key, value in overrides.items():
            name = key.replace("-", "_")
            if name not in known:
                raise SystemExit(f"{args.config}: {key!r} is not a setting of {args.command}")
            if name == "solvers":
                _check_solvers(args.config, value, flags)
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
    parser.add_argument("--update-rule", choices=UPDATE_RULES, default=None)
    parser.add_argument("--k", type=_integer, default=None,
                        help="Pauli-string order (default by size)")
    parser.add_argument("--layers", type=_integer, default=1)
    parser.add_argument("--max-evals", type=_integer, default=None,
                        help="optimizer evaluation budget")


def _solver_kwargs(args) -> dict:
    """SolverSpec keywords of the shared solver flags; `solve` adds mode and alpha,
    and a `bench` solvers entry overrides any of them."""
    return dict(
        alpha0=args.alpha0, M=args.M, beta=args.beta, eta=args.eta,
        update_rule=args.update_rule, k=args.k, layers=args.layers,
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
    if args.history and args.alpha_mode == "fixed":
        raise SystemExit("solve: --history writes the iterative schedule's steps, "
                         "and a fixed run has none")
    source = GraphSource(kind="file", path=str(args.graph))
    g = source.load()
    spec = SolverSpec(mode=args.alpha_mode, alpha=args.alpha, **_solver_kwargs(args))
    # the two caps are settings of this one run, not of a plan's solvers
    cfg = dataclasses.replace(spec.config(g, args.c, args.seed),
                              max_outer_iters=args.max_outer_iters, alpha_cap=args.alpha_cap)
    baseline = normalizing_baseline(g, args.c, args.baseline_method, args.baseline_seed, args.cache)
    t0 = time.perf_counter()
    outcome = solve(cfg)
    wall = time.perf_counter() - t0
    record = make_record(cfg, outcome, source.to_dict(g), label="cli-solve",
                         pair_id=None, baseline=baseline, wall_time_s=wall)
    print(json.dumps(record, indent=2))
    if args.history:
        write_history_csv([record], args.history, run_fields=())
        print(f"history written to {args.history}", file=sys.stderr)
    if args.records:
        with open(args.records, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


def _graph_source_from_args(args) -> GraphSource:
    if args.graph:
        if args.n is not None:
            raise SystemExit("bench takes --graph FILE or --n N, not both")
        return GraphSource(kind="file", path=args.graph)
    if args.n is None:
        raise SystemExit("bench needs --graph FILE or --n N")
    return GraphSource(kind="generate", n=args.n, weights=args.weights,
                       seed=args.graph_seed, low=args.low, high=args.high,
                       drop_prob=args.drop_prob)


def _plan_from_args(args) -> ExperimentPlan:
    common = _solver_kwargs(args)
    entries = [{}] if args.solvers is None else args.solvers
    return ExperimentPlan(
        graph=_graph_source_from_args(args),
        c_values=None if args.c_values is None else tuple(args.c_values),
        repetitions=args.reps,
        solvers=tuple(SolverSpec(**{**common, **entry}) for entry in entries),
        seed_base=args.seed_base,
        baseline_method=args.baseline_method,
        baseline_seed=args.baseline_seed,
        baseline_cache=args.cache,
        record_history=not args.no_history,
        workers=args.workers,
    )


def cmd_bench(args) -> int:
    plan = _plan_from_args(args)
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
        emit_report(records, report, args.report_dir)
    if not args.quiet:
        print(render_markdown(report))
    return 1 if report.failures else 0


def cmd_report(args) -> int:
    records = read_records(args.records)
    report = aggregate(records)
    emit_report(records, report, args.out)
    print(render_markdown(report))
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pce-mincut",
        description="Budget-constrained minimum cuts via Pauli-correlation encoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph instance")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--weights", choices=WEIGHT_MODES, default="unit")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", type=str, required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("baseline", help="classical baseline cut")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--c", type=_integer, required=True)
    p.add_argument("--method", choices=BASELINE_METHODS, default="sa")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--cache", type=str, default=None)
    _add_config_flag(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("solve", help="single run, prints a JSON run record")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--c", type=_integer, required=True, help="budget: nodes on the selected side")
    p.add_argument("--alpha-mode", choices=MODES, default="iterative")
    p.add_argument("--alpha", type=float, default=None, help="sharpness for fixed mode")
    p.add_argument("--max-outer-iters", type=_integer, default=50)
    p.add_argument("--alpha-cap", type=float, default=1e16)
    p.add_argument("--seed", type=_integer, default=0)
    _add_solver_flags(p)
    p.add_argument("--baseline-method", choices=BASELINE_METHODS, default="sa")
    p.add_argument("--baseline-seed", type=_integer, default=0)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--history", type=str, default=None, help="write per-iteration CSV here")
    p.add_argument("--records", type=str, default=None, help="append the record to this JSONL file")
    _add_config_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment plan")
    p.add_argument("--graph", type=str, default=None, help="graph file (or use --n)")
    p.add_argument("--n", type=_integer, default=None,
                   help="generate a complete graph of this size")
    p.add_argument("--weights", choices=WEIGHT_MODES, default="unit")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--graph-seed", type=_integer, default=0)
    p.add_argument("--c-values", type=_integer, nargs="*", default=None,
                   help="budget values (default: every c in [2, n/2])")
    p.add_argument("--reps", type=_integer, default=10)
    p.add_argument("--seed-base", type=_integer, default=0)
    p.add_argument("--baseline-method", choices=BASELINE_METHODS, default="sa")
    p.add_argument("--baseline-seed", type=_integer, default=0)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--records", type=str, default=None, help="JSONL output path")
    p.add_argument("--report-dir", type=str, default=None)
    p.add_argument("--workers", type=_integer, default=1,
                   help="processes; each runs a round-robin share of the plan's cells "
                        "in lockstep")
    p.add_argument("--no-history", action="store_true")
    p.add_argument("--quiet", action="store_true")
    _add_solver_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_bench, solvers=None)

    p = sub.add_parser("report", help="rebuild tables from a records file")
    p.add_argument("--records", type=str, required=True)
    p.add_argument("--out", type=str, default=".")
    _add_config_flag(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args = _apply_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:  # a bad input or file: one line, no traceback
        raise SystemExit(f"{args.command}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
