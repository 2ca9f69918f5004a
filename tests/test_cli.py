import csv
import dataclasses
import json
from pathlib import Path

import pytest

import pce_mincut.harness as harness_mod
import pce_mincut.solver as solver_mod
from pce_mincut.cli import (
    _SOLVER_ONLY_FLAGS,
    _apply_config,
    _kind,
    _plan_from_args,
    _subcommand_flags,
    build_parser,
    main,
)
from pce_mincut.graph import read_graph
from pce_mincut.harness import RUN_COLUMNS, SolverSpec
from pce_mincut.optimize import OptimizerConfig


RECORDS_V0_2_0 = Path(__file__).parent / "data" / "records_v0_2_0.jsonl"


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli("generate", "--n", 6, "--out", out) == 0
    g = read_graph(out)
    assert g.n == 6 and g.edge_count == 15
    assert "n=6" in capsys.readouterr().out


def test_baseline_prints_cut(tmp_path, capsys):
    out = tmp_path / "g.json"
    run_cli("generate", "--n", 6, "--out", out)
    capsys.readouterr()
    assert run_cli("baseline", "--graph", out, "--c", 3, "--method", "exhaustive") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cut"] == 9.0


def test_solve_prints_record(tmp_path, capsys):
    graph = tmp_path / "g.json"
    run_cli("generate", "--n", 6, "--out", graph)
    capsys.readouterr()
    hist = tmp_path / "history.csv"
    records = tmp_path / "records.jsonl"
    code = run_cli(
        "solve", "--graph", graph, "--c", 2, "--seed", 1, "--max-evals", 600,
        "--baseline-method", "exhaustive", "--history", hist, "--records", records,
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["outcome"]["outer_iters"] >= 1
    assert record["metrics"]["baseline_cut"] == 8.0
    with open(hist, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "alpha", "loss", "binarization", "minus_count"]
    assert rows[1:] == [[str(h[k]) for k in rows[0]] for h in record["outcome"]["history"]]
    assert len(records.read_text().strip().splitlines()) == 1


def test_solve_exits_in_one_line_on_alpha_in_iterative_mode(tmp_path, capsys):
    graph = tmp_path / "g.json"
    run_cli("generate", "--n", 6, "--out", graph)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("solve", "--graph", graph, "--c", 2, "--alpha-mode", "iterative",
                "--alpha", 5)
    message = str(exc_info.value)
    assert message.startswith("solve: ") and "alpha0" in message
    assert "\n" not in message


def test_bench_and_report_round_trip(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    report_dir = tmp_path / "report"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"solvers": [{"paired_control": True}]}))
    code = run_cli(
        "bench", "--config", plan, "--n", 6, "--c-values", 2, "--reps", 2,
        "--max-evals", 600, "--baseline-method", "exhaustive",
        "--records", records, "--report-dir", report_dir, "--quiet",
    )
    assert code == 0
    assert (report_dir / "report.md").exists()
    assert (report_dir / "report.json").exists()
    assert (report_dir / "runs.csv").exists()
    assert (report_dir / "history.csv").exists()
    assert len(records.read_text().strip().splitlines()) == 4

    out_dir = tmp_path / "rebuilt"
    capsys.readouterr()
    assert run_cli("report", "--records", records, "--out", out_dir) == 0
    rebuilt = json.loads((out_dir / "report.json").read_text())
    original = json.loads((report_dir / "report.json").read_text())
    assert rebuilt == original


def test_bench_fixed_alpha_grid(tmp_path):
    records = tmp_path / "r.jsonl"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"solvers": [
        {"label": f"fixed-a{alpha}", "mode": "fixed", "alpha": alpha} for alpha in (4, 100)]}))
    code = run_cli(
        "bench", "--config", plan, "--n", 6, "--c-values", 2, "--reps", 1,
        "--max-evals", 400, "--baseline-method", "exhaustive",
        "--records", records, "--quiet",
    )
    assert code == 0
    recs = [json.loads(line) for line in records.read_text().strip().splitlines()]
    assert {r["label"] for r in recs} == {"fixed-a4", "fixed-a100"}
    assert all(r["config"]["alpha_mode"] == "fixed" for r in recs)


def test_config_file_overrides_flags(tmp_path, capsys):
    out = tmp_path / "g.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8}))
    assert run_cli("generate", "--n", 4, "--out", out, "--config", cfg) == 0
    assert read_graph(out).n == 8


def bench_args(tmp_path, config, *flags):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(config))
    argv = ["bench", "--config", str(path), *map(str, flags)]
    return _apply_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("key", ["alpha", "func", "command", "config",
                                 "solver", "alphas", "paired"])
def test_config_rejects_unknown_key(tmp_path, key):
    with pytest.raises(SystemExit, match=f"{key!r} is not a setting of bench"):
        bench_args(tmp_path, {key: [4.0, 8.0]}, "--n", 4)


def test_config_solvers_is_a_bench_key_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solvers": []}))
    with pytest.raises(SystemExit, match="'solvers'"):
        run_cli("generate", "--n", 4, "--out", tmp_path / "g.json", "--config", cfg)


def test_config_solvers_take_the_shared_solver_flags(tmp_path):
    args = bench_args(tmp_path, {"solvers": [
        {"label": "a", "mode": "fixed", "alpha": 5.0},
        {"label": "b", "mode": "fixed", "alpha": 5.0, "eta": 2.0},
    ]}, "--n", 4, "--max-evals", 300, "--eta", 1.0)
    assert _plan_from_args(args).solvers == (
        SolverSpec(label="a", mode="fixed", alpha=5.0, eta=1.0,
                   optimizer=OptimizerConfig(max_evals=300)),
        SolverSpec(label="b", mode="fixed", alpha=5.0, eta=2.0,
                   optimizer=OptimizerConfig(max_evals=300)),
    )


def test_bench_without_solvers_runs_one_unpaired_iterative_solver(tmp_path):
    args = bench_args(tmp_path, {"eta": 2.0}, "--n", 4, "--max-evals", 300)
    assert _plan_from_args(args).solvers == (
        SolverSpec(label="iterative", mode="iterative", paired_control=False, eta=2.0,
                   optimizer=OptimizerConfig(max_evals=300)),
    )


def test_bench_refuses_a_plan_without_solvers(tmp_path):
    args = bench_args(tmp_path, {"solvers": []}, "--n", 4)
    with pytest.raises(ValueError, match="no solvers"):
        _plan_from_args(args)


def test_solve_exits_in_one_line_on_an_alpha_cap_below_alpha0(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("generate", "--n", 6, "--out", graph)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("solve", "--graph", graph, "--c", 2, "--alpha-cap", 0)
    message = str(exc_info.value)
    assert message.startswith("solve: alpha_cap must be")
    assert "\n" not in message


def test_solve_exits_in_one_line_on_a_non_finite_alpha0(tmp_path):
    graph = tmp_path / "g.json"
    run_cli("generate", "--n", 6, "--out", graph)
    for mode_flags in (["--alpha-mode", "iterative"], ["--alpha-mode", "fixed", "--alpha", 5]):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--graph", graph, "--c", 2, *mode_flags, "--alpha0", "nan")
        message = str(exc_info.value)
        assert message.startswith("solve: alpha0 must be")
        assert "\n" not in message


def test_every_solver_setting_has_a_value_rule():
    # a solvers entry key without a bench flag or a _SOLVER_ONLY_FLAGS rule
    # would reach _check_solvers' flags[key] as a KeyError traceback
    rules = set(_subcommand_flags("bench")) | set(_SOLVER_ONLY_FLAGS)
    settings = {f.name for f in dataclasses.fields(SolverSpec)} - {"optimizer"}
    assert settings <= rules, settings - rules


INTEGER_FLAGS = [  # (subcommand, flag), one entry per integer flag
    ("generate", "--n"), ("generate", "--seed"), ("baseline", "--c"), ("baseline", "--seed"),
    ("solve", "--c"), ("solve", "--max-outer-iters"), ("solve", "--seed"),
    ("solve", "--baseline-seed"), ("solve", "--k"), ("solve", "--layers"),
    ("solve", "--max-evals"), ("bench", "--n"), ("bench", "--graph-seed"),
    ("bench", "--c-values"), ("bench", "--reps"), ("bench", "--seed-base"),
    ("bench", "--baseline-seed"), ("bench", "--workers"), ("bench", "--k"),
    ("bench", "--layers"), ("bench", "--max-evals"),
]


def test_integer_flags_are_every_flag_of_json_kind_integer():
    found = {(command, action.option_strings[0])
             for command in ("generate", "baseline", "solve", "bench", "report")
             for action in _subcommand_flags(command).values()
             if action.option_strings and _kind(action) is int}
    assert found == set(INTEGER_FLAGS)


@pytest.mark.parametrize("value", ["1_0", "\uff15", "\u0665", "+5", " 5", "5.0", "--5"])
@pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
def test_an_integer_flag_takes_only_ascii_digits(command, flag, value, capsys):
    # int() reads "1_0" as 10 and the full-width and Arabic-Indic fives as 5
    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args([command, f"{flag}={value}"])
    assert exc_info.value.code == 2
    assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
def test_an_integer_flag_reads_a_negative_value(command, flag):
    required = {"generate": ["--n", "3", "--out", "g.json"], "bench": [],
                "baseline": ["--graph", "g", "--c", "1"],
                "solve": ["--graph", "g", "--c", "1"]}[command]
    tail = ["7"] if flag == "--c-values" else []
    args = build_parser().parse_args([command, *required, flag, "-12", *tail])
    value = getattr(args, flag[2:].replace("-", "_"))
    assert value == ([-12, 7] if flag == "--c-values" else -12)


def test_bench_exits_in_one_line_on_a_flag_out_of_range():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("bench", "--n", 4, "--reps", 0)
    assert str(exc_info.value) == "bench: repetitions must be at least 1"


def test_bench_exits_in_one_line_on_a_config_value_out_of_range(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"reps": 0}))
    with pytest.raises(SystemExit) as exc_info:
        run_cli("bench", "--config", path, "--n", 4)
    assert str(exc_info.value) == "bench: repetitions must be at least 1"


@pytest.mark.parametrize("config, want", [
    ({"n": "4"}, "an integer or null"),
    ({"reps": "1"}, "an integer"),
    ({"reps": None}, "an integer"),
    ({"reps": 1.5}, "an integer"),
    ({"seed_base": True}, "an integer"),
    ({"beta": "1000"}, "a number or null"),
    ({"baseline_method": "exact"}, "one of ['auto', 'exhaustive', 'sa']"),
    ({"c_values": [2, "3"]}, "a list whose items are each an integer"),
    ({"c_values": 2}, "a list whose items are each an integer"),
    ({"no_history": 1}, "true or false"),
    ({"records": 7}, "a string or null"),
])
def test_config_refuses_a_value_of_the_wrong_type(tmp_path, config, want):
    (key,) = config
    with pytest.raises(SystemExit) as exc_info:
        bench_args(tmp_path, config, "--n", 4)
    message = str(exc_info.value)
    assert message.startswith(str(tmp_path / "plan.json"))
    assert f"{key!r} must be {want}, got {config[key]!r}" in message


def test_config_keeps_json_values_that_fit(tmp_path):
    args = bench_args(tmp_path, {"beta": 4, "M": None, "c_values": [2],
                                 "no_history": False, "update_rule": "large_scale"}, "--n", 4)
    assert args.beta == 4 and type(args.beta) is int
    assert (args.M, args.c_values, args.no_history, args.update_rule) == (
        None, [2], False, "large_scale")


@pytest.mark.parametrize("solvers, match", [
    ([{"label": "a", "mode": "fixed", "alpha": 5.0}, {"label": "b", "bogus": 1}],
     r"solvers\[1\] has key 'bogus'"),
    ([["fixed"]], "'solvers' must be a list of objects"),
    ({"label": "a"}, "'solvers' must be a list of objects"),
    ([{"label": "x", "mode": "fixed", "alpha": "100"}],
     r"solvers\[0\] key 'alpha' must be a number or null, got '100'"),
    ([{"label": "x", "mode": "fixed", "alpha": 2.0}, {"label": 7}],
     r"solvers\[1\] key 'label' must be a string, got 7"),
    ([{"mode": "both"}], r"solvers\[0\] key 'mode' must be one of \['fixed', 'iterative'\]"),
    ([{"paired_control": "yes"}], r"solvers\[0\] key 'paired_control' must be true or false"),
    ([{"k": 2.5}], r"solvers\[0\] key 'k' must be an integer or null"),
    ([{"optimizer": {"max_evals": 200}}], r"solvers\[0\] has key 'optimizer'.*--max-evals"),
])
def test_config_refuses_a_bad_solvers_entry(tmp_path, solvers, match):
    with pytest.raises(SystemExit, match=match) as exc_info:
        bench_args(tmp_path, {"solvers": solvers}, "--n", 4)
    assert str(exc_info.value).startswith(str(tmp_path / "plan.json"))


@pytest.mark.parametrize("argv, message", [
    ("bench --graph {tmp}/bad.txt --reps 1", "bench: {tmp}/bad.txt:2: "),
    ("solve --graph {tmp}/bad.txt --c 2", "solve: {tmp}/bad.txt:2: "),
    ("bench --n 6 --c-values 4 --reps 1", "bench: c must be in [1, n/2] = [1, 3], got 4"),
    ("bench --n 6 --c-values 2 2 --reps 1", "bench: the plan lists c=2 more than once"),
    ("baseline --graph {tmp}/k4.json --c 3", "baseline: c must be in [1, n/2] = [1, 2], got 3"),
    ("bench --n 4 --reps 1 --cache {tmp}/cache.json",
     "bench: baseline cache {tmp}/cache.json is not valid JSON"),
    ("report --records {tmp}/missing.jsonl", "report: [Errno 2] No such file or directory"),
    ("report --records {tmp}/missing.jsonl --config {tmp}/list.json",
     "{tmp}/list.json: holds a list, not a JSON object"),
    ("report --records {tmp}/missing.jsonl --config {tmp}/cache.json",
     "{tmp}/cache.json: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    ("bench --config {tmp}/twins.json --n 4 --reps 2",
     "bench: two solvers of the plan label their runs 'iterative'"),
    ("solve --graph {tmp}/k4.json --c 2 --alpha-mode fixed",
     "solve: fixed-alpha solver needs an alpha value"),
    # an empty list is no c values, not every c in [2, n/2]
    ("bench --n 8 --c-values --reps 1", "bench: plan has no c values"),
    ("bench --config {tmp}/no_c.json --n 8 --reps 1", "bench: plan has no c values"),
    ("solve --graph {tmp}/k4.json --c 2 --alpha-mode fixed --alpha 5 --history {tmp}/h.csv",
     "solve: --history writes the iterative schedule's steps, and a fixed run has none"),
    ("bench --graph {tmp}/k4.json --n 40 --reps 1",
     "bench takes --graph FILE or --n N, not both"),
], ids=["bench-graph-file", "solve-graph-file", "c-values", "repeated-c", "baseline-c", "cache",
        "records", "config-list", "config-not-json", "solver-labels", "fixed-without-alpha",
        "empty-c-values", "empty-c-values-config", "history-on-fixed", "graph-and-n"])
def test_a_bad_input_exits_in_one_line(tmp_path, argv, message):
    (tmp_path / "bad.txt").write_text("0 1 1.0\n1 x 2.0\n")
    (tmp_path / "no_c.json").write_text(json.dumps({"c_values": []}))
    (tmp_path / "cache.json").write_text("not json\n")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    (tmp_path / "twins.json").write_text(json.dumps(
        {"solvers": [{"paired_control": True}, {"paired_control": True, "eta": 5.0}]}))
    run_cli("generate", "--n", 4, "--out", tmp_path / "k4.json")
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv.format(tmp=tmp_path).split())
    text = str(exc_info.value)
    assert text.startswith(message.format(tmp=tmp_path))
    assert "\n" not in text
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_a_non_finite_weight_exits_in_one_line(tmp_path, weight):
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 1 1.0\n1 2 {weight}\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("baseline", "--graph", graph, "--c", 1, "--method", "sa")
    assert str(exc_info.value) == f"baseline: {graph}:2: weight {weight} is not finite"


def test_a_graph_whose_weights_overflow_exits_in_one_line(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 1e308\n1 2 1e308\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("baseline", "--graph", graph, "--c", 1, "--method", "sa")
    assert str(exc_info.value) == "baseline: weights must have a finite sum, got inf"


def test_a_graph_whose_cuts_cannot_be_resolved_exits_in_one_line(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 1e300\n1 2 1\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("baseline", "--graph", graph, "--c", 1, "--method", "sa")
    assert str(exc_info.value) == ("baseline: the smallest nonzero weight 1.0 vanishes against "
                                   "the weight sum 2e+300; cuts could not be resolved")


@pytest.mark.parametrize("flags, message", [
    ("--M 1.5", "threshold M must be in (0, 1), got 1.5"),
    ("--max-evals 5", "max_evals=5 cannot even build a simplex in 18-D"),
    ("--alpha0 -1", "alpha0 must be positive and finite, got -1.0"),
    ("--layers 0", "layers must be at least 1"),
    ("--beta -1", "beta must be non-negative, got -1.0"),
])
def test_bench_refuses_a_bad_solver_setting_before_any_baseline(
        tmp_path, monkeypatch, flags, message):
    def baseline_cut(*args, **kwargs):
        raise AssertionError("a baseline was computed")

    monkeypatch.setattr(harness_mod, "baseline_cut", baseline_cut)
    records = tmp_path / "runs.jsonl"
    with pytest.raises(SystemExit) as exc_info:
        run_cli("bench", "--n", 6, "--c-values", 2, 3, "--reps", 2, "--records", records,
                *flags.split())
    assert str(exc_info.value) == f"bench: {message}"
    assert not records.exists()


def v0_2_0_record_with(key, value):
    """The first committed v0.2.0 record, as a JSON line, with value at the dotted key."""
    record = json.loads(RECORDS_V0_2_0.read_text().splitlines()[0])
    *parents, last = key.split(".")
    node = record
    for part in parents:
        node = node[part]
    node[last] = value
    return json.dumps(record)


@pytest.mark.parametrize("line, reason", [
    ("{}", "no key 'artifact_version'"), ('{"label": "x"}', "no key 'artifact_version'"),
    ('{"artifact_version": "0.2.0", "label": "x", "c": 2}', "no key 'role'"),
    ('{"artifact_version": "0.2.0", "label": "x", "role": "single", "pair_id": null, "c": 2, '
     '"graph": {}, "config": {}, "outcome": {}, "metrics": {}, "wall_time_s": 0}',
     "no key 'graph.nodes'"),
    ('{"artifact_version": "0.2.0", "label": "x", "role": "single", "pair_id": null, "c": 2, '
     '"graph": [], "config": {}, "outcome": {}, "metrics": {}, "wall_time_s": 0}',
     "no key 'graph.nodes'"),
    (v0_2_0_record_with("metrics.binarization", "x"),
     "key 'metrics.binarization' holds 'x', not a number"),
    (v0_2_0_record_with("graph.nodes", "6"), "key 'graph.nodes' holds '6', not an integer"),
    (v0_2_0_record_with("metrics.feasible", "no"),
     "key 'metrics.feasible' holds 'no', not true or false"),
    (v0_2_0_record_with("metrics.binarization", True),
     "key 'metrics.binarization' holds True, not a number"),
    (v0_2_0_record_with("pair_id", 7), "key 'pair_id' holds 7, not a string or null"),
], ids=["empty", "label-only", "no-outcome", "empty-sections", "graph-list", "str-binarization",
        "str-nodes", "str-feasible", "bool-binarization", "int-pair-id"])
def test_report_refuses_an_object_that_is_no_record(tmp_path, line, reason):
    records = tmp_path / "runs.jsonl"
    # an error record before the line, and a record with an int graph.nodes after it
    records.write_text('{"error": "RuntimeError: boom", "c": 2}\n' + line + "\n"
                       + RECORDS_V0_2_0.read_text().splitlines()[0] + "\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("report", "--records", records, "--out", tmp_path)
    assert str(exc_info.value) == (f"report: {records}, line 2: not a JSON record ({reason})")
    assert list(tmp_path.iterdir()) == [records]


@pytest.mark.parametrize("key", [key for _, key, _ in RUN_COLUMNS]
                         + ["pair_id", "outcome.history[1].minus_count"])
def test_report_refuses_a_record_without_a_key_it_reads(tmp_path, key):
    records = tmp_path / "runs.jsonl"
    record = json.loads(RECORDS_V0_2_0.read_text().splitlines()[0])
    *parents, last = [int(part) if part.isdigit() else part
                      for part in key.replace("[", ".").replace("]", "").split(".")]
    node = record
    for part in parents:
        node = node[part]
    del node[last]
    records.write_text(json.dumps(record) + "\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("report", "--records", records, "--out", tmp_path)
    assert str(exc_info.value) == (f"report: {records}, line 1: not a JSON record "
                                   f"(no key {key!r})")
    assert list(tmp_path.iterdir()) == [records]


@pytest.mark.parametrize("argv", [
    "bench --c-values 2 --reps 1 --records {tmp}/runs.jsonl", "solve --c 2",
], ids=["bench", "solve"])
def test_a_zero_baseline_is_refused_before_any_solve(tmp_path, monkeypatch, argv):
    graph = tmp_path / "split.txt"
    graph.write_text("0 1 1.0\n2 3 1.0\n")  # c=2 has a cut of weight 0
    prepared = []
    real_prepare = solver_mod.prepare_state
    monkeypatch.setattr(solver_mod, "prepare_state",
                        lambda *args: prepared.append(args) or real_prepare(*args))
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv.format(tmp=tmp_path).split(), "--graph", graph,
                "--baseline-method", "exhaustive")
    assert str(exc_info.value) == (f"{argv.split()[0]}: baseline cut for c=2 is 0.0; "
                                   "it must be positive (degenerate instance)")
    assert prepared == []
    assert not (tmp_path / "runs.jsonl").exists()
