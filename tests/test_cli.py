import json

import pytest

from pce_mincut.cli import _apply_config, _plan_from_args, build_parser, main
from pce_mincut.graph import read_graph
from pce_mincut.harness import SolverSpec
from pce_mincut.optimize import OptimizerConfig


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
    assert hist.read_text().startswith("iter,alpha,loss,binarization,minus_count")
    assert len(records.read_text().strip().splitlines()) == 1


def test_bench_and_report_round_trip(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    report_dir = tmp_path / "report"
    code = run_cli(
        "bench", "--n", 6, "--c-values", 2, "--reps", 2, "--solver", "iterative",
        "--paired", "--max-evals", 600, "--baseline-method", "exhaustive",
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
    code = run_cli(
        "bench", "--n", 6, "--c-values", 2, "--reps", 1, "--solver", "fixed",
        "--alphas", 4, 100, "--max-evals", 400, "--baseline-method", "exhaustive",
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


@pytest.mark.parametrize("key", ["alpha", "func", "command", "config"])
def test_config_rejects_unknown_key(tmp_path, key):
    with pytest.raises(SystemExit, match=repr(key)):
        bench_args(tmp_path, {key: [4.0, 8.0], "solver": "fixed"}, "--n", 4)


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


@pytest.mark.parametrize("flags", [("--alphas", 4), ("--paired",)])
def test_config_solvers_refuse_solver_flags(tmp_path, flags):
    args = bench_args(tmp_path, {"solvers": [{"label": "a", "mode": "fixed", "alpha": 5.0}]},
                      "--n", 4, *flags)
    with pytest.raises(SystemExit, match="solvers"):
        _plan_from_args(args)


def test_bench_refuses_a_plan_without_solvers(tmp_path):
    args = bench_args(tmp_path, {"solvers": []}, "--n", 4)
    with pytest.raises(ValueError, match="no solvers"):
        _plan_from_args(args)


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
    ({"solver": "fixd"}, "one of ['both', 'fixed', 'iterative']"),
    ({"alphas": [4, "8"]}, "a list whose items are each a number"),
    ({"c_values": 2}, "a list whose items are each an integer"),
    ({"paired": 1}, "true or false"),
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
    args = bench_args(tmp_path, {"alphas": [4, 8.5], "beta": None, "c_values": [2],
                                 "paired": False, "update_rule": "large_scale"}, "--n", 4)
    assert args.alphas == [4, 8.5] and type(args.alphas[0]) is int
    assert (args.beta, args.c_values, args.paired, args.update_rule) == (
        None, [2], False, "large_scale")


@pytest.mark.parametrize("solvers, match", [
    ([{"label": "a", "mode": "fixed", "alpha": 5.0}, {"label": "b", "bogus": 1}],
     r"solvers\[1\] has key 'bogus'"),
    ([["fixed"]], "'solvers' must be a list of objects"),
    ({"label": "a"}, "'solvers' must be a list of objects"),
])
def test_config_refuses_a_bad_solvers_entry(tmp_path, solvers, match):
    with pytest.raises(SystemExit, match=match) as exc_info:
        bench_args(tmp_path, {"solvers": solvers}, "--n", 4)
    assert str(exc_info.value).startswith(str(tmp_path / "plan.json"))
