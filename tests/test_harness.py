import json
from pathlib import Path

import pytest

from pce_mincut.graph import generate_complete_graph
from pce_mincut.harness import (
    ExperimentPlan,
    GraphSource,
    SolverSpec,
    aggregate,
    config_from_dict,
    config_to_dict,
    emit_report,
    metric_epsilon_c,
    read_records,
    render_markdown,
    replay_record,
    run_plan,
    write_history_csv,
    write_runs_csv,
)
from pce_mincut.optimize import OptimizerConfig
from pce_mincut.quantum import numerics
from pce_mincut.solver import default_config

FAST = OptimizerConfig(max_evals=600)

# the records of small_plan() as versions 0.1.0 and 0.2.0 of the package wrote them
V0_1_0_RECORDS = Path(__file__).parent / "data" / "records_v0_1_0.jsonl"
V0_2_0_RECORDS = Path(__file__).parent / "data" / "records_v0_2_0.jsonl"


def small_plan(**overrides):
    defaults = dict(
        graph=GraphSource(kind="generate", n=6),
        c_values=(2,),
        repetitions=2,
        solvers=(SolverSpec(label="iterative", paired_control=True, optimizer=FAST),),
        seed_base=0,
        baseline_method="exhaustive",
        record_history=True,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


@pytest.fixture(scope="module")
def plan_results(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    records, report = run_plan(small_plan(), records_path=path)
    return path, records, report


def test_metric_epsilon_c():
    rows = [{"metrics": {"feasible": f}} for f in (True,) * 7 + (False,) * 3]
    assert metric_epsilon_c(rows) == pytest.approx(0.7)
    assert metric_epsilon_c(rows[:7]) == 1.0
    assert metric_epsilon_c([{"metrics": {"feasible": False}}]) == 0.0
    with pytest.raises(ValueError):
        metric_epsilon_c([])


def test_run_plan_produces_paired_records(plan_results):
    _, records, report = plan_results
    # 2 reps x 1 c x (iterative + control)
    assert len(records) == 4
    roles = [r["role"] for r in records]
    assert roles.count("iterative") == 2 and roles.count("control") == 2
    for rec in records:
        assert rec["metrics"]["baseline_cut"] == 8.0  # exhaustive on unit K6, c=2
        assert rec["config"]["ansatz"].startswith("brickwork")
    assert not report.failures


def test_records_stream_to_jsonl(plan_results):
    path, records, _ = plan_results
    on_disk = read_records(path)
    assert on_disk == records


def test_pairs_share_baseline_and_seed_offset(plan_results):
    _, records, _ = plan_results
    by_pair = {}
    for rec in records:
        by_pair.setdefault(rec["pair_id"], {})[rec["role"]] = rec
    for sides in by_pair.values():
        it, ctrl = sides["iterative"], sides["control"]
        assert it["metrics"]["baseline_cut"] == ctrl["metrics"]["baseline_cut"]
        assert ctrl["config"]["seed"] - it["config"]["seed"] == 104729
        assert ctrl["config"]["objective"]["alpha"] == it["outcome"]["final_alpha"]
        assert ctrl["config"]["alpha_mode"] == "fixed"


def test_aggregate_rows(plan_results):
    _, records, report = plan_results
    labels = {row.solver for row in report.rows}
    assert labels == {"iterative", "iterative-control"}
    it_row = next(r for r in report.rows if r.solver == "iterative")
    assert it_row.runs == 2
    assert 0.0 <= it_row.epsilon_c <= 1.0
    assert it_row.mean_outer_iters is not None


def test_contingency_sums_to_100(plan_results):
    _, _, report = plan_results
    assert report.contingency
    for row in report.contingency:
        total = row.both_pct + row.iter_only_pct + row.control_only_pct + row.neither_pct
        assert total == pytest.approx(100.0)


def test_cut_aggregates_exclude_infeasible():
    records = []
    for feasible, ncut in ((True, 1.0), (True, 1.5), (False, 9.0)):
        records.append(
            {
                "label": "x",
                "role": "single",
                "pair_id": None,
                "c": 2,
                "graph": {"nodes": 6, "hash": "h"},
                "config": {"alpha_mode": "fixed", "seed": 0,
                           "objective": {"alpha": 1.0}},
                "outcome": {"outer_iters": 1, "inner_evals": 1, "cut": ncut,
                            "final_alpha": 1.0, "capped": False},
                "metrics": {"feasible": feasible, "binarization": 1.0,
                            "baseline_cut": 1.0, "normalized_cut": ncut},
            }
        )
    report = aggregate(records)
    assert report.rows[0].mean_normalized_cut == pytest.approx(1.25)
    # no feasible runs -> absent, rendered as '-'
    for rec in records:
        rec["metrics"]["feasible"] = False
    report = aggregate(records)
    assert report.rows[0].mean_normalized_cut is None
    assert "| - |" in render_markdown(report)


def test_emit_report_formats(tmp_path, plan_results):
    _, _, report = plan_results
    for fmt, names in (
        ("json", ["report.json"]),
        ("markdown", ["report.md"]),
        ("csv", ["report_rows.csv", "report_contingency.csv", "report_paired.csv"]),
    ):
        written = emit_report(report, fmt, tmp_path)
        assert [p.name for p in written] == names
        for p in written:
            assert p.exists()
    md = (tmp_path / "report.md").read_text()
    # four feasibility combinations per paired group
    assert md.count("| Y | Y |") == 1
    assert md.count("| x | x |") == 1
    with pytest.raises(ValueError):
        emit_report(report, "yaml", tmp_path)


def test_runs_and_history_csv(tmp_path, plan_results):
    _, records, _ = plan_results
    runs = tmp_path / "runs.csv"
    hist = tmp_path / "history.csv"
    write_runs_csv(records, runs)
    write_history_csv(records, hist)
    lines = runs.read_text().strip().splitlines()
    assert len(lines) == 1 + len(records)
    header = hist.read_text().splitlines()[0]
    assert header == "label,c,seed,iter,alpha,loss,binarization,minus_count"
    assert len(hist.read_text().strip().splitlines()) > 1


def test_truncated_records_file_names_the_line(tmp_path, plan_results):
    path, _, _ = plan_results
    lines = path.read_text().splitlines(keepends=True)
    cut = tmp_path / "killed.jsonl"
    cut.write_text(lines[0] + lines[1][:300])  # a campaign killed mid-write
    with pytest.raises(ValueError, match=r"killed\.jsonl, line 2"):
        read_records(cut)


def test_replay_reproduces_outcome_bit_identically(plan_results):
    _, records, _ = plan_results
    for rec in records:
        out = replay_record(rec)
        assert out.z.tolist() == rec["outcome"]["z"]
        assert out.soft.tolist() == rec["outcome"]["soft"]
        assert out.theta_final.tolist() == rec["outcome"]["theta_final"]
        assert out.cut == rec["outcome"]["cut"]
        assert out.final_alpha == rec["outcome"]["final_alpha"]
        assert out.inner_evals == rec["outcome"]["inner_evals"]
        assert out.loss_final == rec["outcome"]["loss_final"]


def test_committed_records_replay_bit_identically():
    records = read_records(V0_1_0_RECORDS)
    assert len(records) == 4
    for rec in records:
        out = replay_record(rec)
        assert out.z.tolist() == rec["outcome"]["z"]
        assert out.soft.tolist() == rec["outcome"]["soft"]
        assert out.theta_final.tolist() == rec["outcome"]["theta_final"]
        assert out.loss_final == rec["outcome"]["loss_final"]
        assert out.inner_evals == rec["outcome"]["inner_evals"]
        assert out.final_alpha == rec["outcome"]["final_alpha"]


def test_committed_records_are_what_small_plan_writes(plan_results):
    # compared as JSON text, so the key order of the schema counts too
    strip = lambda recs: [
        json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}) for r in recs
    ]
    path, _, _ = plan_results
    assert strip(read_records(path)) == strip(read_records(V0_2_0_RECORDS))


def test_committed_records_differ_only_in_version_and_numerics():
    # wall_time_s is a timing, which no two runs share
    def strip(rec):
        rec = {k: v for k, v in rec.items() if k not in ("artifact_version", "wall_time_s")}
        rec["config"] = {k: v for k, v in rec["config"].items() if k != "numerics"}
        return json.dumps(rec)

    old, new = read_records(V0_1_0_RECORDS), read_records(V0_2_0_RECORDS)
    assert [r["artifact_version"] for r in old] == ["0.1.0"] * 4
    assert [r["artifact_version"] for r in new] == ["0.2.0"] * 4
    assert all("numerics" not in r["config"] for r in old)
    assert [strip(r) for r in old] == [strip(r) for r in new]


def test_records_carry_the_numerics_they_ran(plan_results):
    _, records, _ = plan_results
    for rec in records:
        assert rec["config"]["numerics"] == numerics(rec["config"]["encoding"]["m"])
    assert records[0]["config"]["numerics"] == "prepare=kron;kernel=perm"


def test_replay_refuses_a_v0_1_0_record_whose_path_moved():
    # n in [51, 105] puts the register at m=7, which 0.1.0 prepared on the
    # kron path and this code prepares on the sweep
    plan = small_plan(
        graph=GraphSource(kind="generate", n=60),
        repetitions=1,
        solvers=(SolverSpec(label="fixed", mode="fixed", alpha=3.0,
                            optimizer=OptimizerConfig(max_evals=60)),),
        baseline_method="sa",
    )
    (rec,), _ = run_plan(plan)
    assert rec["config"]["encoding"]["m"] == 7
    assert rec["config"]["numerics"] == "prepare=sweep;kernel=perm"
    assert replay_record(rec).theta_final.tolist() == rec["outcome"]["theta_final"]
    del rec["config"]["numerics"]
    rec["artifact_version"] = "0.1.0"
    with pytest.raises(ValueError, match=r"numerics 'prepare=kron;kernel=perm', "
                                         r"but this code runs 'prepare=sweep;kernel=perm' at m=7"):
        replay_record(rec)


def test_replay_refuses_an_edited_numerics_tag():
    rec = read_records(V0_2_0_RECORDS)[0]
    rec["config"]["numerics"] = "prepare=sweep;kernel=wht"
    with pytest.raises(ValueError, match=r"numerics 'prepare=sweep;kernel=wht', "
                                         r"but this code runs 'prepare=kron;kernel=perm' at m=3"):
        replay_record(rec)


def test_untagged_config_above_m7_is_taken_to_have_run_the_perm_kernel():
    graph = generate_complete_graph(250)  # m=9
    d = config_to_dict(default_config(graph, 2))
    assert d.pop("numerics") == "prepare=sweep;kernel=wht"
    with pytest.raises(ValueError, match="numerics 'prepare=sweep;kernel=perm', "
                                         "but this code runs 'prepare=sweep;kernel=wht' at m=9"):
        config_from_dict(d, graph)


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "x_tol", 1e-3),
    ("optimizer", "method", "bfgs"),
    ("encoding", "permute_seed", 5),
])
def test_replay_refuses_other_fixed_values(section, key, value):
    rec = read_records(V0_1_0_RECORDS)[0]
    rec["config"][section][key] = value
    with pytest.raises(ValueError, match=f"{section}.{key}={value!r}"):
        replay_record(rec)


def test_replay_after_json_round_trip(plan_results):
    _, records, _ = plan_results
    rec = json.loads(json.dumps(records[0]))
    out = replay_record(rec)
    assert out.theta_final.tolist() == rec["outcome"]["theta_final"]


def test_failure_records_keep_plan_running():
    # an impossible fixed solver (alpha missing) dies at SolverSpec build time,
    # so break it at run time instead: file source pointing nowhere
    plan = small_plan(
        graph=GraphSource(kind="generate", n=6),
        solvers=(
            SolverSpec(label="ok", mode="iterative", optimizer=FAST),
            SolverSpec(label="boom", mode="fixed", alpha=-5.0),  # invalid alpha
        ),
        repetitions=1,
    )
    records, report = run_plan(plan)
    assert len(report.failures) == 1
    assert "alpha" in report.failures[0]["error"]
    frames = [line for line in report.failures[0]["traceback"].splitlines()
              if line.lstrip().startswith("File ")]
    # the innermost frame is the check that raised
    assert "objective.py" in frames[-1] and "__post_init__" in frames[-1]
    ok = [r for r in records if "error" not in r]
    assert len(ok) == 1 and ok[0]["label"] == "ok"
    md = render_markdown(report)
    assert "Failures: 1" in md


def test_workers_produce_identical_records(tmp_path):
    plan1 = small_plan(repetitions=2)
    plan2 = small_plan(repetitions=2, workers=2)
    r1, _ = run_plan(plan1)
    r2, _ = run_plan(plan2)
    strip = lambda recs: [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in recs
    ]
    assert strip(r1) == strip(r2)


def test_plan_without_solvers_is_refused():
    with pytest.raises(ValueError, match="no solvers"):
        small_plan(solvers=())


def test_plan_resolves_default_c_values():
    plan = small_plan(c_values=None)
    assert plan.resolve_c_values(6) == (2, 3)
    assert plan.resolve_c_values(14) == (2, 3, 4, 5, 6, 7)
    with pytest.raises(ValueError):
        small_plan(c_values=(4,)).resolve_c_values(6)


def test_graph_source_round_trip():
    src = GraphSource(kind="generate", n=6, weights="unit", seed=0)
    g = src.load()
    d = src.to_dict(g)
    assert d["hash"] and d["nodes"] == 6
    assert GraphSource.from_dict(d).load() == g


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec(label="f", mode="fixed")  # alpha missing
    with pytest.raises(ValueError):
        SolverSpec(label="f", mode="fixed", alpha=2.0, paired_control=True)
    with pytest.raises(ValueError):
        SolverSpec(label="f", mode="sideways")
