import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pce_mincut.solver as solver_mod

from conftest import read_at_theta_final
from pce_mincut.graph import generate_complete_graph, write_graph
from pce_mincut.encoding import enumerate_strings
from pce_mincut.harness import (
    ExperimentPlan,
    GraphSource,
    SolverSpec,
    aggregate,
    config_from_dict,
    config_to_dict,
    emit_report,
    make_record,
    metric_epsilon_c,
    outcome_to_dict,
    read_records,
    render_markdown,
    replay_record,
    run_plan,
    write_history_csv,
    write_runs_csv,
)
from pce_mincut.optimize import OptimizerConfig, random_init
from pce_mincut.oracles import baseline_cut
from pce_mincut.quantum import ExpectationKernel, numerics, parameter_count, prepare_state
from pce_mincut.solver import (
    control_config,
    solve,
    solve_pce_at_final_alpha,
)

FAST = OptimizerConfig(max_evals=600)

# the records of small_plan() as versions 0.1.0, 0.2.0 and 0.3.0 of the
# package wrote them
V0_1_0_RECORDS = Path(__file__).parent / "data" / "records_v0_1_0.jsonl"
V0_2_0_RECORDS = Path(__file__).parent / "data" / "records_v0_2_0.jsonl"
V0_3_0_RECORDS = Path(__file__).parent / "data" / "records_v0_3_0.jsonl"
# one record per exit of the solve loop at n=6, c=2, seed 0, max_evals=400:
# finished, outer cap (max_outer_iters=3), alpha cap (alpha_cap=50), and a
# fixed run at alpha=30; written by version 0.2.0 before fixed runs and
# iterative runs shared one loop
EXIT_RECORDS = Path(__file__).parent / "data" / "records_exits_v0_2_0.jsonl"
# the same four runs as version 0.3.0 writes them, and a fifth at
# max_evals=600, max_outer_iters=1 and alpha_cap=4, whose one proposed alpha
# overflows the cap after the last inner run
EXIT_RECORDS_V0_3_0 = Path(__file__).parent / "data" / "records_exits_v0_3_0.jsonl"
# one fixed run each at m=7 (n=60) and m=8 (n=110), which prepare their
# states on the diagonal path; written by SPLIT_PLANS
DIAG_RECORDS = Path(__file__).parent / "data" / "records_diag_v0_2_0.jsonl"
# the same runs as SPLIT_PLANS wrote them when m >= 7 applied each column as
# U_hi (x) U_lo on the two register halves; this code refuses to replay them
SPLIT_RECORDS = Path(__file__).parent / "data" / "records_split_v0_2_0.jsonl"
# the report files of the records of V0_2_0_RECORDS and EXIT_RECORDS together,
# each committed as tests/data/<stem>_v0_2_0<suffix>
REPORT_FILES = ("report.md", "report.json", "report_rows.csv", "report_contingency.csv",
                "report_paired.csv", "runs.csv", "history.csv")


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


def split_plan(n):
    return small_plan(
        graph=GraphSource(kind="generate", n=n),
        repetitions=1,
        solvers=(SolverSpec(label="fixed", mode="fixed", alpha=3.0,
                            optimizer=OptimizerConfig(max_evals=60)),),
        baseline_method="sa",
    )


SPLIT_PLANS = (split_plan(60), split_plan(110))


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
                "wall_time_s": 0.0,
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
    _, records, report = plan_results
    emit_report(records, report, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "history.csv", "report.json", "report.md", "report_contingency.csv",
        "report_paired.csv", "report_rows.csv", "runs.csv",
    ]
    md = (tmp_path / "report.md").read_text()
    # four feasibility combinations per paired group
    assert md.count("| Y | Y |") == 1
    assert md.count("| x | x |") == 1


@pytest.mark.parametrize("name", REPORT_FILES)
def test_emit_report_writes_the_committed_report_json(tmp_path, name):
    records = read_records(V0_2_0_RECORDS) + read_records(EXIT_RECORDS)
    emit_report(records, aggregate(records), tmp_path)
    committed = Path(__file__).parent / "data" / f"{Path(name).stem}_v0_2_0{Path(name).suffix}"
    assert (tmp_path / name).read_bytes() == committed.read_bytes()


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
    cut.write_text(lines[0] + "[1, 2]\n")  # JSON, but no record
    with pytest.raises(ValueError, match=r"killed\.jsonl, line 2: .*a JSON list, not an object"):
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


@pytest.mark.parametrize("path, count", [
    (V0_1_0_RECORDS, 4), (V0_2_0_RECORDS, 4), (V0_3_0_RECORDS, 4), (EXIT_RECORDS_V0_3_0, 5),
    (DIAG_RECORDS, 2),
], ids=["v0_1_0", "v0_2_0", "v0_3_0", "exits_v0_3_0", "diag_v0_2_0"])
def test_committed_records_replay_bit_identically(path, count):
    records = read_records(path)
    assert len(records) == count
    for rec in records:
        # every outcome field: z, soft, theta_final, loss_final, evals,
        # final_alpha, outer_iters, capped and the history
        assert outcome_to_dict(replay_record(rec)) == rec["outcome"]


def test_v0_2_0_exit_records_replay_except_the_outer_cap():
    finished, outer_cap, alpha_cap, fixed = read_records(EXIT_RECORDS)
    for rec in (finished, alpha_cap, fixed):
        assert outcome_to_dict(replay_record(rec)) == rec["outcome"]
    # 0.2.0 reported the outer cap at the alpha proposed after its last inner run
    assert outer_cap["outcome"]["final_alpha"] > outer_cap["outcome"]["history"][-1]["alpha"]
    with pytest.raises(ValueError, match=r"^record stopped at the outer cap under version 0\.2\.0, "
                                         r".*from 0\.3\.0 the outcome is the last inner run's, "
                                         r"so it cannot be replayed$"):
        replay_record(outer_cap)
    # a record without its history cannot show which alpha ran, so it is refused too
    outer_cap["outcome"]["history"] = None
    with pytest.raises(ValueError, match="outer cap under version 0.2.0"):
        replay_record(outer_cap)


def test_exit_records_cover_every_exit_of_the_loop():
    records = read_records(EXIT_RECORDS_V0_3_0)
    finished, outer_cap, alpha_cap, fixed, last_overflow = records
    # the four runs of the 0.2.0 file, whose other exits replay unchanged
    for old, new in zip(read_records(EXIT_RECORDS), records):
        assert old["config"] == new["config"]
        assert (old["outcome"] == new["outcome"]) == (new is not outer_cap)
    out = finished["outcome"]
    assert out["outer_iters"] < finished["config"]["max_outer_iters"]
    assert not out["capped"] and finished["metrics"]["binarization"] == 1.0
    out = outer_cap["outcome"]
    assert out["outer_iters"] == outer_cap["config"]["max_outer_iters"] == 3
    assert not out["capped"]
    out = alpha_cap["outcome"]
    assert out["capped"] and out["final_alpha"] == 50.0
    # the alpha proposed after the one inner run overflows the cap, which no run used
    out = last_overflow["outcome"]
    assert out["outer_iters"] == last_overflow["config"]["max_outer_iters"] == 1
    assert not out["capped"] and out["final_alpha"] == 3.0 < last_overflow["config"]["alpha_cap"]
    # every iterative exit reports its last inner run
    for rec in (finished, outer_cap, alpha_cap, last_overflow):
        out = rec["outcome"]
        assert out["final_alpha"] == out["history"][-1]["alpha"]
        assert out["loss_final"] == out["history"][-1]["loss"]
    out = fixed["outcome"]
    assert out["history"] is None and out["outer_iters"] == 1
    assert out["final_alpha"] == fixed["config"]["objective"]["alpha"] == 30.0


def _json_without_wall_time(records):
    # compared as JSON text, so the key order of the schema counts too
    return [json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}) for r in records]


def _json_without_version(records):
    return _json_without_wall_time([{**r, "artifact_version": None} for r in records])


def test_committed_records_are_what_small_plan_writes(plan_results):
    path, _, _ = plan_results
    assert (_json_without_wall_time(read_records(path))
            == _json_without_wall_time(read_records(V0_3_0_RECORDS)))


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
    # none of these runs stops at the outer cap, so 0.3.0 changes only the version
    newest = read_records(V0_3_0_RECORDS)
    assert [r["artifact_version"] for r in newest] == ["0.3.0"] * 4
    assert _json_without_version(new) == _json_without_version(newest)


def test_records_carry_the_numerics_they_ran(plan_results):
    _, records, _ = plan_results
    for rec in records:
        assert rec["config"]["numerics"] == numerics(rec["config"]["encoding"]["m"])
    assert records[0]["config"]["numerics"] == "prepare=kron;kernel=perm"


def test_committed_diag_records_are_what_split_plans_write():
    written = [rec for plan in SPLIT_PLANS for rec in run_plan(plan)[0]]
    # no fixed run reaches the outer-cap rule that 0.3.0 changed, so only the version moved
    assert {r["artifact_version"] for r in written} == {"0.3.0"}
    assert _json_without_version(written) == _json_without_version(read_records(DIAG_RECORDS))
    assert [r["config"]["numerics"] for r in written] == [
        "prepare=diag;kernel=perm", "prepare=diag;kernel=wht"]


def test_replay_refuses_the_records_of_the_split_path():
    for rec, kernel in zip(read_records(SPLIT_RECORDS), ("perm", "wht")):
        m = rec["config"]["encoding"]["m"]
        with pytest.raises(ValueError, match=rf"numerics 'prepare=split;kernel={kernel}', but this "
                                             rf"code runs 'prepare=diag;kernel={kernel}' at m={m}; "
                                             r"it cannot be replayed$"):
            replay_record(rec)


def test_a_lockstep_plan_at_m8_replays_every_record():
    # three cells share each stacked call, and from m=8 the kernel returns
    # its stack in column-major order
    plan = small_plan(graph=GraphSource(kind="generate", n=150), c_values=(30,),
                      repetitions=3, baseline_method="sa",
                      solvers=(SolverSpec(label="fixed", mode="fixed", alpha=3.0,
                                          optimizer=OptimizerConfig(max_evals=300)),))
    records, report = run_plan(plan)
    assert not report.failures and len(records) == 3
    assert {r["config"]["encoding"]["m"] for r in records} == {8}
    for rec in records:
        assert outcome_to_dict(replay_record(rec)) == rec["outcome"]


def test_replay_refuses_a_record_whose_graph_file_changed(tmp_path):
    rec = read_records(V0_2_0_RECORDS)[0]
    path = tmp_path / "g.json"
    write_graph(generate_complete_graph(6, weights="uniform", seed=1), path)
    rec["graph"] = {"kind": "file", "path": str(path), "hash": rec["graph"]["hash"], "nodes": 6}
    with pytest.raises(ValueError, match=r"ran on graph 3f7b274ed31c1ee4, but its source "
                                         r"now loads graph [0-9a-f]{16}; it cannot be replayed"):
        replay_record(rec)


def test_replay_refuses_a_v0_1_0_record_whose_path_moved():
    # n in [51, 105] puts the register at m=7, which 0.1.0 prepared on the
    # kron path and this code prepares on the diagonal path
    rec = read_records(DIAG_RECORDS)[0]
    assert rec["config"]["encoding"]["m"] == 7
    del rec["config"]["numerics"]
    rec["artifact_version"] = "0.1.0"
    with pytest.raises(ValueError, match=r"numerics 'prepare=kron;kernel=perm', "
                                         r"but this code runs 'prepare=diag;kernel=perm' at m=7"):
        replay_record(rec)


def test_replay_refuses_a_record_that_ran_the_sweep():
    # 0.2.0 prepared m >= 7 qubit by qubit before the split path replaced it
    rec = read_records(DIAG_RECORDS)[0]
    rec["config"]["numerics"] = "prepare=sweep;kernel=perm"
    with pytest.raises(ValueError, match=r"numerics 'prepare=sweep;kernel=perm', "
                                         r"but this code runs 'prepare=diag;kernel=perm' at m=7"):
        replay_record(rec)


def test_replay_refuses_an_edited_numerics_tag():
    rec = read_records(V0_2_0_RECORDS)[0]
    rec["config"]["numerics"] = "prepare=sweep;kernel=wht"
    with pytest.raises(ValueError, match=r"numerics 'prepare=sweep;kernel=wht', "
                                         r"but this code runs 'prepare=kron;kernel=perm' at m=3"):
        replay_record(rec)


def test_untagged_config_above_m7_is_taken_to_have_run_the_perm_kernel():
    graph = generate_complete_graph(250)  # m=9
    d = config_to_dict(SolverSpec().config(graph, 2))
    assert d.pop("numerics") == "prepare=diag;kernel=wht"
    with pytest.raises(ValueError, match="numerics 'prepare=sweep;kernel=perm', "
                                         "but this code runs 'prepare=diag;kernel=wht' at m=9"):
        config_from_dict(d, graph)


def test_replay_refuses_an_edited_ansatz_tag():
    rec = read_records(V0_2_0_RECORDS)[0]
    rec["config"]["ansatz"] = "brickwork(ry+rz columns, cz bricks, qubit0=lsb)"
    with pytest.raises(ValueError, match=r"^record has ansatz='brickwork\(ry\+rz columns, cz "
                                         r"bricks, qubit0=lsb\)', but this code runs ansatz="
                                         r"'brickwork\(ry\+rz columns, cz bricks, qubit0=msb\)'; "
                                         r"it cannot be replayed$"):
        replay_record(rec)
    del rec["config"]["ansatz"]
    with pytest.raises(ValueError, match="^record has ansatz=None, but this code runs"):
        replay_record(rec)


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "x_tol", 1e-3),
    ("optimizer", "method", "bfgs"),
    ("encoding", "permute_seed", 5),
    ("encoding", "family", "single_pauli"),
    # a full_xyz record written with pauli X ran the same strings, and is refused all the same
    ("encoding", "pauli", "X"),
    ("encoding", "k_range", [1, 2]),
])
def test_replay_refuses_other_fixed_values(section, key, value):
    rec = read_records(V0_1_0_RECORDS)[0]
    rec["config"][section][key] = value
    with pytest.raises(ValueError, match=re.escape(f"{section}.{key}={value!r}")):
        replay_record(rec)


def test_replay_after_json_round_trip(plan_results):
    _, records, _ = plan_results
    rec = json.loads(json.dumps(records[0]))
    out = replay_record(rec)
    assert out.theta_final.tolist() == rec["outcome"]["theta_final"]


def test_failure_records_keep_plan_running(monkeypatch):
    # a bad setting is refused before the plan runs, so break the boom
    # solver at run time instead: its loss (the only one at beta=7) is NaN
    real_loss = solver_mod.loss

    def loss(spec, e):
        values = real_loss(spec, e)
        if np.ndim(e) == 1:  # a job that waits alone on its ansatz
            return math.nan if spec.beta == 7.0 else values
        return [math.nan if s.beta == 7.0 else v for s, v in zip(spec, values)]

    monkeypatch.setattr(solver_mod, "loss", loss)
    plan = small_plan(
        graph=GraphSource(kind="generate", n=6),
        solvers=(
            SolverSpec(label="ok", mode="iterative", optimizer=FAST),
            SolverSpec(label="boom", mode="fixed", alpha=5.0, beta=7.0),
        ),
        repetitions=1,
    )
    records, report = run_plan(plan)
    assert len(report.failures) == 1
    assert "non-finite" in report.failures[0]["error"]
    frames = [line for line in report.failures[0]["traceback"].splitlines()
              if line.lstrip().startswith("File ")]
    # the innermost frame is the check that raised: nelder_mead's evaluation f
    assert "optimize.py" in frames[-1] and frames[-1].endswith(" in f")
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


@pytest.mark.parametrize("solvers, label", [
    ((SolverSpec(paired_control=True), SolverSpec(paired_control=True, eta=5.0)), "iterative"),
    ((SolverSpec(paired_control=True),
      SolverSpec(label="iterative-control", mode="fixed", alpha=5.0)), "iterative-control"),
], ids=["repeated", "control-label"])
def test_plan_refuses_two_solvers_with_one_label(solvers, label):
    # the report would merge their rows, and count half of their pairs
    with pytest.raises(ValueError, match=f"two solvers of the plan label their runs '{label}'"):
        small_plan(solvers=solvers)


@pytest.mark.parametrize("c_values, message", [
    ((2, 3, 2), "the plan lists c=2 more than once"), ((), "plan has no c values"),
    ((2.7,), "c values must be integers, got 2.7"), ((True,), "c values must be integers, got True"),
    (("2",), "c values must be integers, got '2'"),
], ids=["repeated", "empty", "float", "bool", "string"])
def test_plan_refuses_repeated_or_no_c_values(c_values, message):
    # two runs of one c would share a pair_id, and the report would count one
    # pair; int() would run 2.7 as c=2 and True as c=1
    with pytest.raises(ValueError, match=message):
        small_plan(c_values=c_values)


def test_a_paired_label_ending_in_control_keeps_its_pairs():
    records = read_records(V0_2_0_RECORDS)
    for rec in records:
        rec["label"] = rec["label"].replace("iterative", "a-control")
    (want,) = aggregate(read_records(V0_2_0_RECORDS)).contingency
    (got,) = aggregate(records).contingency
    assert got.solver == "a-control" and got.pairs == want.pairs > 0


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
    with pytest.raises(ValueError, match="alpha0"):
        SolverSpec(label="i", mode="iterative", alpha=50.0)


# two encodings at n=6 (k=2 on m=3, k=3 on m=4), so the lockstep driver
# serves two groups per step, each with paired controls
LOCKSTEP_SOLVERS = (
    SolverSpec(label="xyz", paired_control=True, optimizer=FAST),
    SolverSpec(label="k3", k=3, paired_control=True, optimizer=FAST),
)
LOCKSTEP_KW = dict(c_values=(2, 3), repetitions=2, solvers=LOCKSTEP_SOLVERS)


def _strip(records):
    return [json.dumps({k: v for k, v in r.items() if k != "wall_time_s"}) for r in records]


@pytest.fixture(scope="module")
def sequential_lockstep_records():
    """The records of the lockstep plan, each cell run alone through solve."""
    plan = small_plan(**LOCKSTEP_KW)
    g = plan.graph.load()
    records = []
    for spec in plan.solvers:
        for c in plan.c_values:
            baseline = baseline_cut(g, c, method="exhaustive")
            for rep in range(plan.repetitions):
                cfg = SolverSpec(k=spec.k, optimizer=FAST).config(g, c, 1000 * c + rep)
                pair_id = f"{spec.label}-c{c}-r{rep}"
                out = solve(cfg)
                ctrl = solve_pce_at_final_alpha(out, cfg)
                records.append(make_record(cfg, out, plan.graph.to_dict(g), spec.label,
                                           pair_id, baseline, 0.0))
                records.append(make_record(control_config(out, cfg), ctrl,
                                           plan.graph.to_dict(g), f"{spec.label}-control",
                                           pair_id, baseline, 0.0))
    return records


@pytest.mark.parametrize("workers", [1, 2])
def test_lockstep_plan_writes_the_records_of_sequential_runs(
        workers, sequential_lockstep_records, tmp_path):
    path = tmp_path / "records.jsonl"
    records, report = run_plan(small_plan(**LOCKSTEP_KW, workers=workers), records_path=path)
    assert not report.failures
    assert _strip(records) == _strip(sequential_lockstep_records)
    assert _strip(read_records(path)) == _strip(records)
    assert all(r["wall_time_s"] > 0 for r in records)


def test_lockstep_runs_are_read_at_theta_final():
    plan = small_plan(**LOCKSTEP_KW)
    g = plan.graph.load()
    records, report = run_plan(plan)
    assert not report.failures
    for rec in records:
        out = rec["outcome"]
        z, soft = read_at_theta_final(config_from_dict(rec["config"], g),
                                      np.array(out["theta_final"]), out["final_alpha"])
        assert z.tolist() == out["z"]
        assert soft.tolist() == out["soft"]


def test_a_failing_run_gives_its_error_record_in_place(
        sequential_lockstep_records, monkeypatch):
    # NaN at the first evaluation of the xyz run with seed 2001 (c=2, rep=1):
    # its start angles give expectations no other run evaluates
    g = small_plan().graph.load()
    enc = SolverSpec().config(g, 2).objective.encoding
    e0 = ExpectationKernel(enumerate_strings(enc))(
        prepare_state(enc.m, random_init(parameter_count(enc.m), 2001)))
    real_loss = solver_mod.loss

    def loss(spec, e):
        values = real_loss(spec, e)
        if np.ndim(e) == 1:  # a job that waits alone on its ansatz
            return math.nan if np.array_equal(e, e0) else values
        return [math.nan if np.array_equal(row, e0) else v for row, v in zip(e, values)]

    monkeypatch.setattr(solver_mod, "loss", loss)
    records, report = run_plan(small_plan(**LOCKSTEP_KW))
    (failure,) = report.failures
    assert failure is records[2]
    assert failure["error"].startswith("EvaluationError")
    assert (failure["label"], failure["c"], failure["rep"]) == ("xyz", 2, 1)
    assert "nelder_mead" in failure["traceback"]
    want = sequential_lockstep_records
    assert _strip(records[:2] + records[3:]) == _strip(want[:2] + want[4:])
    assert all(r["wall_time_s"] > 0 for r in records if "error" not in r)


def test_a_plan_prepares_one_state_per_evaluation(prepared_rows):
    records, report = run_plan(small_plan())
    assert not report.failures and len(records) == 4
    assert max(prepared_rows) > 1  # the cells shared stacked calls
    assert sum(prepared_rows) == sum(r["outcome"]["inner_evals"] for r in records)


def test_a_cell_is_written_as_it_ends(prepared_rows, tmp_path):
    # small_plan's cells share one ansatz, so each lockstep step prepares
    # states once; at the first record fewer steps than the plan's have run
    path = tmp_path / "records.jsonl"
    arrivals = []

    def progress(rec):
        arrivals.append((len(prepared_rows), json.dumps(rec) in path.read_text().splitlines()))

    records, report = run_plan(small_plan(), records_path=path, progress=progress)
    assert not report.failures and len(arrivals) == len(records) == 4
    assert all(on_disk for _, on_disk in arrivals)
    assert arrivals[0][0] < len(prepared_rows)
    # the finished file holds the returned records, in cell order
    assert path.read_text() == "".join(json.dumps(rec) + "\n" for rec in records)


def test_a_failing_batched_call_fails_only_the_cells_it_served(
        sequential_lockstep_records, monkeypatch):
    real_prepare = solver_mod.prepare_state

    def prepare_state(m, theta, layers=1):
        if m == 4:  # the k3 cells' register
            raise RuntimeError("no m=4 states")
        return real_prepare(m, theta, layers)

    monkeypatch.setattr(solver_mod, "prepare_state", prepare_state)
    records, report = run_plan(small_plan(**LOCKSTEP_KW))
    assert _strip(records[:8]) == _strip(sequential_lockstep_records[:8])
    assert records[8:] == report.failures
    assert [(r["label"], r["c"], r["rep"]) for r in report.failures] == [
        ("k3", c, rep) for c in (2, 3) for rep in (0, 1)]
    assert all(r["error"] == "RuntimeError: no m=4 states" for r in report.failures)
