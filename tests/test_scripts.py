"""Smoke runs of the sweep drivers in scripts/, in-process and tiny."""

import runpy
import sys
from pathlib import Path

import pytest

from pce_mincut.harness import read_records

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, size_flag", [
    ("alpha_sweep.py", "--n"),
    ("iterative_benchmark.py", "--sizes"),
    ("regularization_sweep.py", "--n"),
])
def test_script_writes_records(script, size_flag, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        script, size_flag, "4", "--reps", "1", "--max-evals", "200",
        "--workers", "1", "--out", str(tmp_path),
    ])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    records = list(tmp_path.rglob("records.jsonl"))
    assert len(records) == 1
    assert read_records(records[0])
