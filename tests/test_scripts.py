"""The scripts under ``scripts/`` run end to end as subprocesses."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bpac
from bpac.engine import AccountTable
from bpac.simulation import (LinearLoss, StreamSegment, SyntheticStreamSpec, UniformScore,
                             spec_to_dict)

REPO = Path(__file__).resolve().parents[1]
REGRET_STUDY = REPO / "scripts" / "regret_study.py"


def run_regret_study(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(bpac.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(REGRET_STUDY), *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_regret_study_prints_its_table():
    out = run_regret_study("--n-streams", "3", "--horizons", "50,200")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "u=0.3 rho=0.3 streams=3"
    assert lines[1].split()[:3] == ["T", "mean", "regret"]
    assert [line.split()[0] for line in lines[2:4]] == ["50", "200"]
    assert lines[4].startswith("growth ratio regret(200)/regret(50) = ")


@pytest.mark.parametrize("flags", [
    ("--threshold", "nan"),
    ("--epsilon", "5"),
    ("--rho", "0"),
    ("--cap", "1.5"),
    ("--n-streams", "0"),
    ("--horizons", "0,50"),
    ("--horizons", "abc"),
    ("--horizons=-5,50",),
    ("--horizons", "1,50"),
], ids=["threshold", "epsilon", "rho", "cap", "streams", "horizon_0", "horizon_text",
        "horizon_negative", "horizon_1"])
def test_regret_study_refuses_bad_input(flags):
    out = run_regret_study("--horizons", "50,200", *flags)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_regret_study_refuses_a_horizon_past_its_stream_before_settling(
        tmp_path, monkeypatch, capsys):
    """A spec file of 100 steps and a largest horizon of 200 exit 2 with the
    reason, and no account is settled first. Run in process, so the
    settlements can be counted."""
    spec = SyntheticStreamSpec(segments=(StreamSegment(length=100, score=UniformScore(),
                                                       loss=LinearLoss()),),
                               name="short")
    spec_file = tmp_path / "short.json"
    spec_file.write_text(json.dumps(spec_to_dict(spec)))
    settled, settle = [], AccountTable.settle
    monkeypatch.setattr(AccountTable, "settle",
                        lambda table, *args: settled.append(args) or settle(table, *args))
    monkeypatch.setattr(sys, "argv", [str(REGRET_STUDY), "--spec", str(spec_file),
                                      "--n-streams", "5", "--horizons", "50,200"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(REGRET_STUDY), run_name="__main__")
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "horizon 200 exceeds the stream's total length 100" in out.err
    assert settled == []
