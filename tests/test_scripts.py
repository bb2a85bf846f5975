"""The scripts under ``scripts/`` run end to end as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpac

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
