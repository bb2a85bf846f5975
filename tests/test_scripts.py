"""The scripts under ``scripts/`` run end to end as subprocesses."""

import hashlib
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
DIGEST_MATRIX = REPO / "scripts" / "digest_matrix.py"
STEP_COST = REPO / "scripts" / "step_cost.py"
LOC = REPO / "scripts" / "loc.py"


def run_script(script: Path, *argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(bpac.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(script), *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def run_regret_study(*argv: str) -> subprocess.CompletedProcess:
    return run_script(REGRET_STUDY, *argv)


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


# A slice of the digest matrix that touches every family of cases (serial
# runs of each method, engine.step, mc_safety under both criteria, the
# pinned study, regret_harness and a CLI run) in about 2 s, and the sha256
# of the JSON it writes. A change that moves any output moves it. The G=10001
# step cases reach a single run's capped prefix, and the lanes case the
# rows kernel on a grid wider than one point, with its final accounts.
MATRIX_SLICE = ("run/*/two_stage/easy_hard/G101", "step/*/G101", "mc/bpac/*/R5",
                "pinned/two_segment/*", "regret/two_segment/*", "cli/replay*",
                "step/*/G10001", "lanes/fixed_sequence/adaptive/R5/G1001")
MATRIX_SLICE_CASES = 24
MATRIX_SLICE_DIGEST = "409b9e2ccb5a94ac45f9e984de8c4ccfd31e61f8eda89e2764d64b8a288f1d26"


def test_digest_matrix_slice_is_pinned(tmp_path):
    out = tmp_path / "slice.json"
    run = run_script(DIGEST_MATRIX, *(f"--only={glob}" for glob in MATRIX_SLICE),
                     "--out", str(out))
    assert run.returncode == 0, run.stderr
    assert (run.stdout, run.stderr) == ("", "")
    text = out.read_text()
    assert len(json.loads(text)) == MATRIX_SLICE_CASES
    assert hashlib.sha256(text.encode()).hexdigest() == MATRIX_SLICE_DIGEST


def test_digest_matrix_lists_the_cases_that_differ(tmp_path):
    """``--against`` names each case whose digest differs and each case one
    side lacks, and exits 1; against itself it exits 0."""
    ours = tmp_path / "ours.json"
    assert run_script(DIGEST_MATRIX, "--only=cli/mc-safety*", "--out", str(ours)).returncode == 0
    digests = json.loads(ours.read_text())
    assert list(digests) == ["cli/mc-safety --horizon 60 --n-reps 3"]
    same = run_script(DIGEST_MATRIX, "--only=cli/mc-safety*", "--against", str(ours))
    assert same.returncode == 0
    assert json.loads(same.stdout) == digests
    assert same.stderr == "0 of 1 cases differ\n"

    theirs = tmp_path / "theirs.json"
    theirs.write_text(json.dumps({"cli/mc-safety --horizon 60 --n-reps 3": "0" * 64,
                                  "cli/mc-safety --horizon 61": "1" * 64,
                                  "run/not/in/the/slice": "2" * 64}))
    differ = run_script(DIGEST_MATRIX, "--only=cli/mc-safety*", "--against", str(theirs))
    assert differ.returncode == 1
    assert differ.stderr.splitlines() == ["differs: cli/mc-safety --horizon 60 --n-reps 3",
                                          "only there: cli/mc-safety --horizon 61",
                                          "2 of 2 cases differ"]


def test_digest_matrix_refuses_a_glob_that_matches_nothing():
    run = run_script(DIGEST_MATRIX, "--only=nothing/*")
    assert run.returncode == 2
    assert run.stdout == ""
    assert "no case matches" in run.stderr


def test_step_cost_times_both_trees():
    """A small run prints the header and one line per grid, with this tree,
    the ``--against`` tree and their ratio."""
    src = str(Path(bpac.__file__).resolve().parents[1])
    run = run_script(STEP_COST, "--grids=11,101", "--events=30", "--rounds=1", "--repeat=1",
                     "--against", src)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == ("engine.step CPU time per call: 30 easy_hard events, "
                        "best of 1 rounds of best-of-1")
    assert lines[1].split() == ["G", "this", "against", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["11", "101"]
    assert all(row[2] == row[4] == "us" and float(row[1]) > 0 and float(row[5]) > 0
               for row in rows)


@pytest.mark.parametrize("flags", [("--grids", "1"), ("--events", "0"), ("--repeat", "x"),
                                   ("--against", "nowhere")],
                         ids=["grid", "events", "repeat", "against"])
def test_step_cost_refuses_bad_input(flags):
    run = run_script(STEP_COST, *flags)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "Traceback" not in run.stderr


def test_loc_counts_code_lines_and_their_change(tmp_path):
    """Blank lines, comments and docstrings are not code; a multi-line
    string that is not a docstring is. A module only one tree has counts 0
    in the other."""
    here, there = tmp_path / "here", tmp_path / "there"
    for tree in (here, there):
        (tree / "pkg").mkdir(parents=True)
    (here / "pkg" / "mod.py").write_text(
        '"""Module docstring,\non two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """Function docstring."""\n'
        '    return """two\n'
        'lines"""\n')
    (there / "pkg" / "mod.py").write_text("X = 1\n")
    (there / "pkg" / "gone.py").write_text("A = 1\nB = 2\n")

    alone = run_script(LOC, "pkg", cwd=here)
    assert alone.returncode == 0, alone.stderr
    assert alone.stdout.splitlines() == ["      4  pkg/mod.py", "      4  total"]

    against = run_script(LOC, "pkg", "--against", str(there), cwd=here)
    assert against.returncode == 0, against.stderr
    assert [line.split() for line in against.stdout.splitlines()] == [
        ["against", "here", "change", "file"],
        ["2", "0", "-2", "pkg/gone.py"],
        ["1", "4", "+3", "pkg/mod.py"],
        ["3", "4", "+1", "total"]]

    missing = run_script(LOC, "nowhere", cwd=here)
    assert (missing.returncode, missing.stdout) == (2, "")


def test_loc_reads_one_file_and_refuses_an_against_that_is_no_directory(tmp_path):
    (tmp_path / "one.py").write_text("A = 1\n\nB = 2  # two\n")
    one = run_script(LOC, "one.py", cwd=tmp_path)
    assert one.returncode == 0, one.stderr
    assert one.stdout.splitlines() == ["      2  one.py", "      2  total"]

    refused = run_script(LOC, "one.py", "--against", "one.py", cwd=tmp_path)
    assert (refused.returncode, refused.stdout) == (2, "")
    assert "not a directory" in refused.stderr
