"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q

They run the workloads at toy sizes, so they take a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_nests_spans_and_self_times_add_up():
    rec = spans.Recorder()
    inner = rec.span_wrapper("m.inner", lambda: sum(range(1000)))
    outer = rec.span_wrapper("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    assert list(rec.parent) == [-1, 0, 0, 0, -1, 4, 4, 4]
    summary = rec.summary()
    assert summary["m.outer"]["calls"] == 2
    assert summary["m.inner"]["calls"] == 6
    total_self = summary["m.outer"]["self_s"] + summary["m.inner"]["self_s"]
    assert total_self == pytest.approx(summary["m.outer"]["busy_s"], rel=1e-9)
    assert summary["m.inner"]["self_s"] == pytest.approx(summary["m.inner"]["busy_s"])


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_supported_rung():
    for n in range(1, 3000, 7):
        p = spans.tail_percentile(n)
        higher = [q for q in spans.PERCENTILE_LADDER if p is None or q > p]
        if p is not None:
            assert n - spans.rank(p, n) >= 10
        assert all(n - spans.rank(q, n) < 10 for q in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50.0) == 50
    assert spans.percentile(values, 99.0) == 99
    assert spans.percentile(values, 99.9) == 100


TOY = [
    lambda: workloads.CoverageIID(n_reps=2, horizon=150, probe_steps=50),
    lambda: workloads.OnlineWide(rows=150),
    lambda: workloads.CompareNarrow(n_seeds=1, horizon=150, probe_steps=50),
]


@pytest.mark.parametrize("make", TOY, ids=["coverage_iid", "online_wide", "compare_narrow"])
def test_traced_unit_matches_untraced_and_wrappers_are_restored(make, tmp_path):
    originals = {(id(owner), attr): vars(owner)[attr]
                 for owner, attr in spans.wrapped_attributes()}
    workload = make()
    workload.setup(tmp_path, 3)
    workload.load(tmp_path, 3)
    plain = workload.unit()
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        traced = workload.unit()
    after = workload.unit()

    assert plain.problems == traced.problems == after.problems == []
    assert plain.digest == traced.digest == after.digest
    if workload.probe_steps:
        latencies, _, problems = workload.probe()
        assert len(latencies) == workload.probe_steps and problems == []
    assert recorder.summary()["engine.step"]["calls"] > 0
    for owner, attr in spans.wrapped_attributes():
        assert vars(owner)[attr] is originals[(id(owner), attr)]


def test_wrappers_are_restored_when_the_traced_code_raises():
    originals = [vars(owner)[attr] for owner, attr in spans.wrapped_attributes()]
    with pytest.raises(RuntimeError):
        with spans.tracing(spans.Recorder()):
            raise RuntimeError("boom")
    assert [vars(owner)[attr] for owner, attr in spans.wrapped_attributes()] == originals
