"""Spans recorded around calls into the bpac layers, kept in memory.

A traced run replaces the module and class attributes that bpac looks up
at call time (``bpac.simulation.step``, ``bpac.engine.update_account``,
``RiskTracker.absorb``, ...) with wrappers that record one span per call:
name, start, end, parent span and run id. The originals go back when the
``tracing`` context exits, even when the traced code raises. Nothing in
``src/bpac`` changes; the wrappers live only in this process.

Self time of a span is its duration minus the time its direct children
cover. Layer self times sum the self times of every span in the layer, so
``core``, which has no span of its own, is counted inside the self time
of ``engine.step``.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

import bpac.cli
import bpac.engine
import bpac.metrics
import bpac.simulation
import bpac.traces

LAYERS = ("engine", "simulation", "baselines", "metrics", "records", "traces", "cli")

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


class Recorder:
    """Columns of spans plus named counters, filled by the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, name: str, fn, probe=None):
        """``fn`` wrapped so that each call records one span.

        ``probe(counts, args, result)`` runs after a successful call and
        adds counters measured at the same boundary.
        """
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, runs, stack, counts = self.parent, self.run, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        """``fn`` wrapped so that each call only bumps counter ``name``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, factors=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        ``factors[r]``, when given, scales the times of the spans of run r.
        """
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            scale = factors[self.run[i]] if factors is not None else 1.0
            row = out[self.names[nid]]
            row["calls"] += 1
            row["busy_s"] += (self.end[i] - self.start[i]) * scale
            row["self_s"] += selfs[i] * scale
        return out

    def write(self, path: Path) -> None:
        """The spans of run 0 as CSV: id, name, start and end in seconds, parent, run.

        One run keeps the file to the size of one unit of work; the
        metrics come from every span held in memory.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for i, nid in enumerate(self.name):
                if self.run[i] == 0:
                    fh.write(f"{i},{self.names[nid]},{self.start[i]!r},{self.end[i]!r},"
                             f"{self.parent[i]},0\n")
        os.replace(tmp, path)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 at the top.
    """
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of percentile p among n samples."""
    # rounding first keeps 99.9% of 10000 at exactly 9990
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    None when even the median leaves fewer than ``beyond`` samples above.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if n - rank(p, n) >= beyond:
            best = p
    return best


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return float(sorted_values[rank(p, len(sorted_values)) - 1])


def _deploy_change(counts, args, result) -> None:
    decision, state = result
    if decision.threshold_used != state.deployed_threshold:
        counts["engine.deploy_changes"] += 1


def _file_bytes(counter: str):
    def probe(counts, args, result) -> None:
        counts[counter] += os.path.getsize(args[0])
    return probe


def _trace_rows(counts, args, result) -> None:
    counts["traces.load_trace.rows"] += len(result)
    counts["traces.load_trace.bytes"] += os.path.getsize(args[0])


def _targets():
    """(owner, attribute, span name or None for a counter, probe)."""
    engine, sim, cli = bpac.engine, bpac.simulation, bpac.cli
    return [
        # engine.step is looked up in the engine module by direct callers
        # and in the simulation module by `_drive`, which runs replications.
        (engine, "step", "engine.step", _deploy_change),
        (sim, "step", "engine.step", _deploy_change),
        (engine, "adaptive_lambda", "engine.adaptive_lambda", None),
        (engine, "update_account", "engine.update_account", None),
        (engine.LossGate, "observe", None, "engine.gate.accesses"),
        (sim, "mc_safety", "simulation.mc_safety", None),
        (sim, "run_replication", "simulation.run_replication", None),
        (cli, "run_replication", "simulation.run_replication", None),
        (sim, "generate_event", "simulation.generate_event", None),
        (sim, "oracle_risk_grid", "simulation.oracle_risk_grid", None),
        (sim.RiskTracker, "absorb", "simulation.RiskTracker.absorb", None),
        (sim, "naive_step", "baselines.naive_step", None),
        (sim, "hoeff_step", "baselines.hoeff_step", None),
        (bpac.metrics.MetricAccumulator, "update", "metrics.MetricAccumulator.update", None),
        (cli, "write_trajectory", "records.write_trajectory",
         _file_bytes("records.write_trajectory.bytes")),
        (cli, "write_summary_json", "records.write_summary_json", None),
        (bpac.traces, "load_trace", "traces.load_trace", _trace_rows),
        (cli, "load_trace", "traces.load_trace", _trace_rows),
        (cli, "main", "cli.main", None),
    ]


def wrapped_attributes() -> list[tuple[object, str]]:
    """Every (owner, attribute) a traced run replaces."""
    return [(owner, attr) for owner, attr, _, _ in _targets()]


@contextlib.contextmanager
def tracing(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, extra in _targets():
            original = vars(owner)[attr]
            if name is None:
                wrapper = recorder.count_wrapper(extra, original)
            else:
                wrapper = recorder.span_wrapper(name, original, extra)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
