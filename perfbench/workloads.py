"""The benchmark's workloads, each built from one integer seed.

Every workload is one serial process. ``setup`` runs in a fresh
interpreter and writes the inputs; ``load`` reads them back in the
measuring process without timing; ``unit`` is one timed repetition of
the workload's unit of work and returns its own correctness problems.
Repetitions of a unit see identical inputs, so their digests must agree.
README.md says why each workload exists and which layers it isolates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bpac.cli
import bpac.engine
import bpac.simulation
import bpac.traces
from bpac.core import (RouterConfig, ThresholdGrid, config_to_dict, load_config,
                       validate_config)
from bpac.engine import LossGate, RouterState
from bpac.metrics import MetricAccumulator

clock = time.perf_counter


@dataclass
class Unit:
    """One timed repetition of a workload's unit of work."""

    seconds: float
    steps: int
    ops: int
    digest: str
    problems: list[str] = field(default_factory=list)
    latencies: array | None = None
    factor: float = 1.0  # calibration scale for this unit's window


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> tuple[str, dict[str, str]]:
    """Digest of every file under ``root``, by relative path."""
    files = {str(p.relative_to(root)): file_digest(p)
             for p in sorted(root.rglob("*")) if p.is_file()}
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest(), files


def decision_digest(coins, thresholds, propensities) -> str:
    h = hashlib.sha256()
    h.update(coins.tobytes())
    h.update(thresholds.tobytes())
    h.update(propensities.tobytes())
    return h.hexdigest()


def grid_config(n: int) -> RouterConfig:
    """Default router settings on an n-point grid over [0, 1]."""
    return validate_config(RouterConfig(grid=ThresholdGrid.from_step(step=1.0 / (n - 1))))


def draw_events(spec, seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [bpac.simulation.generate_event(spec, rng, t) for t in range(1, n + 1)]


def route(config: RouterConfig, events, seed: int, acc: MetricAccumulator | None = None):
    """Feed ``events`` to ``engine.step`` one call at a time.

    Returns per-decision latencies in seconds, the decision digest, and
    problems found: the coins must match the gate's access count.
    """
    step = bpac.engine.step
    state = RouterState.fresh(config, rng=seed)
    gate = LossGate()
    coins, thresholds, props = array("b"), array("d"), array("d")
    latencies = array("d")
    for obs in events:
        t0 = clock()
        decision, state = step(state, obs, gate)
        latencies.append(clock() - t0)
        if acc is not None:
            acc.update(decision, obs)
        coins.append(decision.coin)
        thresholds.append(decision.threshold_used)
        props.append(decision.propensity)
    problems = []
    if sum(coins) != gate.access_count:
        problems.append(f"{sum(coins)} coins but {gate.access_count} gate accesses")
    return latencies, decision_digest(coins, thresholds, props), problems


class Workload:
    name = ""
    operation = ""
    grid_size = 0
    unit_ops = 1
    probe_steps = 0

    def setup(self, workdir: Path, seed: int) -> dict:
        """Write the inputs; returns their digests and setup facts."""
        return {"inputs": {}}

    def load(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def unit(self) -> Unit:
        raise NotImplementedError

    def load_size(self) -> dict:
        raise NotImplementedError

    def after(self) -> tuple[str, list[str]]:
        """Untimed pass after measuring: the printed digest and its problems."""
        return "", []

    def probe(self):
        """Decision-latency probe run after each timed unit, or None.

        Batch workloads have no per-decision latency of their own, so
        they route ``probe_steps`` queries one ``engine.step`` call at a
        time at their own grid width; see ``route`` for what it returns.
        """
        if not self.probe_steps:
            return None
        return route(self.config, self.probe_events, self.seed)


class CoverageIID(Workload):
    """Serial ``mc_safety`` on the iid stream at the default grid."""

    name = "coverage_iid"
    operation = "replication"
    grid_size = 1001

    def __init__(self, n_reps: int = 5, horizon: int = 2000, probe_steps: int = 4000):
        self.n_reps, self.horizon, self.probe_steps = n_reps, horizon, probe_steps
        self.unit_ops = n_reps

    def load(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.config = validate_config(RouterConfig())
        self.spec = bpac.simulation.uniform_linear()
        self.probe_events = draw_events(self.spec, seed, self.probe_steps)
        self.violations = None

    def load_size(self) -> dict:
        return {"n_reps": self.n_reps, "T": self.horizon, "workers": 1}

    def unit(self) -> Unit:
        t0 = clock()
        report = bpac.simulation.mc_safety("bpac", self.config, self.spec, self.horizon,
                                           self.n_reps, base_seed=self.seed, workers=1)
        seconds = clock() - t0
        problems = []
        if not 0 <= report["violations"] <= self.n_reps:
            problems.append(f"violations {report['violations']} outside [0, {self.n_reps}]")
        self.violations = report["violations"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        return Unit(seconds, self.n_reps * self.horizon, self.n_reps, digest, problems)

    def after(self) -> tuple[str, list[str]]:
        """Rerun the same replications one by one for trajectory digests.

        ``mc_safety`` spawns one child seed per replication from the base
        seed; recounting violations here cross-checks its verdicts.
        """
        h = hashlib.sha256()
        violations = 0
        for ss in np.random.SeedSequence(self.seed).spawn(self.n_reps):
            traj = bpac.simulation.run_replication("bpac", self.config, self.spec,
                                                   self.horizon, ss)
            h.update(traj.digest().encode())
            violations += bool(np.any(traj.deploy_risk > self.config.epsilon))
        problems = []
        if self.violations is not None and violations != self.violations:
            problems.append(f"mc_safety counted {self.violations} violations, "
                            f"replications give {violations}")
        return h.hexdigest(), problems


class OnlineWide(Workload):
    """Replay a recorded trace one decision at a time on a wide grid."""

    name = "online_wide"
    operation = "decision"
    grid_size = 10001

    def __init__(self, rows: int = 20000):
        self.rows = self.unit_ops = rows

    def setup(self, workdir: Path, seed: int) -> dict:
        events = draw_events(bpac.simulation.uniform_linear(), seed, self.rows)
        path = workdir / "trace.csv"
        t0 = clock()
        bpac.traces.write_trace(path, events)
        return {"inputs": {"trace.csv": file_digest(path)},
                "traces.write_trace.busy_s": clock() - t0}

    def load(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.path = workdir / "trace.csv"
        self.config = grid_config(self.grid_size)

    def load_size(self) -> dict:
        return {"trace_rows": self.rows, "trace_bytes": self.path.stat().st_size}

    def unit(self) -> Unit:
        acc = MetricAccumulator()
        t0 = clock()
        events = bpac.traces.load_trace(self.path)
        latencies, digest, problems = route(self.config, events, self.seed, acc)
        seconds = clock() - t0
        if acc.t != self.rows or len(events) != self.rows:
            problems.append(f"{acc.t} decisions over {len(events)} rows, expected {self.rows}")
        return Unit(seconds, acc.t, acc.t, digest, problems, latencies)


class CompareNarrow(Workload):
    """``bpac compare`` in-process on the shifting stream, narrow grid."""

    name = "compare_narrow"
    operation = "command"
    grid_size = 101
    methods = 3

    def __init__(self, n_seeds: int = 3, horizon: int = 2000, probe_steps: int = 4000):
        self.n_seeds, self.horizon, self.probe_steps = n_seeds, horizon, probe_steps

    def setup(self, workdir: Path, seed: int) -> dict:
        path = workdir / "config.json"
        path.write_text(json.dumps(config_to_dict(grid_config(self.grid_size)),
                                   sort_keys=True))
        return {"inputs": {"config.json": file_digest(path)}}

    def load(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.config_path = workdir / "config.json"
        self.config = validate_config(load_config(self.config_path))
        self.probe_events = draw_events(bpac.simulation.easy_hard(), seed, self.probe_steps)
        self.out = workdir / "compare_out"
        seeds = np.random.SeedSequence(seed).generate_state(self.n_seeds)
        self.argv = ["compare", "--spec", "easy_hard", "--config", str(self.config_path),
                     "--horizon", str(self.horizon),
                     "--seeds", ",".join(str(int(s)) for s in seeds),
                     "--out", str(self.out)]

    def load_size(self) -> dict:
        return {"seeds": self.n_seeds, "T": self.horizon, "methods": self.methods}

    def unit(self) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        stdout = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(stdout):
            code = bpac.cli.main(self.argv)
        seconds = clock() - t0
        problems = []
        if code != 0:
            problems.append(f"compare exited with code {code}")
            return Unit(seconds, 0, 1, "", problems)
        digest, files = tree_digest(self.out)
        summary = json.loads((self.out / "compare_summary.json").read_text())
        for method, block in summary["methods"].items():
            for row in block["replications"]:
                if row["escalations"] != row["gate_accesses"]:
                    problems.append(f"{method} seed {row['seed']}: {row['escalations']} "
                                    f"escalations but {row['gate_accesses']} gate accesses")
        expected = self.methods * self.n_seeds + 2
        if len(files) != expected:
            problems.append(f"{len(files)} output files, expected {expected}")
        steps = self.methods * self.n_seeds * self.horizon
        return Unit(seconds, steps, 1, digest, problems)


WORKLOADS = {w.name: w for w in (CoverageIID, OnlineWide, CompareNarrow)}
