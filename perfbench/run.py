#!/usr/bin/env python3
"""Benchmark for bpac: one workload, one seed, one run.

    python3 perfbench/run.py --workload coverage_iid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; bpac is imported from ``src/``.
The run sets up its inputs several times in fresh interpreters, repeats
the workload's timed unit for ``--seconds``, checks every output, and
prints notes as ``#`` lines, then one JSON line with the result. With
``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans of its first traced unit go to ``.perfbench/spans/<workload>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3
DECIDE_WINDOW = 2000


def import_checkout() -> None:
    """Import bpac from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import bpac
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bpac from {SRC}: {exc}") from None
    if Path(bpac.__file__).resolve().parent != (SRC / "bpac").resolve():
        raise SystemExit(f"perfbench: bpac came from {bpac.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, default=None,
                        help="write the workload's inputs into this directory and exit")
    return parser.parse_args(argv)


def note(key: str, value) -> None:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    print(f"# {key} {text}", flush=True)


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def run_setups(args, workdir: Path,
               calib: Calibration) -> tuple[list[float], list[dict], list[str]]:
    """Set up ``SETUPS`` times, each in a fresh interpreter; calibrated times.

    A fresh interpreter counts import-time work as set-up. Every set-up
    must write byte-identical inputs.
    """
    times, facts, problems = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-into", str(workdir)]
    calib.mark()
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        facts.append(json.loads(proc.stdout.splitlines()[-1]))
        times.append(seconds * calib.mark())
    if any(f["inputs"] != facts[0]["inputs"] for f in facts):
        problems.append("set-ups wrote different inputs from one seed")
    return times, facts, problems


def measure(workload, seconds: float, calib: Calibration, recorder=None,
            probe: bool = False) -> list:
    """Repeat the workload's unit until ``seconds`` have passed (at least once).

    With ``probe``, a batch workload's decision probe follows each unit in
    the same calibration window, and must give the same digest each time.
    """
    from workloads import Unit
    units = []
    probe_digest = None
    calib.mark()
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        if recorder is not None:
            recorder.run_id = len(units)
        try:
            unit = workload.unit()
            found = workload.probe() if probe else None
        except Exception as exc:  # a failing unit is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            unit = Unit(float("nan"), 0, workload.unit_ops, "", [f"raised {exc!r}"])
            found = None
        if found is not None:
            unit.latencies, digest, more = found
            probe_digest = probe_digest or digest
            unit.problems += more
            if digest != probe_digest:
                unit.problems.append(f"probe digest {digest[:12]} != {probe_digest[:12]}")
        unit.factor = calib.mark()
        units.append(unit)
    if probe_digest:
        note("probe_digest", probe_digest)
    return units


def tally(units, reference: str | None = None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and the problems behind failures.

    A unit fails when it reports a problem or its digest differs from the
    first unit's (or from ``reference``).
    """
    reference = reference if reference is not None else units[0].digest
    attempted = failed = 0
    problems: list[str] = []
    for i, u in enumerate(units):
        attempted += u.ops
        unit_problems = list(u.problems)
        if u.digest != reference:
            unit_problems.append(f"unit {i} digest {u.digest[:12]} != {reference[:12]}")
        if unit_problems:
            failed += u.ops
            problems.extend(unit_problems)
    return attempted, failed, problems


def steps_per_s(units, raw: bool = False) -> float:
    """Median over units of steps per calibrated (or raw) second."""
    return statistics.median(u.steps / (u.seconds * (1.0 if raw else u.factor))
                             for u in units if not u.problems)


def plain_run(workload, args, calib) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics, tracing off.

    Decision latencies are percentiles within windows of DECIDE_WINDOW
    consecutive decisions, each scaled by its unit's calibration, then the
    median over windows; one slow stretch moves one window, not the metric.
    """
    from spans import percentile, tail_percentile
    units = measure(workload, args.seconds, calib, probe=True)
    attempted, failed, problems = tally(units)
    digest, after_problems = workload.after()
    problems.extend(after_problems)
    note("digest", digest or units[0].digest)
    windows = [(sorted(u.latencies[i:i + DECIDE_WINDOW]), u.factor) for u in units
               if u.latencies is not None and not u.problems
               for i in range(0, len(u.latencies), DECIDE_WINDOW)]
    per_window = min(len(w) for w, _ in windows)
    tail = tail_percentile(per_window)
    if tail is None or tail < 99.0:
        raise SystemExit(f"perfbench: {per_window} decisions per window cannot support a p99")

    def decide_us(p: float) -> float:
        return statistics.median(percentile(w, p) * f for w, f in windows) * 1e6

    note("decide_samples", {
        "windows": len(windows), "per_window": per_window,
        "total": sum(len(w) for w, _ in windows),
        "source": "probe of engine.step calls after each timed unit"
        if workload.probe_steps else "engine.step calls of each replay",
        "highest_supported_percentile": tail, "highest_supported_us": decide_us(tail)})
    note("units", {"count": len(units), "seconds": [round(u.seconds, 6) for u in units],
                   "factors": [round(u.factor, 4) for u in units],
                   "blocks": [round(b, 5) for b in calib.blocks],
                   "raw_steps_per_s": steps_per_s(units, raw=True)})
    metrics = {
        "steps_per_s": (steps_per_s(units), "1/s"),
        "decide_p50_us": (decide_us(50.0), "us"),
        "decide_p99_us": (decide_us(99.0), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, failed, problems


def traced_run(workload, args, calib, setup_facts) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics: half the time untraced, half traced, same inputs."""
    import spans
    untraced = measure(workload, args.seconds / 2, calib)
    attempted, failed, problems = tally(untraced)
    originals = {(id(owner), attr): vars(owner)[attr]
                 for owner, attr in spans.wrapped_attributes()}
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        traced = measure(workload, args.seconds / 2, calib, recorder)
    more = tally(traced, reference=untraced[0].digest)
    attempted, failed = attempted + more[0], failed + more[1]
    problems.extend(more[2])
    for owner, attr in spans.wrapped_attributes():
        if vars(owner)[attr] is not originals[(id(owner), attr)]:
            problems.append(f"{attr} on {owner!r} was not restored after tracing")
    note("digest", untraced[0].digest)

    reps = len(traced)
    summary = recorder.summary([u.factor for u in traced])
    counts = recorder.counts
    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str, stat: str) -> float:
        return summary.get(name, {}).get(stat, 0) / reps

    def add(metric: str, value: float, unit: str) -> None:
        metrics[metric] = (value, unit)

    router_steps = (span("engine.step", "calls") + span("baselines.naive_step", "calls")
                    + span("baselines.hoeff_step", "calls"))
    add("engine.step.calls", span("engine.step", "calls"), "count")
    add("engine.step.busy_s", span("engine.step", "busy_s"), "s")
    add("engine.step.self_s", span("engine.step", "self_s"), "s")
    add("engine.adaptive_lambda.busy_s", span("engine.adaptive_lambda", "busy_s"), "s")
    add("engine.update_account.busy_s", span("engine.update_account", "busy_s"), "s")
    add("engine.gate.accesses", counts["engine.gate.accesses"] / reps, "count")
    add("engine.escalation_ratio",
        counts["engine.gate.accesses"] / reps / router_steps if router_steps else 0.0, "ratio")
    add("engine.deploy_changes", counts["engine.deploy_changes"] / reps, "count")
    for name in ("simulation.generate_event", "simulation.RiskTracker.absorb",
                 "baselines.naive_step", "baselines.hoeff_step",
                 "metrics.MetricAccumulator.update", "records.write_trajectory"):
        add(f"{name}.calls", span(name, "calls"), "count")
        add(f"{name}.busy_s", span(name, "busy_s"), "s")
    add("simulation.run_replication.self_s", span("simulation.run_replication", "self_s"), "s")
    add("simulation.oracle_risk_grid.busy_s", span("simulation.oracle_risk_grid", "busy_s"), "s")
    add("records.write_trajectory.bytes", counts["records.write_trajectory.bytes"] / reps, "B")
    add("records.write_summary_json.busy_s", span("records.write_summary_json", "busy_s"), "s")
    add("traces.load_trace.busy_s", span("traces.load_trace", "busy_s"), "s")
    add("traces.load_trace.rows", counts["traces.load_trace.rows"] / reps, "count")
    add("traces.load_trace.bytes", counts["traces.load_trace.bytes"] / reps, "B")
    add("traces.write_trace.busy_s", statistics.median(
        f.get("traces.write_trace.busy_s", 0.0) for f in setup_facts), "s")
    add("cli.main.busy_s", span("cli.main", "busy_s"), "s")
    add("cli.main.self_s", span("cli.main", "self_s"), "s")
    for layer in spans.LAYERS:
        add(f"{layer}.self_s", sum(row["self_s"] for name, row in summary.items()
                                   if name.startswith(layer + ".")) / reps, "s")
    fast, slow = steps_per_s(untraced), steps_per_s(traced)
    add("tracing.untraced_steps_per_s", fast, "1/s")
    add("tracing.traced_steps_per_s", slow, "1/s")
    add("tracing.overhead_share", (fast - slow) / fast, "ratio")
    note("traced_units", {"untraced": len(untraced), "traced": reps,
                          "spans": len(recorder.start)})
    recorder.write(OUT / "spans" / f"{workload.name}.csv")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_into is not None:
        print(json.dumps(workload.setup(args.setup_into, args.seed), sort_keys=True))
        return 0

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        calib = Calibration(workload.grid_size)
        setup_times, setup_facts, problems = run_setups(args, workdir, calib)
        workload.load(workdir, args.seed)
        note("run", {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace})
        note("machine", machine_facts())
        note("load", {"grid": workload.grid_size, "seed": args.seed,
                      "operation": workload.operation, **workload.load_size()})
        note("setup_s", {"runs": [round(t, 6) for t in setup_times]})
        if args.trace:
            metrics, attempted, failed, more = traced_run(workload, args, calib, setup_facts)
        else:
            metrics, attempted, failed, more = plain_run(workload, args, calib)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        problems.extend(more)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    note("error_rate", {"value": failed / attempted, "failed": failed,
                        "attempted": attempted, "operation": workload.operation})
    for problem in problems:
        note("problem", problem)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
