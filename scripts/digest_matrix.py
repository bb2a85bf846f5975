#!/usr/bin/env python3
"""Digests of every output in one declared matrix of runs.

A change that must leave every output byte-identical shows it by running
this script on the parent and on the change and comparing the two files:

    PYTHONPATH=<parent>/src python3 scripts/digest_matrix.py --out parent.json
    PYTHONPATH=src python3 scripts/digest_matrix.py --out change.json --against parent.json

It writes ``{case: sha256}`` as JSON, to ``--out`` or to stdout. With
``--against other.json`` it lists on stderr every case whose digest
differs, or that only one file holds, and exits 1 if there is any.
``--only GLOB`` (repeatable) runs only the cases whose names match.

The matrix:

- ``run/<method>/<mode>/<schedule>/<spec>/G<n>``: ``run_replication`` of
  each method under both selection modes, a constant and a two-stage
  schedule, the built-in specs and a bounded two-segment spec, at G = 101
  and 1001; bpac also with a fixed wager (``/wager``) and with wealth
  snapshots (``/snapshots``), and on ``easy_hard`` under the two-stage
  schedule at G = 10001, where a single run moves the log-wealth of its
  capped prefix by scalar adds. The digest is ``Trajectory.digest``; every bpac run
  keeps a wealth snapshot at its horizon, so the digest covers its final
  log-wealth.
- ``step/<events>/G<n>``: events fed to ``engine.step`` one call at a
  time, up to G = 10001, from each spec and from ``fractional``,
  ``uniform_linear``'s events with fractional latent losses from halfway
  on; the digest covers every ``Decision`` and the final accounts.
- ``mc/<method>/<mode>/<criterion>/R<reps>``: ``mc_safety`` reports under
  both criteria at R = 1, 5, 25 and 30 replications.
- ``lanes/<mode>/<adaptive|wager>/R<reps>/G<n>``: an R-row
  ``AccountTable``, with the adaptive or a fixed wager, driven through
  ``route_lanes`` and ``settle`` on R ``uniform_linear`` lanes at R = 1, 5
  and 25 and G = 101 and 1001; the digest covers every step's deployed
  indices and the final accounts, which no ``mc/`` report holds.
- ``pinned/<spec>/<schedule>`` and ``regret/<spec>/<schedule>``: the
  pinned-threshold study and ``regret_harness`` on its first row.
- ``cli/<argv>``: the CLI runs that ``tests/test_cli.py`` pins, digested by
  ``output_digest``.

The full matrix takes about 20 s on a 2-core x86 box.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import bpac.cli
from bpac.core import (ConstantSchedule, Prior, RouterConfig, SelectionMode, ThresholdGrid,
                       TwoStageSchedule, rho_at, validate_config)
from bpac.engine import AccountTable, LossGate, RouterState, route_lanes, step
from bpac.simulation import (BetaScore, ConstantTokens, LinearLoss, PowerLoss, StreamSegment,
                             SyntheticStreamSpec, UniformScore, UniformTokens, easy_hard,
                             generate_event, mc_safety, pinned_threshold_study, regret_harness,
                             run_replication, stream_events, uniform_linear)
from bpac.traces import write_trace

HORIZON = 2000
SEEDS = (1, 2, 3)
FIXED_WAGER = 0.02
SNAPSHOT_EVERY = 250

SPECS = {
    "uniform_linear": uniform_linear(),
    "easy_hard": easy_hard(),
    # Bounded, and drawn one event at a time: Beta scores and uniform
    # token counts leave the block draw.
    "two_segment": SyntheticStreamSpec(
        segments=(StreamSegment(length=800, score=UniformScore(), loss=LinearLoss(kappa=0.25),
                                tokens=ConstantTokens(2, 9)),
                  StreamSegment(length=1200, score=BetaScore(2.0, 2.0),
                                loss=PowerLoss(kappa=1.0, degree=3.0),
                                tokens=UniformTokens(1, 4, 5, 20))),
        name="two_segment"),
}

SCHEDULES = {"constant": ConstantSchedule(0.3), "two_stage": TwoStageSchedule()}

# The runs tests/test_cli.py pins, each with ``--out out`` appended, in a
# directory holding trace.csv.
CLI_RUNS = [
    "simulate --horizon 60 --seeds 1,2 --emit-wealth-every 20",
    "simulate --method ips_hoeff --horizon 60 --seeds 1",
    "replay --trace trace.csv --coin-seed 3 --emit-wealth-every 20",
    "mc-safety --horizon 60 --n-reps 3",
    "sweep --horizon 60 --seeds 1,2 --epsilons 0.05,0.1",
    "compare --spec easy_hard --horizon 60 --seeds 1,2",
    "ablate --preset lambda --horizon 60 --seeds 1,2",
    "ablate --preset rho --horizon 60 --seeds 1",
]


def output_digest(stdout: str, out: Path) -> str:
    """sha256 of a CLI run's stdout, then of each file under ``out``: its
    path as given (relative paths stay relative), then its bytes, in path
    order."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def value_digest(value) -> str:
    """sha256 of a report: JSON with sorted keys, floats by repr, arrays by
    dtype, shape and bytes, dataclasses by their fields."""
    def encode(obj):
        if isinstance(obj, np.ndarray):
            return {"dtype": obj.dtype.str, "shape": obj.shape,
                    "bytes": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()}
        if isinstance(obj, np.generic):
            return obj.item()
        if dataclasses.is_dataclass(obj):
            return dataclasses.asdict(obj)
        raise TypeError(f"cannot digest {type(obj).__name__}")

    return hashlib.sha256(json.dumps(value, sort_keys=True, default=encode).encode()).hexdigest()


def grid_config(n: int, mode: SelectionMode = SelectionMode.FIXED_SEQUENCE,
                schedule=None) -> RouterConfig:
    config = RouterConfig(grid=ThresholdGrid.from_step(step=1.0 / (n - 1)), selection_mode=mode,
                          prior=Prior.uniform(n) if mode is SelectionMode.MIXTURE else None)
    if schedule is not None:
        config = dataclasses.replace(config, schedule=schedule)
    return validate_config(config)


def run_case(method, config, spec, **options):
    if method == "bpac":
        options.setdefault("emit_wealth_every", HORIZON)

    def digest():
        h = hashlib.sha256()
        for seed in SEEDS:
            h.update(run_replication(method, config, spec, HORIZON, seed, **options)
                     .digest().encode())
        return h.hexdigest()
    return digest


def spec_events(spec):
    return lambda: stream_events(spec, np.random.default_rng(11), HORIZON)


def fractional_events():
    """``uniform_linear``'s events with latent losses drawn uniformly from
    [0, 1] from halfway on: the charges with 0 < loss < 1 that end a single
    run's capped-prefix shortcut."""
    rng = np.random.default_rng(13)
    for obs in spec_events(uniform_linear())():
        if obs.index > HORIZON // 2:
            obs = dataclasses.replace(obs, latent_loss=float(rng.random()))
        yield obs


def step_case(events, n):
    def digest():
        state = RouterState.fresh(grid_config(n), rng=7)
        gate = LossGate()
        h = hashlib.sha256()
        for obs in events():
            decision, state = step(state, obs, gate)
            h.update(repr(dataclasses.astuple(decision)).encode())
        for column in (state.table.log_wealth, state.table.sum_payoff,
                       state.table.sum_payoff_sq, state.table.last_lambda):
            h.update(np.ascontiguousarray(column).tobytes())
        h.update(str((state.deployed_index, gate.access_count)).encode())
        return h.hexdigest()
    return digest


def lanes_case(config, reps, fixed_wager):
    def digest():
        table = AccountTable(config, reps, fixed_wager=fixed_wager)
        lanes = [list(stream_events(SPECS["uniform_linear"], np.random.default_rng(seed), HORIZON))
                 for seed in range(reps)]
        coins = [np.random.default_rng(100 + seed).random(HORIZON).tolist()
                 for seed in range(reps)]
        gates = [LossGate() for _ in range(reps)]
        for gate, events in zip(gates, lanes):
            gate.hold(1, [obs.latent_loss for obs in events])
        h = hashlib.sha256()
        deployed = [0] * reps
        for t in range(1, HORIZON + 1):
            rho_t = rho_at(config.schedule, t)
            _, charges = route_lanes(t, [events[t - 1].uncertainty for events in lanes],
                                     [draws[t - 1] for draws in coins], deployed, rho_t, gates,
                                     config)
            table.settle(charges, rho_t)
            deployed = table.select()
            h.update(repr(deployed).encode())
        for column in (table.log_wealth, table.sum_payoff, table.sum_payoff_sq,
                       table.last_lambda):
            h.update(np.ascontiguousarray(column).tobytes())
        return h.hexdigest()
    return digest


def mc_case(method, config, spec, reps, criterion):
    return lambda: value_digest(mc_safety(method, config, spec, 1200, reps, base_seed=5,
                                          criterion=criterion, workers=1))


def pinned_case(spec, schedule, regret: bool):
    def digest():
        config = grid_config(101, schedule=schedule)
        study = pinned_threshold_study(spec, 0.3, config, 1000, 20, base_seed=3)
        if not regret:
            return value_digest(study)
        return value_digest(regret_harness(study["payoffs"][:, 0], config.epsilon,
                                           config.betting_cap, schedule))
    return digest


def cli_case(argv: str):
    def digest():
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            rng = np.random.default_rng(3)
            write_trace("trace.csv", [generate_event(uniform_linear(), rng, t)
                                      for t in range(1, 61)])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = bpac.cli.main([*argv.split(), "--out", "out"])
            if code != 0 or err.getvalue():
                raise RuntimeError(f"{argv!r} exited {code}: {err.getvalue()}")
            return output_digest(out.getvalue(), Path("out"))
    return digest


def matrix() -> dict:
    """Every case by name, each a function that returns its digest."""
    cases = {}
    modes = {mode.value: mode for mode in SelectionMode}
    for method in ("bpac", "o_naive", "ips_hoeff"):
        for mode_name, mode in modes.items():
            for sched_name, schedule in SCHEDULES.items():
                for spec_name, spec in SPECS.items():
                    for n in (101, 1001):
                        name = f"run/{method}/{mode_name}/{sched_name}/{spec_name}/G{n}"
                        config = grid_config(n, mode, schedule)
                        cases[name] = run_case(method, config, spec)
                        if method == "bpac":
                            cases[f"{name}/wager"] = run_case(method, config, spec,
                                                              fixed_wager=FIXED_WAGER)
                            cases[f"{name}/snapshots"] = run_case(
                                method, config, spec, emit_wealth_every=SNAPSHOT_EVERY)
    for mode_name, mode in modes.items():
        cases[f"run/bpac/{mode_name}/two_stage/easy_hard/G10001"] = run_case(
            "bpac", grid_config(10001, mode, SCHEDULES["two_stage"]), SPECS["easy_hard"])
    events = {name: spec_events(spec) for name, spec in SPECS.items()}
    events["fractional"] = fractional_events
    for events_name, source in events.items():
        for n in (101, 1001, 10001):
            cases[f"step/{events_name}/G{n}"] = step_case(source, n)
    for reps in (1, 5, 25, 30):
        for mode_name, mode in modes.items():
            config = grid_config(1001, mode)
            cases[f"mc/bpac/{mode_name}/deployment/R{reps}"] = mc_case(
                "bpac", config, SPECS["uniform_linear"], reps, "deployment")
            cases[f"mc/bpac/{mode_name}/weighted/R{reps}"] = mc_case(
                "bpac", config, SPECS["easy_hard"], reps, "weighted")
        for method in ("o_naive", "ips_hoeff"):
            cases[f"mc/{method}/fixed_sequence/deployment/R{reps}"] = mc_case(
                method, grid_config(1001), SPECS["uniform_linear"], reps, "deployment")
    for mode_name, mode in modes.items():
        for wager_name, wager in (("adaptive", None), ("wager", FIXED_WAGER)):
            for reps in (1, 5, 25):
                for n in (101, 1001):
                    cases[f"lanes/{mode_name}/{wager_name}/R{reps}/G{n}"] = lanes_case(
                        grid_config(n, mode), reps, wager)
    for spec_name, spec in SPECS.items():
        for sched_name, schedule in SCHEDULES.items():
            cases[f"pinned/{spec_name}/{sched_name}"] = pinned_case(spec, schedule, False)
            cases[f"regret/{spec_name}/{sched_name}"] = pinned_case(spec, schedule, True)
    for argv in CLI_RUNS:
        cases[f"cli/{argv}"] = cli_case(argv)
    return cases


def differences(ours: dict, theirs: dict) -> list[str]:
    """A line for each case whose digest differs or that one side lacks."""
    lines = []
    for case in sorted(ours.keys() | theirs.keys()):
        if case not in theirs:
            lines.append(f"only here: {case}")
        elif case not in ours:
            lines.append(f"only there: {case}")
        elif ours[case] != theirs[case]:
            lines.append(f"differs: {case}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument("--against", type=Path, help="a JSON file to compare with")
    parser.add_argument("--only", action="append", metavar="GLOB",
                        help="run only the cases matching this glob (repeatable)")
    args = parser.parse_args(argv)
    theirs = None
    if args.against is not None:
        try:
            theirs = json.loads(args.against.read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --against {args.against}: {exc}")
    cases = matrix()
    if args.only:
        cases = {name: case for name, case in cases.items()
                 if any(fnmatch.fnmatchcase(name, glob) for glob in args.only)}
        if not cases:
            parser.error(f"no case matches {args.only}")
    digests = {name: case() for name, case in cases.items()}
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    if theirs is None:
        return 0
    if args.only:
        theirs = {name: d for name, d in theirs.items()
                  if any(fnmatch.fnmatchcase(name, glob) for glob in args.only)}
    lines = differences(digests, theirs)
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(lines)} of {len(digests.keys() | theirs.keys())} cases differ", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
