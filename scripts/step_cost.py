#!/usr/bin/env python3
"""CPU time of one ``engine.step`` call at several grid widths.

Feeds ``--events`` ``easy_hard`` events (stream seed 11, coin seed 7) to
``engine.step`` one call at a time, on the default config with an n-point
grid, and prints the CPU time per call at each G: the best of ``--rounds``
rounds, each the best of ``--repeat`` passes over the events from a fresh
run. It times this tree's ``src`` and, given ``--against``, a second
``src`` (another checkout's), each in its own subprocess, the two taking
turns to go first from round to round:

    python3 scripts/step_cost.py
    python3 scripts/step_cost.py --against ../parent/src --grids 1001,10001

A bad option, or an ``--against`` tree that cannot run the events, exits 2
with the reason.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def grid_list(text: str) -> list[int]:
    """``--grids``: a comma list of integers, each at least 2."""
    try:
        values = [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers") from None
    if any(value < 2 for value in values):
        raise argparse.ArgumentTypeError(f"every grid in {text!r} needs at least 2 points")
    return values


def count(text: str) -> int:
    """An integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def time_steps(grids: list[int], events: int, repeat: int) -> dict[int, float]:
    """Seconds of CPU time per ``engine.step`` call at each grid width, the
    best of ``repeat`` passes; run in a worker, on the ``bpac`` it imports."""
    import numpy as np

    from bpac.core import RouterConfig, ThresholdGrid, validate_config
    from bpac.engine import LossGate, RouterState, step
    from bpac.simulation import easy_hard, stream_events

    observations = list(stream_events(easy_hard(), np.random.default_rng(11), events))
    best = {}
    for n in grids:
        config = validate_config(RouterConfig(grid=ThresholdGrid.from_step(step=1.0 / (n - 1))))
        passes = []
        for _ in range(repeat):
            state, gate = RouterState.fresh(config, rng=7), LossGate()
            start = time.process_time()
            for obs in observations:
                step(state, obs, gate)
            passes.append(time.process_time() - start)
        best[n] = min(passes) / events
    return best


def run_worker(src: Path, args) -> dict[int, float]:
    """``time_steps`` in a fresh interpreter that imports ``bpac`` from ``src``."""
    argv = [sys.executable, __file__, "--worker", f"--grids={','.join(map(str, args.grids))}",
            f"--events={args.events}", f"--repeat={args.repeat}"]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        reason = run.stderr.strip().splitlines()[-1] if run.stderr.strip() else run.returncode
        raise RuntimeError(f"{src}: {reason}")
    return {int(n): seconds for n, seconds in json.loads(run.stdout).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=grid_list, default=[101, 1001, 10001, 100001],
                        help="grid widths, a comma list")
    parser.add_argument("--events", type=count, default=4000)
    parser.add_argument("--rounds", type=count, default=3)
    parser.add_argument("--repeat", type=count, default=7)
    parser.add_argument("--against", type=Path, help="a second src directory to time")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(time_steps(args.grids, args.events, args.repeat)))
        return 0
    if args.against is not None and not (args.against / "bpac" / "engine.py").is_file():
        parser.error(f"--against {args.against} holds no bpac package")

    trees = {"this": SRC} if args.against is None else {"this": SRC, "against": args.against}
    best = {name: dict.fromkeys(args.grids, float("inf")) for name in trees}
    for r in range(args.rounds):
        for name in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            try:
                times = run_worker(trees[name], args)
            except RuntimeError as exc:
                parser.error(f"cannot time {exc}")
            for n, seconds in times.items():
                best[name][n] = min(best[name][n], seconds)

    print(f"engine.step CPU time per call: {args.events} easy_hard events, "
          f"best of {args.rounds} rounds of best-of-{args.repeat}")
    print("G".ljust(8) + "".join(f"{name:>12}" for name in trees)
          + ("       ratio" if len(trees) == 2 else ""))
    for n in args.grids:
        cells = [best[name][n] * 1e6 for name in trees]
        line = f"{n:<8}" + "".join(f"{us:>9.2f} us" for us in cells)
        if len(cells) == 2:
            line += f"{cells[0] / cells[1]:>12.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
