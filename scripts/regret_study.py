#!/usr/bin/env python3
"""Adaptive-wager regret against the best constant wager in hindsight.

Generates i.i.d. payoff streams from the engine's own arithmetic at a
pinned threshold, measures regret at several horizons, and compares the
growth ratio to the logarithmic target. An invalid config (``--epsilon``,
``--cap``, ``--rho``), a threshold outside [0, 1], fewer than one stream,
a ``--horizons`` entry that is not an integer of at least 2, or a largest
horizon past the length of a bounded ``--spec`` exits 2 with the reason,
before any stream is drawn.
"""
from __future__ import annotations

import argparse
import dataclasses

import numpy as np

from bpac.core import ConstantSchedule, RouterConfig
from bpac.simulation import (
    load_stream_spec,
    pinned_threshold_study,
    regret_bound,
    regret_harness,
)


def horizon_list(text: str) -> list[int]:
    """``--horizons``: a comma list of integers, each at least 2, sorted.

    The growth target divides by the log of the smallest.
    """
    try:
        horizons = sorted(int(h) for h in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None
    if horizons[0] < 2:
        raise argparse.ArgumentTypeError(f"every horizon must be at least 2, got {horizons[0]}")
    return horizons


def main() -> None:
    p = argparse.ArgumentParser(description="Regret growth measurement")
    p.add_argument("--spec", default="uniform_linear")
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--rho", type=float, default=0.3,
                   help="constant exploration rate for the payoff streams")
    p.add_argument("--n-streams", type=int, default=100)
    p.add_argument("--horizons", type=horizon_list, default="100,1000,10000")
    p.add_argument("--base-seed", type=int, default=500)
    p.add_argument("--epsilon", type=float, default=0.08)
    p.add_argument("--cap", type=float, default=0.9)
    args = p.parse_args()

    horizons = args.horizons
    schedule = ConstantSchedule(args.rho)
    config = dataclasses.replace(RouterConfig(), epsilon=args.epsilon,
                                 betting_cap=args.cap, schedule=schedule)
    spec = load_stream_spec(args.spec)
    try:
        study = pinned_threshold_study(spec, args.threshold, config,
                                       horizon=horizons[-1],
                                       n_reps=args.n_streams,
                                       base_seed=args.base_seed)
    except ValueError as err:  # ConfigError included
        p.error(str(err))
    payoffs = study["payoffs"]

    print(f"u={args.threshold} rho={args.rho} streams={args.n_streams}")
    print(f"{'T':>7} {'mean regret':>12} {'max regret':>11} {'bound':>10}")
    means = {}
    for horizon in horizons:
        regs = np.array([
            regret_harness(payoffs[:horizon, j], args.epsilon, args.cap,
                           schedule).regret
            for j in range(args.n_streams)])
        means[horizon] = regs.mean()
        print(f"{horizon:>7} {regs.mean():>12.4f} {regs.max():>11.4f} "
              f"{regret_bound(horizon, args.epsilon, args.cap, schedule):>10.1f}")

    lo, hi = horizons[0], horizons[-1]
    ratio = means[hi] / means[lo]
    target = np.log(hi) / np.log(lo) * 1.5
    print(f"growth ratio regret({hi})/regret({lo}) = {ratio:.2f} "
          f"(log target {target:.2f})")


if __name__ == "__main__":
    main()
