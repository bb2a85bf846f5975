"""Command line front end.

Subcommands cover the experiment surface: simulate (synthetic streams),
replay (recorded traces), mc-safety (coverage studies), sweep (risk
budget sensitivity), compare (methods head to head on shared streams),
and ablate (preset design sweeps). Outputs are deterministic given the
flags, so reruns are byte-identical. Errors print one JSON line to
stderr naming the offending key; exit code 2 means bad input, 3 means a
run died midway.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .core import (
    ConfigError,
    ConstantSchedule,
    RouterConfig,
    TwoStageSchedule,
    config_digest,
    config_to_dict,
    load_config,
    validate_config,
)
from .engine import (InvalidObservation, LossGateViolation, OutOfOrderObservation,
                     WagerOutOfRange)
from .records import (
    write_summary_json,
    write_table,
    write_trajectory,
    write_wealth_snapshots,
)
from .simulation import (
    Method,
    NonStationarySpec,
    SpecError,
    StreamExhausted,
    UnknownMethod,
    check_run,
    load_stream_spec,
    mc_safety,
    parse_method,
    replay_trace,
    run_replication,
    spec_to_dict,
)
from .traces import TraceFormatError, load_trace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3


def _emit_error(kind: str, message: str, key: str | None = None,
                violations=None) -> None:
    doc: dict[str, Any] = {"error": {"kind": kind, "message": message}}
    if key is not None:
        doc["error"]["key"] = key
    if violations:
        doc["error"]["violations"] = [
            {"code": v.code, "key": v.key, "message": v.message} for v in violations]
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def _load_config_arg(args) -> RouterConfig:
    config = load_config(args.config) if args.config else RouterConfig()
    return validate_config(config)


def _resolve_seeds(args, config: RouterConfig) -> list[int]:
    if args.seeds:
        return args.seeds
    if args.n_seeds is not None:
        return list(range(args.base_seed, args.base_seed + args.n_seeds))
    return [config.seed]


def _int_at_least(low: int):
    """argparse type for an integer flag that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return parse


def _comma_list(convert):
    """argparse type for a non-empty comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        try:
            values = [convert(part) for part in text.split(",") if part]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}")
        return values
    return parse


def _distinct(values: list, names: list, what: str) -> list:
    """``values``, unless two of them have one name: they would run one case
    twice, and the second's files would overwrite the first's."""
    first: dict[Any, Any] = {}
    for value, name in zip(values, names):
        if name in first:
            raise argparse.ArgumentTypeError(
                f"{what} must be distinct, got {first[name]!r} and {value!r}")
        first[name] = value
    return values


def _seed_list(text: str) -> list[int]:
    """argparse type for ``--seeds``: distinct non-negative integers, comma-separated."""
    seeds = _comma_list(int)(text)
    for seed in seeds:
        if seed < 0:
            raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {seed}")
    return _distinct(seeds, seeds, "seeds")


def _epsilon_folder(eps: float) -> str:
    """The ``sweep`` cell of risk budget ``eps``, and its folder under ``--out``."""
    return f"epsilon_{eps:g}"


def _epsilon_list(text: str) -> list[float]:
    """argparse type for ``--epsilons``: budgets with distinct ``_epsilon_folder`` names."""
    epsilons = _comma_list(float)(text)
    return _distinct(epsilons, list(map(_epsilon_folder, epsilons)),
                     "epsilons to 6 significant digits")


def _ensure_out(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


FINAL_COLUMNS = ("ecp", "tp", "er", "u_hat", "deploy_risk", "weighted_risk",
                 "mean_cond_risk")


def _final_row(traj, seed: int) -> dict[str, Any]:
    finals = {f"final_{name}": traj.final(name) for name in FINAL_COLUMNS}
    return {"seed": seed, **finals, "escalations": int(traj.xi.sum()),
            "gate_accesses": traj.gate_accesses, "digest": traj.digest()}


def _aggregate(rows: list[dict[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name in FINAL_COLUMNS:
        values = [v for row in rows
                  if (v := row["final_" + name]) is not None and not math.isnan(v)]
        out["mean_final_" + name] = float(np.mean(values)) if values else None
    return out


# ---------------------------------------------------------------------------
# Commands


class Cell(NamedTuple):
    """One variant of a multi-seed command. Every seed runs ``method``
    under ``config``; the runs' files go to ``subdir`` of ``--out``, and a
    cell whose ``subdir`` is None writes none."""

    name: str
    method: Method
    config: RouterConfig
    fixed_wager: float | None
    subdir: str | None


def _run_plan(args, cells: list[Cell], spec, seeds: list[int], fold=None,
              **run) -> list[dict[str, Any]]:
    """Run every cell on every seed; return each cell's replications and aggregate.

    Every cell is checked before ``--out`` is created, so a refused plan
    leaves no files. Each trajectory is written, then handed to
    ``fold(cell, traj)`` and dropped, so memory does not grow with seeds.
    ``run`` holds the remaining ``run_replication`` keywords.
    """
    for cell in cells:
        check_run(cell.method, cell.config, spec, args.horizon, cell.fixed_wager)
    out = _ensure_out(args.out)
    blocks = []
    for cell in cells:
        folder = None if cell.subdir is None else _ensure_out(out / cell.subdir)
        rows = []
        for seed in seeds:
            traj = run_replication(cell.method, cell.config, spec, args.horizon, seed,
                                   fixed_wager=cell.fixed_wager, **run)
            if folder is not None:
                name = f"{cell.method.value}_seed{seed}.csv"
                write_trajectory(folder / f"trajectory_{name}", traj)
                if traj.wealth_snapshots:
                    write_wealth_snapshots(folder / f"wealth_{name}", traj,
                                           cell.config.grid.values)
            if fold is not None:
                fold(cell, traj)
            rows.append(_final_row(traj, seed))
        blocks.append({"replications": rows, "aggregate": _aggregate(rows)})
    return blocks


def _finish(args, summary: dict[str, Any], line: dict[str, Any]) -> int:
    """Write ``<command>_summary.json`` under ``--out`` and print the stdout line."""
    write_summary_json(args.out / f"{args.command}_summary.json",
                       {"command": args.command, **summary})
    print(json.dumps({"command": args.command, "out": str(args.out), **line},
                     sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    method = parse_method(args.method)
    seeds = _resolve_seeds(args, config)
    [block] = _run_plan(args, [Cell(method.value, method, config, args.fixed_wager, "")],
                        spec, seeds, hoeff_variant=args.hoeff_variant,
                        emit_wealth_every=args.emit_wealth_every)
    return _finish(args, {
        "method": method.value,
        "spec": spec_to_dict(spec),
        "horizon": args.horizon,
        "seeds": seeds,
        "config": config_to_dict(config),
        "config_hash": config_digest(config),
        **block,
    }, {"replications": len(seeds)})


def cmd_replay(args) -> int:
    config = _load_config_arg(args)
    events = load_trace(args.trace)
    method = parse_method(args.method)
    check_run(method, config, None, None, args.fixed_wager)
    out = _ensure_out(args.out)

    traj = replay_trace(method, config, events, coin_seed=args.coin_seed,
                        fixed_wager=args.fixed_wager,
                        hoeff_variant=args.hoeff_variant,
                        emit_wealth_every=args.emit_wealth_every)
    write_trajectory(out / f"replay_{method.value}.csv", traj)
    if traj.wealth_snapshots:
        write_wealth_snapshots(out / f"replay_wealth_{method.value}.csv",
                               traj, config.grid.values)
    row = _final_row(traj, traj.seed)
    return _finish(args, {
        "method": method.value,
        "trace": str(args.trace),
        "events": len(events),
        "config": config_to_dict(config),
        "config_hash": config_digest(config),
        "result": row,
    }, {"events": len(events), "escalations": row["escalations"],
        "gate_accesses": row["gate_accesses"]})


def cmd_mc_safety(args) -> int:
    config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    criterion = None if args.criterion == "auto" else args.criterion
    report = mc_safety(args.method, config, spec, args.horizon, args.n_reps,
                       base_seed=args.base_seed, criterion=criterion,
                       workers=args.workers,
                       hoeff_variant=args.hoeff_variant,
                       fixed_wager=args.fixed_wager)
    if args.out is not None:
        out = _ensure_out(args.out)
        write_summary_json(out / "mc_safety_summary.json", report)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    base_config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    method = parse_method(args.method)
    seeds = _resolve_seeds(args, base_config)
    cells = [Cell(_epsilon_folder(eps), method,
                  validate_config(dataclasses.replace(base_config, epsilon=eps)),
                  args.fixed_wager, _epsilon_folder(eps))
             for eps in args.epsilons]
    blocks = _run_plan(args, cells, spec, seeds, hoeff_variant=args.hoeff_variant)
    return _finish(args, {
        "method": method.value, "spec": spec_to_dict(spec), "horizon": args.horizon,
        "seeds": seeds, "epsilons": args.epsilons,
        "base_config": config_to_dict(base_config),
        "cells": [{"epsilon": eps, "config_hash": config_digest(cell.config), **block}
                  for eps, cell, block in zip(args.epsilons, cells, blocks)],
    }, {"epsilons": args.epsilons})


CURVES = ("ecp", "er", "u_hat")


def cmd_compare(args) -> int:
    config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    seeds = _resolve_seeds(args, config)
    # Same seed split for every method: identical queries, losses, and
    # exploration uniforms, so differences are method-only.
    cells = [Cell(m.value, m, config, None, "")
             for m in (Method.BPAC, Method.O_NAIVE, Method.IPS_HOEFF)]
    sums = {cell.name: {name: np.zeros(args.horizon) for name in CURVES} for cell in cells}

    def fold(cell: Cell, traj) -> None:
        for name, total in sums[cell.name].items():
            total += getattr(traj, name)

    blocks = _run_plan(args, cells, spec, seeds, fold, hoeff_variant=args.hoeff_variant)
    write_table(args.out / "compare_curves.csv", {
        "t": np.tile(np.arange(1, args.horizon + 1), len(cells)),
        "method": np.repeat(list(sums), args.horizon),
        **{"mean_" + name: np.concatenate([curves[name] / len(seeds)
                                           for curves in sums.values()])
           for name in CURVES}})
    return _finish(args, {
        "spec": spec_to_dict(spec), "horizon": args.horizon, "seeds": seeds,
        "config": config_to_dict(config), "config_hash": config_digest(config),
        "methods": dict(zip(sums, blocks)),
    }, {"methods": list(sums)})


ABLATE_PRESETS = ("lambda", "rho", "twarm")


def _ablate_cells(preset: str, base: RouterConfig) -> list[Cell]:
    """The checked bpac variants of each preset design sweep; they write no
    trajectories."""
    if preset == "lambda":
        variants = [("adaptive", base, None), ("fixed_0.05", base, 0.05)]
    elif preset == "rho":
        variants = [("two_stage_default",
                     dataclasses.replace(base, schedule=TwoStageSchedule()), None)]
        for rho in (0.05, 0.2, 0.3, 0.7):
            variants.append((f"constant_{rho:g}",
                             dataclasses.replace(base, schedule=ConstantSchedule(rho)),
                             None))
    else:  # "twarm": the parser admits only ABLATE_PRESETS
        sched = base.schedule if isinstance(base.schedule, TwoStageSchedule) \
            else TwoStageSchedule()
        variants = [(f"twarm_{tw}",
                     dataclasses.replace(base, schedule=dataclasses.replace(sched, t_warm=tw)),
                     None)
                    for tw in (10, 50, 100, 200, 300, 500)]
    return [Cell(name, Method.BPAC, validate_config(config), wager, None)
            for name, config, wager in variants]


def cmd_ablate(args) -> int:
    base = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    seeds = _resolve_seeds(args, base)
    cells = _ablate_cells(args.preset, base)
    exceed = {cell.name: 0 for cell in cells}

    def fold(cell: Cell, traj) -> None:
        # A run has a deployed risk on a single-segment stream and a
        # weighted risk on any other; the other column is NaN, which
        # exceeds no budget.
        eps = cell.config.epsilon
        if np.any(traj.deploy_risk > eps) or np.any(traj.weighted_risk > eps):
            exceed[cell.name] += 1

    blocks = _run_plan(args, cells, spec, seeds, fold)
    return _finish(args, {
        "preset": args.preset, "spec": spec_to_dict(spec), "horizon": args.horizon,
        "seeds": seeds,
        "variants": [{"name": cell.name,
                      "config": config_to_dict(cell.config),
                      "config_hash": config_digest(cell.config),
                      "violation_fraction": exceed[cell.name] / len(seeds),
                      **block}
                     for cell, block in zip(cells, blocks)],
    }, {"preset": args.preset, "variants": list(exceed)})


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    # exit_on_error=False lets ``main`` report a bad flag value as a JSON
    # ``args`` error instead of argparse's usage text.
    parser = argparse.ArgumentParser(
        prog="bpac", exit_on_error=False,
        description="Streaming risk-controlled router: simulate, replay, study.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, exit_on_error=False))

    def common(p: argparse.ArgumentParser, *, default_out: str | None) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="router config JSON (defaults apply when omitted)")
        default = Path(default_out) if default_out is not None else None
        p.add_argument("--out", type=Path, default=default,
                       help="output directory")

    def seed_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated replication seeds; wins over --n-seeds")
        p.add_argument("--n-seeds", type=_int_at_least(1), default=None,
                       help="run seeds base..base+K-1")
        p.add_argument("--base-seed", type=_int_at_least(0), default=0)

    def stream_flags(p: argparse.ArgumentParser, default_horizon: int,
                     least_horizon: int = 0) -> None:
        p.add_argument("--spec", default="uniform_linear",
                       help="built-in stream name or spec JSON path")
        p.add_argument("--horizon", type=_int_at_least(least_horizon),
                       default=default_horizon,
                       help="steps per run" + ("; 0 gives an empty run"
                                               if least_horizon == 0 else ""))

    def hoeff_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--hoeff-variant", default="per_point",
                       choices=("per_point", "union_over_grid"),
                       help="the ips_hoeff slack: one threshold per step, or the whole grid")

    def method_flags(p: argparse.ArgumentParser, default: str = "bpac") -> None:
        p.add_argument("--method", default=default,
                       help="bpac, o_naive, or ips_hoeff")
        hoeff_flag(p)
        p.add_argument("--fixed-wager", type=float, default=None,
                       help="freeze the wager instead of the adaptive rule (engine only)")

    p = sub.add_parser("simulate", help="run a method over a synthetic stream")
    common(p, default_out="runs/simulate")
    stream_flags(p, 1000)
    method_flags(p)
    seed_flags(p)
    p.add_argument("--emit-wealth-every", type=_int_at_least(0), default=100,
                   help="log-wealth snapshot cadence; 0 disables")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="run a method over a recorded trace")
    common(p, default_out="runs/replay")
    p.add_argument("--trace", type=Path, required=True, help="trace CSV path")
    method_flags(p)
    p.add_argument("--coin-seed", type=_int_at_least(0), default=None,
                   help="seed for exploration coins (default: config seed)")
    p.add_argument("--emit-wealth-every", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("mc-safety", help="risk-coverage frequency over replications")
    common(p, default_out=None)
    # a coverage verdict or a mean curve needs at least one step
    stream_flags(p, 2000, least_horizon=1)
    method_flags(p)
    p.add_argument("--n-reps", type=_int_at_least(1), default=200)
    p.add_argument("--base-seed", type=_int_at_least(0), default=0)
    p.add_argument("--criterion", default="auto", choices=("auto", "deployment", "weighted"))
    p.add_argument("--workers", type=_int_at_least(1), default=None,
                   help="largest process pool, capped at one process per block and "
                        "per CPU (default: serial)")
    p.set_defaults(func=cmd_mc_safety)

    p = sub.add_parser("sweep", help="sensitivity of outcomes to the risk budget")
    common(p, default_out="runs/sweep")
    stream_flags(p, 2000, least_horizon=1)
    method_flags(p)
    seed_flags(p)
    p.add_argument("--epsilons", type=_epsilon_list, default="0.05,0.08,0.1",
                   help="comma-separated risk budgets")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="all methods on shared streams")
    common(p, default_out="runs/compare")
    stream_flags(p, 2000, least_horizon=1)
    seed_flags(p)
    hoeff_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="preset design sweeps")
    common(p, default_out="runs/ablate")
    stream_flags(p, 2000, least_horizon=1)
    seed_flags(p)
    p.add_argument("--preset", required=True, choices=ABLATE_PRESETS)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        _emit_error("args", str(exc), key=exc.argument_name)
        return EXIT_INVALID
    try:
        return args.func(args)
    except ConfigError as exc:
        key = exc.violations[0].key if exc.violations else None
        _emit_error("config", str(exc), key=key, violations=exc.violations)
        return EXIT_INVALID
    except SpecError as exc:
        _emit_error("spec", str(exc), key=exc.key)
        return EXIT_INVALID
    except TraceFormatError as exc:
        key = None if exc.row is None else f"row:{exc.row}"
        _emit_error("trace", str(exc), key=key)
        return EXIT_INVALID
    except UnknownMethod as exc:
        _emit_error("method", str(exc), key="method")
        return EXIT_INVALID
    except OSError as exc:
        _emit_error("io", str(exc),
                    key=None if exc.filename is None else str(exc.filename))
        return EXIT_INVALID
    except (StreamExhausted, NonStationarySpec, WagerOutOfRange,
            OutOfOrderObservation, InvalidObservation, LossGateViolation,
            MemoryError) as exc:
        _emit_error("runtime", str(exc))
        return EXIT_RUNTIME
    except ValueError as exc:
        _emit_error("args", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
