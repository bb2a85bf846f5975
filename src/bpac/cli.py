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
from typing import Any

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
from .metrics import TokenDivisionByZero
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


def cmd_simulate(args) -> int:
    config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    method = parse_method(args.method)
    seeds = _resolve_seeds(args, config)
    out = _ensure_out(args.out)

    rows = []
    for seed in seeds:
        traj = run_replication(method, config, spec, args.horizon, seed,
                               fixed_wager=args.fixed_wager,
                               hoeff_variant=args.hoeff_variant,
                               emit_wealth_every=args.emit_wealth_every)
        write_trajectory(out / f"trajectory_{method.value}_seed{seed}.csv", traj)
        if traj.wealth_snapshots:
            write_wealth_snapshots(out / f"wealth_{method.value}_seed{seed}.csv",
                                   traj, config.grid.values)
        rows.append(_final_row(traj, seed))

    summary = {
        "command": "simulate",
        "method": method.value,
        "spec": spec_to_dict(spec),
        "horizon": args.horizon,
        "seeds": seeds,
        "config": config_to_dict(config),
        "config_hash": config_digest(config),
        "replications": rows,
        "aggregate": _aggregate(rows),
    }
    write_summary_json(out / "simulate_summary.json", summary)
    print(json.dumps({"command": "simulate", "out": str(out),
                      "replications": len(rows)}, sort_keys=True))
    return EXIT_OK


def cmd_replay(args) -> int:
    config = _load_config_arg(args)
    events = load_trace(args.trace)
    method = parse_method(args.method)
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
    summary = {
        "command": "replay",
        "method": method.value,
        "trace": str(args.trace),
        "events": len(events),
        "config": config_to_dict(config),
        "config_hash": config_digest(config),
        "result": row,
    }
    write_summary_json(out / "replay_summary.json", summary)
    print(json.dumps({"command": "replay", "out": str(out),
                      "events": len(events),
                      "escalations": row["escalations"],
                      "gate_accesses": row["gate_accesses"]}, sort_keys=True))
    return EXIT_OK


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
    out = _ensure_out(args.out)

    cells = []
    for eps in args.epsilons:
        config = validate_config(dataclasses.replace(base_config, epsilon=eps))
        subdir = _ensure_out(out / f"epsilon_{eps:g}")
        rows = []
        for seed in seeds:
            traj = run_replication(method, config, spec, args.horizon, seed,
                                   hoeff_variant=args.hoeff_variant)
            write_trajectory(subdir / f"trajectory_{method.value}_seed{seed}.csv", traj)
            rows.append(_final_row(traj, seed))
        cells.append({"epsilon": eps, "config_hash": config_digest(config),
                      "replications": rows, "aggregate": _aggregate(rows)})

    summary = {"command": "sweep", "method": method.value,
               "spec": spec_to_dict(spec), "horizon": args.horizon,
               "seeds": seeds, "epsilons": args.epsilons,
               "base_config": config_to_dict(base_config), "cells": cells}
    write_summary_json(out / "sweep_summary.json", summary)
    print(json.dumps({"command": "sweep", "out": str(out),
                      "epsilons": args.epsilons}, sort_keys=True))
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    seeds = _resolve_seeds(args, config)
    out = _ensure_out(args.out)
    methods = [Method.BPAC, Method.O_NAIVE, Method.IPS_HOEFF]

    per_method: dict[str, dict[str, Any]] = {}
    means: dict[str, list[np.ndarray]] = {name: [] for name in ("ecp", "er", "u_hat")}
    for method in methods:
        rows = []
        sums = {name: np.zeros(args.horizon) for name in means}
        for seed in seeds:
            # Same seed split for every method: identical queries, losses,
            # and exploration uniforms, so differences are method-only.
            traj = run_replication(method, config, spec, args.horizon, seed,
                                   hoeff_variant=args.hoeff_variant)
            write_trajectory(out / f"trajectory_{method.value}_seed{seed}.csv", traj)
            for name in sums:
                sums[name] += getattr(traj, name)
            rows.append(_final_row(traj, seed))
        per_method[method.value] = {"replications": rows,
                                    "aggregate": _aggregate(rows)}
        for name in means:
            means[name].append(sums[name] / len(seeds))

    write_table(out / "compare_curves.csv", {
        "t": np.tile(np.arange(1, args.horizon + 1), len(methods)),
        "method": np.repeat([m.value for m in methods], args.horizon),
        **{"mean_" + name: np.concatenate(curves) for name, curves in means.items()}})

    summary = {"command": "compare", "spec": spec_to_dict(spec),
               "horizon": args.horizon, "seeds": seeds,
               "config": config_to_dict(config),
               "config_hash": config_digest(config), "methods": per_method}
    write_summary_json(out / "compare_summary.json", summary)
    print(json.dumps({"command": "compare", "out": str(out),
                      "methods": [m.value for m in methods]}, sort_keys=True))
    return EXIT_OK


ABLATE_PRESETS = ("lambda", "rho", "twarm")


def _ablate_variants(preset: str, base: RouterConfig):
    """Named config/kwarg variants for each preset sweep."""
    if preset == "lambda":
        return [("adaptive", base, {}),
                ("fixed_0.05", base, {"fixed_wager": 0.05})]
    if preset == "rho":
        variants = [("two_stage_default",
                     dataclasses.replace(base, schedule=TwoStageSchedule()), {})]
        for rho in (0.05, 0.2, 0.3, 0.7):
            variants.append((f"constant_{rho:g}",
                             dataclasses.replace(base, schedule=ConstantSchedule(rho)),
                             {}))
        return variants
    if preset == "twarm":
        sched = base.schedule if isinstance(base.schedule, TwoStageSchedule) \
            else TwoStageSchedule()
        return [(f"twarm_{tw}",
                 dataclasses.replace(base, schedule=dataclasses.replace(sched, t_warm=tw)),
                 {})
                for tw in (10, 50, 100, 200, 300, 500)]
    raise ValueError(f"unknown ablation preset {preset!r}; expected one of {ABLATE_PRESETS}")


def cmd_ablate(args) -> int:
    base = _load_config_arg(args)
    spec = load_stream_spec(args.spec)
    seeds = _resolve_seeds(args, base)
    out = _ensure_out(args.out)

    variants = []
    for name, config, kwargs in _ablate_variants(args.preset, base):
        config = validate_config(config)
        rows = []
        exceed = 0
        for seed in seeds:
            traj = run_replication(Method.BPAC, config, spec, args.horizon, seed,
                                   **kwargs)
            rows.append(_final_row(traj, seed))
            risky = traj.deploy_risk if spec.is_iid else traj.weighted_risk
            if np.any(risky > config.epsilon):
                exceed += 1
        variants.append({
            "name": name,
            "config": config_to_dict(config),
            "config_hash": config_digest(config),
            "aggregate": _aggregate(rows),
            "violation_fraction": exceed / len(seeds),
            "replications": rows,
        })

    summary = {"command": "ablate", "preset": args.preset,
               "spec": spec_to_dict(spec), "horizon": args.horizon,
               "seeds": seeds, "variants": variants}
    write_summary_json(out / "ablate_summary.json", summary)
    print(json.dumps({"command": "ablate", "preset": args.preset,
                      "out": str(out),
                      "variants": [v["name"] for v in variants]}, sort_keys=True))
    return EXIT_OK


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
        p.add_argument("--seeds", type=_comma_list(int), default=None,
                       help="comma-separated replication seeds; wins over --n-seeds")
        p.add_argument("--n-seeds", type=_int_at_least(1), default=None,
                       help="run seeds base..base+K-1")
        p.add_argument("--base-seed", type=int, default=0)

    def stream_flags(p: argparse.ArgumentParser, default_horizon: int,
                     least_horizon: int = 0) -> None:
        p.add_argument("--spec", default="uniform_linear",
                       help="built-in stream name or spec JSON path")
        p.add_argument("--horizon", type=_int_at_least(least_horizon),
                       default=default_horizon,
                       help="steps per run" + ("; 0 gives an empty run"
                                               if least_horizon == 0 else ""))

    def method_flags(p: argparse.ArgumentParser, default: str = "bpac") -> None:
        p.add_argument("--method", default=default,
                       help="bpac, o_naive, or ips_hoeff")
        p.add_argument("--hoeff-variant", default="per_point",
                       help="per_point or union_over_grid")
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
    p.add_argument("--coin-seed", type=int, default=None,
                   help="seed for exploration coins (default: config seed)")
    p.add_argument("--emit-wealth-every", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("mc-safety", help="risk-coverage frequency over replications")
    common(p, default_out=None)
    # a coverage verdict or a mean curve needs at least one step
    stream_flags(p, 2000, least_horizon=1)
    method_flags(p)
    p.add_argument("--n-reps", type=_int_at_least(1), default=200)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--criterion", default="auto",
                   help="auto, deployment, or weighted")
    p.add_argument("--workers", type=int, default=None,
                   help="process pool size (default: serial)")
    p.set_defaults(func=cmd_mc_safety)

    p = sub.add_parser("sweep", help="sensitivity of outcomes to the risk budget")
    common(p, default_out="runs/sweep")
    stream_flags(p, 2000)
    method_flags(p)
    seed_flags(p)
    p.add_argument("--epsilons", type=_comma_list(float), default="0.05,0.08,0.1",
                   help="comma-separated risk budgets")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="all methods on shared streams")
    common(p, default_out="runs/compare")
    stream_flags(p, 2000, least_horizon=1)
    seed_flags(p)
    p.add_argument("--hoeff-variant", default="per_point")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="preset design sweeps")
    common(p, default_out="runs/ablate")
    stream_flags(p, 2000, least_horizon=1)
    seed_flags(p)
    p.add_argument("--preset", required=True,
                   help="lambda, rho, or twarm")
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
            TokenDivisionByZero) as exc:
        _emit_error("runtime", str(exc))
        return EXIT_RUNTIME
    except ValueError as exc:
        _emit_error("args", str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
