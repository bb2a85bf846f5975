"""Deterministic on-disk formats for trajectories and summaries.

Floats are rendered with repr (shortest round-trip form), rows are
emitted in step order, and JSON keys are sorted, so rerunning the same
configuration yields byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .simulation import Trajectory

TRAJECTORY_COLUMNS = [
    "t", "uncertainty", "rho", "pi", "xi", "u_hat", "ecp", "tp", "er",
    "latent_loss", "realized_loss", "deploy_risk", "cond_risk",
    "weighted_risk", "mean_cond_risk", "method",
]

_INT_COLUMNS = {"t", "xi"}


class RecordFormatError(ValueError):
    """Trajectory file does not match the expected layout."""


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def write_trajectory(path: str | Path, traj: Trajectory) -> None:
    lines = [f"# config_hash={traj.config_hash}", ",".join(TRAJECTORY_COLUMNS)]
    for i in range(traj.horizon):
        row = []
        for name in TRAJECTORY_COLUMNS:
            if name == "method":
                row.append(traj.method)
            elif name in _INT_COLUMNS:
                row.append(str(int(getattr(traj, name)[i])))
            else:
                row.append(_fmt(getattr(traj, name)[i]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path: str | Path) -> Trajectory:
    text = Path(path).read_text()
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config_hash="):
        raise RecordFormatError(f"{path}: missing config_hash header line")
    config_hash = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    if header != TRAJECTORY_COLUMNS:
        raise RecordFormatError(f"{path}: unexpected columns {header}")
    rows = [line.split(",") for line in lines[2:] if line]
    data: dict[str, Any] = {}
    for j, name in enumerate(TRAJECTORY_COLUMNS):
        if name == "method":
            continue
        dtype = np.int64 if name in _INT_COLUMNS else float
        data[name] = np.array([dtype(row[j]) for row in rows], dtype=dtype)
    method = rows[0][TRAJECTORY_COLUMNS.index("method")] if rows else ""
    return Trajectory(method=method, seed=-1, config_hash=config_hash, **data)


def write_wealth_snapshots(path: str | Path, traj: Trajectory,
                           grid_values: np.ndarray) -> None:
    """Long-format log-wealth table: one row per (snapshot step, grid point)."""
    lines = [f"# config_hash={traj.config_hash}", "t,u,log_wealth"]
    for t_snap, wealth in traj.wealth_snapshots:
        for u, w in zip(grid_values, wealth):
            lines.append(f"{t_snap},{_fmt(u)},{_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def write_summary_json(path: str | Path, payload: dict[str, Any]) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
