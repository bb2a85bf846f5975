"""Deterministic on-disk formats for trajectories and summaries.

Every result CSV is written by ``write_table``: floats in their shortest
round-trip form, rows in step order. JSON keys are sorted. So rerunning
the same configuration yields byte-identical files.

Most trajectory columns repeat a handful of values (rates, propensities,
losses), so a float column formats each distinct bit pattern once and
gathers its cells by index. Keying on the bits, not the value, keeps
``0.0`` apart from ``-0.0`` and each NaN payload apart, so every cell is
the same text that ``str`` of its own scalar gives.
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


def write_table(path: str | Path, columns: dict[str, Any],
                comment: str | None = None) -> None:
    """Write equal-length columns as CSV, in the mapping's column order.

    An optional ``# comment`` line comes first, then the column names, then
    one line per row. Each cell is ``str`` of the column's Python scalar
    (``np.asarray(col).tolist()``): ints stay digits, floats take their
    shortest round-trip form, NaN is ``nan`` and strings are unchanged.
    """
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    cells = [_cells(np.asarray(col)) for col in columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    Path(path).write_text("\n".join(lines) + "\n")


def _cells(col: np.ndarray):
    """``str`` of each element's Python scalar, each distinct float64 bit
    pattern of a 1-D column formatted once."""
    if col.dtype != np.float64 or col.ndim != 1:
        return map(str, col.tolist())
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([str(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[index].tolist()


def write_trajectory(path: str | Path, traj: Trajectory) -> None:
    columns = {name: [traj.method] * traj.horizon if name == "method"
               else getattr(traj, name) for name in TRAJECTORY_COLUMNS}
    write_table(path, columns, comment=f"config_hash={traj.config_hash}")


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
    steps = [t_snap for t_snap, _ in traj.wealth_snapshots]
    write_table(path, {"t": np.repeat(steps, len(grid_values)),
                       "u": np.tile(grid_values, len(steps)),
                       "log_wealth": np.ravel([w for _, w in traj.wealth_snapshots])},
                comment=f"config_hash={traj.config_hash}")


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
