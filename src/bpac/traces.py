"""Recorded query streams on disk.

A trace CSV carries one row per query with the columns
``index,uncertainty,loss,tokens_cheap,tokens_expensive``. The loss
column holds the latent loss of the cheap route for every query; the
router only ever reads it through the loss gate, on escalated steps.
Indices must run contiguously from 1 so a replay is unambiguous about
step order.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .core import StreamObservation

TRACE_COLUMNS = ["index", "uncertainty", "loss", "tokens_cheap", "tokens_expensive"]


class TraceFormatError(ValueError):
    """Bad trace file; carries the 1-based data row number when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        prefix = f"row {row}: " if row is not None else ""
        super().__init__(prefix + message)


def _non_negative_int(text: str, name: str, row: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise TraceFormatError(f"{name} must be an integer, got {text!r}", row) from None
    if value < 0:
        raise TraceFormatError(f"{name} must be non-negative, got {value}", row)
    return value


def _unit_float(text: str, name: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TraceFormatError(f"{name} must be a number, got {text!r}", row) from None
    if not 0.0 <= value <= 1.0:
        raise TraceFormatError(f"{name} must lie in [0, 1], got {value}", row)
    return value


def load_trace(path: str | Path) -> list[StreamObservation]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError("trace file is empty") from None
        if header != TRACE_COLUMNS:
            raise TraceFormatError(
                f"header must be exactly {','.join(TRACE_COLUMNS)}, got {','.join(header)}")
        events: list[StreamObservation] = []
        row_no = 0
        for row in reader:
            if not row:
                continue
            row_no += 1
            if len(row) != len(TRACE_COLUMNS):
                raise TraceFormatError(
                    f"expected {len(TRACE_COLUMNS)} fields, got {len(row)}", row_no)
            index = _non_negative_int(row[0], "index", row_no)
            if index != row_no:
                raise TraceFormatError(
                    f"index must be contiguous from 1; expected {row_no}, got {index}",
                    row_no)
            events.append(StreamObservation(
                index=index,
                uncertainty=_unit_float(row[1], "uncertainty", row_no),
                latent_loss=_unit_float(row[2], "loss", row_no),
                tokens_cheap=_non_negative_int(row[3], "tokens_cheap", row_no),
                tokens_expensive=_non_negative_int(row[4], "tokens_expensive", row_no)))
    return events


def write_trace(path: str | Path, events: list[StreamObservation]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for obs in events:
        lines.append(f"{obs.index},{float(obs.uncertainty)!r},{float(obs.latent_loss)!r},"
                     f"{obs.tokens_cheap},{obs.tokens_expensive}")
    Path(path).write_text("\n".join(lines) + "\n")
