"""Calibration of timings against a fixed reference loop.

The benchmark's reference machine is shared with other tenants, and its
speed drifts by up to half, both within seconds and between runs minutes
apart. CPU time drifts with wall time, so this is slower execution, not
waiting, and no CPU choice avoids it. Each timed window is therefore
bracketed by reference blocks: a fixed loop of numpy operations on arrays
of the workload's grid width, which calls no bpac code. A window's time
is scaled by REFERENCE_S over the mean of its two blocks, so it reads as
if the reference loop had taken REFERENCE_S. A change to bpac moves the
window and not the blocks, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np


def reference_block(n: int) -> float:
    """Seconds for a fixed loop of numpy operations on n-wide arrays, without bpac."""
    x = np.linspace(0.0, 1.0, n)
    y = np.ones(n)
    book: dict[int, tuple[int, float]] = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(2500):
        a = np.clip(x / (y + 1.0), 0.0, 0.5)
        y = y + np.log1p(a * 0.01)
        hits = np.flatnonzero(a >= 0.25)
        acc += float(hits[-1]) if hits.size else 0.0
        book[i % 97] = (i, acc)
    return time.perf_counter() - t0


class Calibration:
    """Reference blocks taken between timed windows, and the scale they give."""

    REFERENCE_S = {101: 0.025, 1001: 0.040, 10001: 0.165}

    def __init__(self, grid_size: int) -> None:
        self.n = grid_size
        self.nominal = self.REFERENCE_S[grid_size]
        self.blocks: list[float] = []

    def mark(self) -> float:
        """Run one reference block; returns the scale for the window it closes."""
        self.blocks.append(reference_block(self.n))
        if len(self.blocks) < 2:
            return 1.0
        return self.nominal / ((self.blocks[-2] + self.blocks[-1]) / 2)
