"""Shared test fixtures that are plain functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan
from sfn_lsi_sim.grid import D_MIN_M, ZONES, Grid, GridSpec
from sfn_lsi_sim.propagation import gain


def equal_split(
    m_count: int,
    total_power_w: float,
    total_bandwidth_hz: float,
    subcarriers_per_content: int = 1000,
    mod_order: int = 64,
    t_sym: float = 1e-3,
) -> ContentPlan:
    """Plan with equal powers, bandwidths and modulation for every content."""
    return ContentPlan(
        m_count=m_count,
        bandwidth_hz=(total_bandwidth_hz / m_count,) * m_count,
        subcarriers=(subcarriers_per_content,) * m_count,
        mod_order=(mod_order,) * m_count,
        t_sym=t_sym,
        base_power=(total_power_w / m_count,) * m_count,
    )


@dataclass(frozen=True)
class CellRef:
    """One cell of a grid, derived here from the spec alone: the column
    from the row-major index, LSA and buffer zone from the column."""

    index: int
    col: int
    in_lsa1: bool
    zone: str


INTERIOR, LEFT_BUFFER, RIGHT_BUFFER = "interior", "left_buffer", "right_buffer"


def cell_refs(spec: GridSpec) -> list[CellRef]:
    """Every cell of ``spec`` in cell-index order."""
    lb_lo = spec.lsa1_cols - spec.buffer_cols_per_side
    rb_hi = spec.lsa1_cols + spec.buffer_cols_per_side
    cells = []
    for index in range(spec.rows * spec.cols):
        col = index % spec.cols
        if lb_lo <= col < spec.lsa1_cols:
            zone = LEFT_BUFFER
        elif spec.lsa1_cols <= col < rb_hi:
            zone = RIGHT_BUFFER
        else:
            zone = INTERIOR
        cells.append(CellRef(index, col, col < spec.lsa1_cols, zone))
    return cells


def zone_gains(grid: Grid, env, points: np.ndarray) -> np.ndarray:
    """(4, n) zone gains G_z at ``points`` (shape (n, 2)), point by point:
    every tower-to-point distance, its gain, and each zone's cell rows added
    in cell-index order.  The reference the engine's lattice kernel must
    match byte for byte.  Chunks of 16,384 points bound the temporaries;
    every step is elementwise, so they do not change a bit."""
    xs, ys = grid.tower_axes()
    towers = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    bands = grid.bands()
    g = np.zeros((len(ZONES), points.shape[0]))
    for lo in range(0, points.shape[0], 16384):
        hi = lo + 16384
        d = np.hypot(towers[:, 0:1] - points[lo:hi, 0], towers[:, 1:2] - points[lo:hi, 1])
        np.maximum(d, D_MIN_M, out=d)
        cell_gains = gain(env.pathloss, d)
        for z in range(len(ZONES)):
            for c in np.flatnonzero(bands == z):
                g[z, lo:hi] += cell_gains[c]
    return g
