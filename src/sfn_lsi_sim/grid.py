"""Two-LSA rectangular cell grid with buffer columns.

Cells are squares of side ``isd`` with one omnidirectional tower at the
center of each cell, indexed row-major from the bottom-left.  Columns
``[0, lsa1_cols)`` belong to LSA1, the rest to LSA2.  The rightmost LSA1
column(s) form the left buffer (LB), the leftmost LSA2 column(s) the right
buffer (RB).  Every cell property is a function of its row and column, so
the grid is computed from its spec on demand.  All data is immutable and
safe for concurrent read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from sfn_lsi_sim.errors import ConfigurationError

# Propagation models diverge as d -> 0; below tower height the models are
# not valid anyway, so the engine clamps distances to this floor.
D_MIN_M = 20.0


ZONES = ("lsa1_interior", "left_buffer", "right_buffer", "lsa2_interior")
"""The four (LSA, buffer-zone) power bands, indexed by ``Grid.bands``.  The
first two hold the LSA1 cells, the last two the LSA2 cells."""


class AreaKind(Enum):
    A1 = "A1"
    A2 = "A2"


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the cell grid and its LSA / buffer split."""

    rows: int = 8
    cols: int = 10
    isd: float = 1700.0
    lsa1_cols: int = 5
    buffer_cols_per_side: int = 1

    def __post_init__(self):
        if self.rows < 1:
            raise ConfigurationError(f"rows must satisfy rows >= 1 (got {self.rows})")
        if self.cols < 2:
            raise ConfigurationError(f"cols must satisfy cols >= 2 (got {self.cols})")
        if not 1 <= self.lsa1_cols < self.cols:
            raise ConfigurationError(
                f"lsa1_cols must satisfy 1 <= lsa1_cols < cols "
                f"(got {self.lsa1_cols}, cols={self.cols})"
            )
        if self.isd <= 0:
            raise ConfigurationError(f"isd must be positive (got {self.isd})")
        max_buffer = min(self.lsa1_cols, self.cols - self.lsa1_cols)
        if not 1 <= self.buffer_cols_per_side <= max_buffer:
            raise ConfigurationError(
                f"buffer_cols_per_side must satisfy 1 <= buffer_cols_per_side <= "
                f"min(lsa1_cols, cols - lsa1_cols) = {max_buffer} "
                f"(got {self.buffer_cols_per_side})"
            )


@dataclass(frozen=True)
class EvalArea:
    """Rectangular evaluation area sampled on a regular lattice.

    ``A1`` covers exactly the LSA1 columns, ``A2`` the whole grid.
    ``resolution`` is the number of samples per cell edge, so each cell
    footprint holds resolution^2 points.
    """

    kind: AreaKind
    resolution: int = 10

    def __post_init__(self):
        if self.resolution < 1:
            raise ConfigurationError(
                f"resolution must satisfy resolution >= 1 (got {self.resolution})"
            )


@dataclass(frozen=True)
class Grid:
    """The cells of a GridSpec, indexed row-major: cell ``c`` sits in row
    ``c // cols`` and column ``c % cols``."""

    spec: GridSpec

    @classmethod
    def from_spec(cls, spec: GridSpec) -> "Grid":
        return cls(spec)

    @property
    def cells(self) -> range:
        return range(self.spec.rows * self.spec.cols)

    def tower_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Tower x of each column and tower y of each row."""
        spec = self.spec
        return (np.arange(spec.cols) + 0.5) * spec.isd, (np.arange(spec.rows) + 0.5) * spec.isd

    def bands(self) -> np.ndarray:
        """Each cell's index into ``ZONES``, in cell-index order.  Every row
        runs through the four bands left to right: ``lsa1_cols - buffer``
        LSA1 interior columns, ``buffer`` left-buffer and ``buffer``
        right-buffer columns, then the LSA2 interior."""
        spec = self.spec
        b = spec.buffer_cols_per_side
        row = np.repeat(np.arange(len(ZONES)),
                        (spec.lsa1_cols - b, b, b, spec.cols - spec.lsa1_cols - b))
        return np.tile(row, spec.rows)

    def lsa1_mask(self) -> np.ndarray:
        return self.bands() < 2


def lsa1_of_x(x: np.ndarray, spec: GridSpec) -> np.ndarray:
    """True where x lies in an LSA1 column: LSA membership is geometric and
    depends on x alone.  An x outside the grid snaps to the nearest column."""
    col = np.clip(np.floor(x / spec.isd), 0, spec.cols - 1)
    return col < spec.lsa1_cols


def lattice_axes(area: EvalArea, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D sample coordinates (xs, ys) of the lattice over ``area``.

    Each cell footprint receives resolution^2 points placed at sub-square
    midpoints, so a one-cell area at resolution 1 samples the cell center.
    A1 and A2 step by ``isd / resolution`` from the origin, so the A1 lattice
    is exactly the leftmost columns of the A2 lattice at the same resolution.
    """
    ny, nx = sample_shape(area, spec)
    step = spec.isd / area.resolution
    return (np.arange(nx) + 0.5) * step, (np.arange(ny) + 0.5) * step


def sample_points(area: EvalArea, spec: GridSpec) -> np.ndarray:
    """Deterministic row-major lattice over ``area``, shape (n, 2): every
    (x, y) of ``lattice_axes``, y varying slowest.

    The engine builds every SINR from 1-D axes and never calls this; it
    stays for the tests, which check the lattice ordering and feed the
    point-by-point references, and for the benchmark's list of traced layer
    entry points."""
    gx, gy = np.meshgrid(*lattice_axes(area, spec))
    return np.column_stack([gx.ravel(), gy.ravel()])


def sample_shape(area: EvalArea, spec: GridSpec) -> tuple[int, int]:
    """(ny, nx) lattice shape matching ``sample_points`` ordering: every
    row of cells, and the LSA1 columns (A1) or all columns (A2), at
    ``resolution`` samples per cell edge."""
    cols = spec.lsa1_cols if area.kind is AreaKind.A1 else spec.cols
    return spec.rows * area.resolution, cols * area.resolution
