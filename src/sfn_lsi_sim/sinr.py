"""Per-content SINR evaluation over the cell grid.

For a receiver point and content m, every cell of the point's own LSA that
transmits content m contributes signal, and every cell of the other LSA that
transmits the same subcarriers contributes interference.  The global content
is carried synchronously by all cells, so it sees no cross-LSA interference,
only noise.  Every SINR, of an evaluation area's lattice (``field``) or of
any other pair of 1-D axes (``sinr_at``), takes its zone gains from one
lattice kernel and its value from one own/other/noise expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan, TransmitPlan
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import (
    D_MIN_M,
    ZONES,
    AreaKind,
    EvalArea,
    Grid,
    lattice_axes,
    lsa1_of_x,
    sample_shape,
)
from sfn_lsi_sim.propagation import PathLossModel, gain

SINR_FLOOR_DB = -400.0
"""dB value reported when the received signal power is exactly zero."""

_CHUNK = 16384
"""Most points in the block of whole lattice rows ``SinrEvaluator.field``
reduces to dB at once (one row if a row is longer).  Bounds the field's
per-block SINR temporaries; ``_KERNEL_CHUNK`` bounds the gain build's."""

_KERNEL_CHUNK = 1 << 18
"""Elements per slab of the lattice gain kernel: the kernel rows of one
block of residues mod the y fold period.  Bounds the slab's distance and
gain temporaries; the whole kernel is never held."""


@dataclass(frozen=True)
class RadioEnv:
    """Receiver-side radio constants: noise PSD (W/Hz) and path-loss model."""

    n0: float
    pathloss: PathLossModel

    def __post_init__(self):
        if self.n0 <= 0:
            raise ConfigurationError(f"n0 must be positive (got {self.n0})")


@dataclass(frozen=True)
class SinrField:
    """SINR in dB at every lattice point of an evaluation area.

    ``values`` is 1-D in sampling order (rows of constant y, increasing x,
    bottom row first); ``shape`` is (ny, nx).  All values are finite: points
    with zero received signal carry ``SINR_FLOOR_DB``.  ``SinrEvaluator.field``
    checks that once where it makes the values; restrictions share them
    unchecked.  A field names no scheme or content: one field serves every
    content and plan with its ``field_key``.
    """

    area: EvalArea
    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        self.values.flags.writeable = False
        if self.values.ndim != 1 or self.values.size != self.shape[0] * self.shape[1]:
            raise ValueError(
                f"values length {self.values.size} does not match shape {self.shape}"
            )

    def as_image(self) -> np.ndarray:
        """(ny, nx) view, row index increasing with y."""
        return self.values.reshape(self.shape)


def _db(linear: np.ndarray, out: np.ndarray) -> None:
    """Write ``linear`` in dB into ``out``; zero becomes ``SINR_FLOOR_DB``."""
    out[:] = SINR_FLOOR_DB
    pos = linear > 0.0
    np.log10(linear, out=out, where=pos)
    np.multiply(out, 10.0, out=out, where=pos)


def _fold(towers: np.ndarray, samples: np.ndarray,
          period: int | None = None) -> tuple[int, np.ndarray]:
    """A fold period ``p`` and the offsets ``towers[c] - samples[k]`` at
    index ``k - c*p + (n_towers-1)*p``.

    ``p`` is ``period`` if offsets that share an index are equal, else
    ``samples.size``: then no two offsets share an index and the layout is
    tower by tower, last tower first."""
    if period is not None:
        table = towers[:, None] - samples
        index = (np.arange(samples.size) - period * np.arange(towers.size)[:, None]
                 + period * (towers.size - 1))
        folded = np.zeros(samples.size + period * (towers.size - 1))
        folded[index] = table
        if np.array_equal(folded[index], table):
            return period, folded
    return samples.size, (towers[::-1, None] - samples).ravel()


def _terms(g: np.ndarray, in_lsa1: np.ndarray, key: tuple) -> tuple:
    """(own, other): own-LSA signal and cross-LSA interference of the
    content with ``field_key`` ``key``, from zone gains ``g`` whose first
    axis runs over ``ZONES``.

    ``in_lsa1`` marks LSA1 and broadcasts against ``g[0]``: one flag per
    point, or one per column of a block of lattice rows.  The global content
    is all signal."""
    p, _, is_global = key
    from1 = p[0] * g[0] + p[1] * g[1]
    from2 = p[2] * g[2] + p[3] * g[3]
    if is_global:
        return from1 + from2, 0.0
    return np.where(in_lsa1, from1, from2), np.where(in_lsa1, from2, from1)


class SinrEvaluator:
    """Evaluates SINR fields for one grid and radio environment.

    Each content's power is constant over each band of ``ZONES``, so the
    received power sum over cells factors into four zone terms, p_z * G_z,
    with G_z the gain summed over the zone's cells.  Only the four G_z rows
    are cached per evaluation area and reused by all contents and transmit
    plans.

    Every SINR is built from 1-D axes, never from a point array:
    ``_kernel_gains`` evaluates a gain kernel over tower-to-sample offsets
    and adds its windows, one slab of kernel rows at a time, in cell-index
    order.  A field is reduced block of lattice rows by block; LSA
    membership depends on x alone, so the LSA1 flag is one per column.  The
    gain rows and the output are the only full-size arrays a field touches.
    """

    def __init__(self, grid: Grid, env: RadioEnv):
        self.grid = grid
        self.env = env
        self._tower_axes = grid.tower_axes()
        bands = grid.bands()
        self._band_cells = tuple(np.flatnonzero(bands == z) for z in range(len(ZONES)))
        # Each cell's kernel window origin, (rows-1-row, cols-1-col): its
        # kernel row, and its x offset in fold periods.  Per band, in
        # cell-index order.
        rows, cols = grid.spec.rows, grid.spec.cols
        self._windows = tuple(
            tuple((rows - 1 - c // cols, cols - 1 - c % cols) for c in cells.tolist())
            for cells in self._band_cells)
        self._gains: dict[EvalArea, np.ndarray] = {}

    def _kernel_gains(self, xs: np.ndarray, ys: np.ndarray,
                      period: int | None = None) -> np.ndarray:
        """(4, ny*nx) zone gains at every point of the axes ``xs`` and
        ``ys``, y varying slowest.

        A tower's x depends only on its column and its y only on its row.
        ``_fold`` lays each axis's tower-to-sample offsets out so that tower
        column ``c`` reads the window at ``(cols-1-c) * px`` of ``kx``, and
        likewise for rows.  Where the offsets repeat with the tower
        ``period`` in samples (a lattice at ``resolution`` when
        ``isd / resolution`` is exact), windows overlap and the kernel ``K``
        holds each distinct offset once; otherwise, or with no period,
        ``px`` is the axis's sample count, windows are disjoint and ``K``
        holds every tower-to-sample offset.  Either way every distance is
        one of ``K``'s, evaluated once, and each G_z adds its cells' ``K``
        windows in cell-index order.

        With ``q = ny // py`` window rows, output row ``k*py + r`` reads
        only kernel rows congruent to ``r`` mod ``py``.  ``K`` is evaluated
        one slab at a time, the kernel rows of a block of residues ``r``,
        and the slab's windows are added before the next slab is evaluated.
        """
        rows = self.grid.spec.rows
        tx, ty = self._tower_axes
        px, kx = _fold(tx, xs, period)
        py, ky = _fold(ty, ys, period)
        nx, q = xs.size, ys.size // py
        g = np.zeros((len(ZONES), ys.size * nx))
        out = g.reshape(len(ZONES), q, py, nx)
        ky = ky.reshape(q + rows - 1, py)
        block = max(1, _KERNEL_CHUNK // ky.shape[0] // kx.size)
        for lo in range(0, py, block):
            d = np.hypot(kx, ky[:, lo:lo + block, None])
            np.maximum(d, D_MIN_M, out=d)
            slab = gain(self.env.pathloss, d)
            for acc, windows in zip(out[:, :, lo:lo + block], self._windows):
                for y0, x0 in windows:
                    acc += slab[y0:y0 + q, :, x0 * px:x0 * px + nx]
        return g

    def gains_for(self, area: EvalArea) -> np.ndarray:
        """(4, n_points) read-only zone gains G_z, one row per band of ``ZONES``."""
        g = self._gains.get(area)
        if g is None:
            g = self._kernel_gains(*lattice_axes(area, self.grid.spec), area.resolution)
            g.flags.writeable = False
            self._gains[area] = g
        return g

    def zone_powers(self, tp: TransmitPlan, content_id: int) -> np.ndarray:
        """Content ``content_id``'s transmit power in each band of ``ZONES``.

        Every scheme gives a content one power per band; a plan whose
        power varies inside a band is rejected, naming the band.  Empty bands
        carry 0.
        """
        p = tp.power[:, content_id - 1]
        out = np.zeros(len(ZONES))
        for z, cells in enumerate(self._band_cells):
            if cells.size == 0:
                continue
            band = p[cells]
            if (band != band[0]).any():
                raise ValueError(
                    f"content {content_id} power varies within zone {ZONES[z]} "
                    f"(scheme {tp.scheme.label}); the engine needs one power per zone"
                )
            out[z] = band[0]
        return out

    def field_key(self, content_id: int, tp: TransmitPlan, plan: ContentPlan) -> tuple:
        """What fixes content ``content_id``'s field on any area: its zone
        powers, its noise bandwidth and whether it is the global content.

        ``_linear`` reads nothing else of the content, so contents and plans
        with equal keys have equal fields.
        """
        if not 1 <= content_id <= plan.m_count:
            raise ValueError(f"content_id must be in 1..{plan.m_count} (got {content_id})")
        if tp.grid.spec != self.grid.spec:
            raise ConfigurationError("transmit plan was allocated on a different grid")
        return (tuple(self.zone_powers(tp, content_id)), plan.bandwidth_of(content_id),
                content_id == 1)

    def _linear(self, g: np.ndarray, in_lsa1: np.ndarray, key: tuple) -> np.ndarray:
        """Linear SINR of the content with ``field_key`` ``key`` from zone
        gains ``g``: ``_terms``' own signal over its interference plus
        noise."""
        own, other = _terms(g, in_lsa1, key)
        return own / (other + self.env.n0 * key[1])

    def field(
        self, area: EvalArea, content_id: int, tp: TransmitPlan, plan: ContentPlan
    ) -> SinrField:
        """SINR in dB of content ``content_id`` under ``tp`` at every lattice
        point of ``area``.

        The area's zone gains are built on first use and cached; the field
        depends on the content only through its ``field_key``.
        """
        xs, ys = lattice_axes(area, self.grid.spec)
        g = self.gains_for(area).reshape(len(ZONES), ys.size, xs.size)
        in_lsa1 = lsa1_of_x(xs, self.grid.spec)
        key = self.field_key(content_id, tp, plan)
        values = np.empty((ys.size, xs.size))
        step = max(1, _CHUNK // xs.size)
        for lo in range(0, ys.size, step):
            _db(self._linear(g[:, lo:lo + step], in_lsa1, key), values[lo:lo + step])
        if not np.isfinite(values).all():
            raise ValueError("SINR field contains non-finite values")
        return SinrField(area=area, values=values.ravel(), shape=values.shape)

    def restrict(self, field: SinrField, area: EvalArea) -> SinrField:
        """``field`` on ``area``: the field itself, or the left columns of an
        A2 field when ``area`` is A1 at the same resolution.  Both lattices
        step by isd/resolution from x = 0, and every point's value depends
        only on that point's zone gains and x, so these are the bytes of
        ``field(area, ...)``."""
        if area == field.area:
            return field
        if area.kind is not AreaKind.A1 or field.area != EvalArea(
            kind=AreaKind.A2, resolution=area.resolution
        ):
            raise ValueError(f"cannot take area {area} from a field on {field.area}")
        ny, nx = sample_shape(area, self.grid.spec)
        return SinrField(area=area, values=field.as_image()[:, :nx].ravel(), shape=(ny, nx))


@lru_cache(maxsize=1)
def _evaluator(grid: Grid, env: RadioEnv) -> SinrEvaluator:
    """The evaluator of the last (grid, env) ``sinr_at`` saw: callers such
    as the oracle suite make many point calls on one grid in a row."""
    return SinrEvaluator(grid, env)


def sinr_at(
    xs: np.ndarray,
    ys: np.ndarray,
    content_id: int,
    tp: TransmitPlan,
    env: RadioEnv,
    plan: ContentPlan,
) -> np.ndarray:
    """(ny, nx) linear SINR at every point (x, y) of the 1-D axes ``xs``
    and ``ys``, which need not be sorted, evenly spaced or inside the grid.

    Computed by the gain kernel and SINR expression of
    ``SinrEvaluator.field``, with no fold period, so a lattice's axes get
    the field's values.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    evaluator = _evaluator(tp.grid, env)
    key = evaluator.field_key(content_id, tp, plan)
    g = evaluator._kernel_gains(xs, ys).reshape(len(ZONES), ys.size, xs.size)
    return evaluator._linear(g, lsa1_of_x(xs, tp.grid.spec), key)
