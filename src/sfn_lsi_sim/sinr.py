"""Per-content SINR evaluation over the cell grid.

For a receiver point and content m, every cell of the point's own LSA that
transmits content m contributes signal, and every cell of the other LSA that
transmits the same subcarriers contributes interference.  The global content
is carried synchronously by all cells, so it sees no cross-LSA interference,
only noise.  Every SINR, of an evaluation area's lattice (``field`` and the
run's reduction) or of any other pair of 1-D axes (``sinr_at``), is a dB
block made by ``SinrEvaluator.scan``: zone gains from one lattice kernel,
one own/other/noise expression, one dB conversion and one finite check.
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
    EvalArea,
    Grid,
    lattice_axes,
    lsa1_of_x,
)
from sfn_lsi_sim.propagation import PathLossModel, gain

SINR_FLOOR_DB = -400.0
"""dB value reported when the received signal power is exactly zero."""

_CHUNK = 16384
"""Most points in the block of whole lattice rows ``SinrEvaluator.scan``
reduces to dB at once, per key (one row if a row is longer).  Bounds a
key's per-block SINR temporaries; ``_KERNEL_CHUNK`` bounds the slab's."""

_KERNEL_CHUNK = 1 << 17
"""Elements per slab of the lattice gain kernel: the kernel rows of one
block of residues mod the y fold period.  Bounds the slab's distance buffer,
in which its gains are evaluated in place; the zone gains of the lattice
rows the slab feeds take at most four times as many elements.  Neither the
whole kernel nor an area's whole gains are ever held.  With fresh slab
buffers, 2**17 measured as fast as 2**18 and kept the 6x12 maps-on sweep's
peak RSS about 1.3 MiB lower."""


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
    with zero received signal carry ``SINR_FLOOR_DB``; ``SinrEvaluator.scan``
    checks that where it makes the values.  A field names no scheme or
    content: one field serves every content and plan with its ``field_key``.
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
    """Evaluates SINR for one grid and radio environment.

    Each content's power is constant over each band of ``ZONES``, so the
    received power sum over cells factors into four zone terms, p_z * G_z,
    with G_z the gain summed over the zone's cells.  All contents and
    transmit plans read the same four G_z rows; only the powers differ.

    Every SINR is built from 1-D axes, never from a point array: ``_slabs``
    evaluates a gain kernel over tower-to-sample offsets one slab of kernel
    rows at a time and adds its windows, in cell-index order, into the G_z
    of the lattice rows that slab feeds.  ``scan`` reduces each slab's rows
    to every requested key's dB values before the next slab is built, so an
    area's G_z are never held whole and its values only by a caller that
    keeps them (``field`` and ``sinr_at``).  LSA membership depends on x
    alone, so the LSA1 flag is one per column.
    """

    def __init__(self, grid: Grid, env: RadioEnv):
        self.grid = grid
        self.env = env
        self._tower_axes = grid.tower_axes()
        self._bands = grid.bands()
        # Each non-empty band and its first cell.
        self._zones, self._firsts = np.unique(self._bands, return_index=True)
        # Each cell's kernel window origin, (rows-1-row, cols-1-col): its
        # kernel row, and its x offset in fold periods.  Per band, in
        # cell-index order.
        rows, cols = grid.spec.rows, grid.spec.cols
        self._windows = tuple(
            tuple((rows - 1 - c // cols, cols - 1 - c % cols)
                  for c in np.flatnonzero(self._bands == z).tolist())
            for z in range(len(ZONES)))

    def _slabs(self, xs: np.ndarray, ys: np.ndarray, period: int | None = None,
               in_order: bool = False):
        """Zone gains at every point of the axes ``xs`` and ``ys``, one
        kernel slab at a time: yields ``(rows, g)``, the indices into ``ys``
        of the slab's lattice rows and their (4, len(rows), nx) zone gains,
        a fresh array per slab.  Every row comes from exactly one slab.

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
        with the gains computed in place in the slab's distance buffer; the
        slab feeds rows ``k*py + r`` for every ``k`` and every ``r`` of its
        block, listed ``k``-major.

        ``in_order`` leaves the y axis unfolded whatever ``period`` is:
        ``py`` is ``ys.size``, ``q`` is 1, and each slab is a block of
        consecutive rows of ``ys``, the slabs in ascending row order.  That
        takes ``rows*q / (q+rows-1)`` times the kernel evaluations of the
        folded y axis, which cannot give rows in order without holding
        every residue's ``q+rows-1`` kernel rows at once.
        """
        rows = self.grid.spec.rows
        tx, ty = self._tower_axes
        px, kx = _fold(tx, xs, period)
        py, ky = _fold(ty, ys, None if in_order else period)
        nx, q = xs.size, ys.size // py
        ky = ky.reshape(q + rows - 1, py)
        block = max(1, _KERNEL_CHUNK // ky.shape[0] // kx.size)
        for lo in range(0, py, block):
            d = np.hypot(kx, ky[:, lo:lo + block, None])
            np.maximum(d, D_MIN_M, out=d)
            slab = gain(self.env.pathloss, d, out=d)
            residues = np.arange(lo, lo + slab.shape[1])
            g = np.zeros((len(ZONES), q, residues.size, nx))
            for acc, windows in zip(g, self._windows):
                for y0, x0 in windows:
                    acc += slab[y0:y0 + q, :, x0 * px:x0 * px + nx]
            # Free the kernel slab before the caller reduces its rows.
            del d, slab
            rows_fed = (py * np.arange(q)[:, None] + residues).ravel()
            yield rows_fed, g.reshape(len(ZONES), rows_fed.size, nx)

    def gains_for(self, area: EvalArea) -> np.ndarray:
        """(4, n_points) read-only zone gains G_z of ``area``'s lattice, one
        row per band of ``ZONES``, assembled from ``_slabs`` afresh on every
        call.

        No run reads it: ``scan`` never holds an area's gains whole.  It is
        kept for the kernel byte tests and for the benchmark's list of
        traced layer entry points, until that list names stages."""
        xs, ys = lattice_axes(area, self.grid.spec)
        g = np.empty((len(ZONES), ys.size, xs.size))
        for rows, slab in self._slabs(xs, ys, area.resolution):
            g[:, rows] = slab
        g.flags.writeable = False
        return g.reshape(len(ZONES), -1)

    def zone_powers(self, tp: TransmitPlan, content_id: int) -> np.ndarray:
        """Content ``content_id``'s transmit power in each band of ``ZONES``.

        Every scheme gives a content one power per band; a plan whose
        power varies inside a band is rejected, naming the band.  Empty bands
        carry 0.
        """
        p = tp.power[:, content_id - 1]
        out = np.zeros(len(ZONES))
        out[self._zones] = p[self._firsts]
        varies = p != out[self._bands]
        if varies.any():
            raise ValueError(
                f"content {content_id} power varies within zone "
                f"{ZONES[self._bands[varies].min()]} "
                f"(scheme {tp.scheme.label}); the engine needs one power per zone"
            )
        return out

    def field_key(self, content_id: int, tp: TransmitPlan, plan: ContentPlan) -> tuple:
        """What fixes content ``content_id``'s field on any area: its zone
        powers, its noise bandwidth and whether it is the global content.

        ``scan`` reads nothing else of the content, so contents and plans
        with equal keys have equal fields.
        """
        if not 1 <= content_id <= plan.m_count:
            raise ValueError(f"content_id must be in 1..{plan.m_count} (got {content_id})")
        if tp.grid.spec != self.grid.spec:
            raise ConfigurationError("transmit plan was allocated on a different grid")
        return (tuple(self.zone_powers(tp, content_id)), plan.bandwidth_of(content_id),
                content_id == 1)

    def scan(self, xs: np.ndarray, ys: np.ndarray, keys: list[tuple],
             period: int | None = None, in_order: bool = False):
        """SINR in dB at every point of the 1-D axes ``xs`` and ``ys`` for
        every ``field_key`` in ``keys``, in one pass over the gain kernel of
        ``_slabs`` with fold ``period`` and ``in_order``.  This is the one
        place zone gains become SINR values.

        Yields ``(rows, i, values)``: the (len(rows), nx) dB values of
        ``keys[i]`` at the rows ``rows`` of ``ys``.  Per kernel slab, the
        slab's rows are taken in blocks of at most ``_CHUNK`` points, and
        each block yields every key in turn.  Across the scan each key gets
        every row exactly once: in ascending order of ``rows`` with
        ``in_order``, else in no fixed order.  Values are checked finite as
        they are made; each block is a fresh array.
        """
        in_lsa1 = lsa1_of_x(xs, self.grid.spec)
        step = max(1, _CHUNK // xs.size)
        for rows, g in self._slabs(xs, ys, period, in_order):
            for lo in range(0, rows.size, step):
                block = g[:, lo:lo + step]
                for i, key in enumerate(keys):
                    values = np.empty(block.shape[1:])
                    own, other = _terms(block, in_lsa1, key)
                    _db(own / (other + self.env.n0 * key[1]), values)
                    # Free the terms before the caller reduces the block.
                    del own, other
                    if not np.isfinite(values).all():
                        raise ValueError("SINR field contains non-finite values")
                    yield rows[lo:lo + step], i, values

    def _whole(self, xs: np.ndarray, ys: np.ndarray, key: tuple,
               period: int | None = None) -> np.ndarray:
        """(ny, nx) dB values of one key: its ``scan`` blocks, assembled."""
        values = np.empty((ys.size, xs.size))
        for rows, _, block in self.scan(xs, ys, [key], period):
            values[rows] = block
        return values

    def field(
        self, area: EvalArea, content_id: int, tp: TransmitPlan, plan: ContentPlan
    ) -> SinrField:
        """SINR in dB of content ``content_id`` under ``tp`` at every lattice
        point of ``area``: ``scan`` of the content's ``field_key`` alone over
        the lattice's axes, folded with the area's period, kept whole."""
        key = self.field_key(content_id, tp, plan)
        values = self._whole(*lattice_axes(area, self.grid.spec), key, area.resolution)
        return SinrField(area=area, values=values.ravel(), shape=values.shape)


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
    """(ny, nx) SINR in dB at every point (x, y) of the 1-D axes ``xs``
    and ``ys``, which need not be sorted, evenly spaced or inside the grid.

    The blocks of ``SinrEvaluator.scan`` with no fold period, assembled as
    ``field`` assembles them, so a lattice's axes get the field's bytes.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    evaluator = _evaluator(tp.grid, env)
    return evaluator._whole(xs, ys, evaluator.field_key(content_id, tp, plan))
