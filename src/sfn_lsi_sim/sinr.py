"""Per-content SINR evaluation over the cell grid.

For a receiver point and content m, every cell of the point's own LSA that
transmits content m contributes signal, and every cell of the other LSA that
transmits the same subcarriers contributes interference.  The global content
is carried synchronously by all cells, so it sees no cross-LSA interference,
only noise.  Lattice fields and point arrays go through the same two steps,
zone gains and one own/other/noise expression, so a point gets the same
bytes on either path.
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
"""Points per chunk of the point path (``_zone_gains``), and the most points
in the block of whole lattice rows ``SinrEvaluator.field`` reduces at once
(one row if a row is longer).  Bounds the point path's (n_cells, chunk)
distance and gain temporaries and the field's per-block SINR temporaries.
Lattice gains take the kernel path, which ``_KERNEL_CHUNK`` bounds."""

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


def _fold(towers: np.ndarray, samples: np.ndarray, period: int) -> tuple[int, np.ndarray]:
    """A fold period ``p`` and the offsets ``towers[c] - samples[k]`` at
    index ``k - c*p + (n_towers-1)*p``.

    ``p`` is ``period`` if offsets that share an index are equal, else
    ``samples.size``: then no two offsets share an index, so the fold always
    succeeds."""
    table = towers[:, None] - samples
    index = (np.arange(samples.size) - period * np.arange(towers.size)[:, None]
             + period * (towers.size - 1))
    folded = np.zeros(samples.size + period * (towers.size - 1))
    folded[index] = table
    if period == samples.size or np.array_equal(folded[index], table):
        return period, folded
    return _fold(towers, samples, samples.size)


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

    Every lattice is built from its 1-D axes (``grid.lattice_axes``), not
    from a point array: ``_kernel_gains`` evaluates a gain kernel over
    tower-to-sample offsets and adds its windows, one slab of kernel rows at
    a time, with the addends and order of ``_zone_gains``, hence its bytes.
    Point arrays (``sinr_at``) take ``_zone_gains``.  A field is reduced
    block of lattice rows by block; LSA membership depends on x alone, so
    the LSA1 flag is one per column.  The gain rows and the output are the
    only full-size arrays a field touches.
    """

    def __init__(self, grid: Grid, env: RadioEnv):
        self.grid = grid
        self.env = env
        self._towers = grid.towers()
        bands = grid.bands()
        self._band_cells = tuple(np.flatnonzero(bands == z) for z in range(len(ZONES)))
        self._gains: dict[EvalArea, np.ndarray] = {}

    def _zone_gains(self, points: np.ndarray) -> np.ndarray:
        """(4, n) zone gains G_z at ``points`` (shape (n, 2))."""
        g = np.empty((len(ZONES), points.shape[0]))
        for lo in range(0, points.shape[0], _CHUNK):
            hi = lo + _CHUNK
            dx = self._towers[:, 0:1] - points[lo:hi, 0]
            dy = self._towers[:, 1:2] - points[lo:hi, 1]
            d = np.hypot(dx, dy, out=dx)
            np.maximum(d, D_MIN_M, out=d)
            cell_gains = gain(self.env.pathloss, d)
            # Row-by-row sums in cell-index order: elementwise, so a
            # point's G_z never depends on the chunk it falls in.
            for z, cells in enumerate(self._band_cells):
                acc = g[z, lo:hi]
                acc[:] = 0.0
                for c in cells:
                    acc += cell_gains[c]
        return g

    def _kernel_gains(self, area: EvalArea) -> np.ndarray:
        """(4, n) zone gains on the lattice of ``area``.

        A tower's x depends only on its column and its y only on its row.
        ``_fold`` lays each axis's tower-to-sample offsets out so that tower
        column ``c`` reads the window at ``(cols-1-c) * px`` of ``kx``, and
        likewise for rows.  Where the offsets repeat with the tower period
        (``resolution`` samples; A1 and A2 when ``isd / resolution`` is
        exact), windows overlap and the kernel ``K`` holds each distinct
        offset once; otherwise ``px`` is the axis's sample count, windows
        are disjoint and ``K`` holds every tower-to-sample offset.  Either
        way every distance is one of ``K``'s, evaluated once, and each G_z
        adds its cells' ``K`` windows in cell-index order.

        With ``q = ny // py`` window rows, output row ``k*py + r`` reads
        only kernel rows congruent to ``r`` mod ``py``.  ``K`` is evaluated
        one slab at a time, the kernel rows of a block of residues ``r``,
        and the slab's windows are added before the next slab is evaluated.
        """
        spec = self.grid.spec
        cols, rows = spec.cols, spec.rows
        xs, ys = lattice_axes(area, spec)
        tx, ty = self.grid.tower_axes()
        px, kx = _fold(tx, xs, area.resolution)
        py, ky = _fold(ty, ys, area.resolution)
        nx, q = xs.size, ys.size // py
        g = np.zeros((len(ZONES), ys.size * nx))
        out = g.reshape(len(ZONES), q, py, nx)
        ky = ky.reshape(q + rows - 1, py)
        block = max(1, _KERNEL_CHUNK // ky.shape[0] // kx.size)
        for lo in range(0, py, block):
            d = np.hypot(kx, ky[:, lo:lo + block, None])
            np.maximum(d, D_MIN_M, out=d)
            slab = gain(self.env.pathloss, d)
            for z, cells in enumerate(self._band_cells):
                acc = out[z, :, lo:lo + block]
                for c in cells:
                    y0 = rows - 1 - c // cols
                    x0 = (cols - 1 - c % cols) * px
                    acc += slab[y0:y0 + q, :, x0:x0 + nx]
        return g

    def gains_for(self, area: EvalArea) -> np.ndarray:
        """(4, n_points) read-only zone gains G_z, one row per band of ``ZONES``."""
        g = self._gains.get(area)
        if g is None:
            g = self._kernel_gains(area)
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
    points: np.ndarray,
    content_id: int,
    tp: TransmitPlan,
    env: RadioEnv,
    plan: ContentPlan,
) -> np.ndarray:
    """Linear SINR at each row of ``points`` (shape (n, 2)).

    Computed by the same zone-gain and SINR steps as ``SinrEvaluator.field``,
    so a lattice point gets the same value on either path.
    """
    points = np.asarray(points, dtype=float)
    evaluator = _evaluator(tp.grid, env)
    in_lsa1 = lsa1_of_x(points[:, 0], tp.grid.spec)
    g = evaluator._zone_gains(points)
    return evaluator._linear(g, in_lsa1, evaluator.field_key(content_id, tp, plan))
