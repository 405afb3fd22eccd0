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

from dataclasses import dataclass, replace

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
    lsa_of_points,
    sample_points,
    sample_shape,
)
from sfn_lsi_sim.propagation import PathLossModel, gain

SINR_FLOOR_DB = -400.0
"""dB value reported when the received signal power is exactly zero."""

_CHUNK = 16384
"""Points per chunk of the point path (``_zone_gains``) and of
``SinrEvaluator.field``; bounds their (n_cells, chunk) distance and gain
temporaries and the per-chunk SINR temporaries.  Lattices whose offsets are
periodic take the kernel path for their gains, which ``_KERNEL_CHUNK``
bounds."""

_KERNEL_CHUNK = 1 << 18
"""Elements per slab of the lattice gain kernel: the kernel rows of one
block of residues mod the tower period.  Bounds the slab's distance and gain
temporaries; the whole kernel is never held."""


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
    checks that once where it makes the values; relabels and restrictions
    share them unchecked.
    """

    content_id: int
    scheme_label: str
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


def _fold(towers: np.ndarray, samples: np.ndarray, period: int) -> np.ndarray | None:
    """Offsets ``towers[c] - samples[k]`` at index ``k - c*period +
    (n_towers-1)*period``, or None if two offsets with one index differ."""
    table = towers[:, None] - samples
    index = (np.arange(samples.size) - period * np.arange(towers.size)[:, None]
             + period * (towers.size - 1))
    folded = np.zeros(samples.size + period * (towers.size - 1))
    folded[index] = table
    return folded if np.array_equal(folded[index], table) else None


def _left_columns(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leftmost columns of lattice ``shape`` (ny, nx) from ``a``, whose
    last axis runs over a wider lattice of ny rows in sampling order.  Both
    A1 and A2 step by isd/resolution from x = 0, so this takes the A1 part
    of an A2 array at the same resolution."""
    ny, nx = shape
    lead = a.shape[:-1]
    return a.reshape(*lead, ny, -1)[..., :nx].reshape(*lead, ny * nx)


class SinrEvaluator:
    """Evaluates SINR fields for one grid and radio environment.

    Each content's power is constant over each band of ``ZONES``, so the
    received power sum over cells factors into four zone terms, p_z * G_z,
    with G_z the gain summed over the zone's cells.  Only the four G_z rows
    and a per-point LSA1 flag are cached per evaluation area and reused by
    all contents and transmit plans.  A1 is the left part of A2, so A1 gains
    are sliced from cached A2 gains at the same resolution.

    A lattice is built from its 1-D axes (``grid.lattice_axes``), not from a
    point array.  On a lattice whose tower-to-sample offsets repeat exactly
    with the tower period (A1 and A2 when ``isd / resolution`` is exact), a
    gain depends only on the (row, column) offset, so the gains are
    evaluated once per offset and each G_z adds windows of that kernel,
    one slab of kernel rows at a time.  Other lattices, and point arrays,
    evaluate every tower-to-point gain.  Both give the same bytes.  A field
    is reduced chunk by chunk, so the gain rows, the flags and the output
    are the only full-size arrays it touches.
    """

    def __init__(self, grid: Grid, env: RadioEnv):
        self.grid = grid
        self.env = env
        self._towers = grid.towers()
        bands = grid.bands()
        self._band_cells = tuple(np.flatnonzero(bands == z) for z in range(len(ZONES)))
        self._gains: dict[EvalArea, np.ndarray] = {}
        self._in_lsa1: dict[EvalArea, np.ndarray] = {}

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

    def _lattice_gains(self, area: EvalArea, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """(4, n) zone gains on the lattice of ``area``, whose axes are
        ``xs`` and ``ys``.

        Towers sit ``period = resolution`` samples apart, and a tower's x
        depends only on its column and its y only on its row.  If the x
        offsets ``tower_x[c] - xs[k]`` are equal wherever ``k - c*period``
        agrees, and the y offsets likewise, every tower-to-sample distance
        is one of the offset grid's, so the gain kernel ``K`` is evaluated
        on that grid once.  Each G_z then adds its cells' ``K`` windows in
        cell-index order: the addends and order of ``_zone_gains``, hence
        its bytes.  Otherwise this falls back to ``_zone_gains``.

        The lattice has ``rows * period`` sample rows and ``K`` has
        ``(2*rows - 1) * period``, so output row ``k*period + r`` reads only
        kernel rows congruent to ``r`` mod ``period``.  ``K`` is evaluated
        one slab at a time, the kernel rows of a block of residues ``r``,
        and the slab's windows are added before the next slab is evaluated;
        each kernel element is still evaluated once.
        """
        spec = self.grid.spec
        cols, rows, period = spec.cols, spec.rows, area.resolution
        kx = _fold(self._towers[:cols, 0], xs, period)
        ky = _fold(self._towers[::cols, 1], ys, period)
        if kx is None or ky is None:
            return self._zone_gains(sample_points(area, spec))
        nx = xs.size
        g = np.zeros((len(ZONES), ys.size * nx))
        out = g.reshape(len(ZONES), rows, period, nx)
        ky = ky.reshape(2 * rows - 1, period)
        block = max(1, _KERNEL_CHUNK // ky.shape[0] // kx.size)
        for lo in range(0, period, block):
            d = np.hypot(kx, ky[:, lo:lo + block, None])
            np.maximum(d, D_MIN_M, out=d)
            slab = gain(self.env.pathloss, d)
            for z, cells in enumerate(self._band_cells):
                acc = out[z, :, lo:lo + block]
                for c in cells:
                    y0 = rows - 1 - c // cols
                    x0 = (cols - 1 - c % cols) * period
                    acc += slab[y0:y0 + rows, :, x0:x0 + nx]
        return g

    def gains_for(self, area: EvalArea) -> np.ndarray:
        """(4, n_points) read-only zone gains G_z, one row per band of ``ZONES``."""
        cached = self._gains.get(area)
        if cached is not None:
            return cached
        spec = self.grid.spec
        full = EvalArea(kind=AreaKind.A2, resolution=area.resolution)
        if area.kind is AreaKind.A1 and full in self._gains:
            shape = sample_shape(area, spec)
            g = _left_columns(self._gains[full], shape)
            in_lsa1 = _left_columns(self._in_lsa1[full], shape)
        else:
            xs, ys = lattice_axes(area, spec)
            g = self._lattice_gains(area, xs, ys)
            in_lsa1 = np.tile(lsa1_of_x(xs, spec), ys.size)
        g.flags.writeable = False
        self._gains[area] = g
        self._in_lsa1[area] = in_lsa1
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
        gains ``g``.

        ``in_lsa1`` marks the points of LSA1.  Own-LSA signal over cross-LSA
        interference plus noise; the global content is all signal.
        """
        p, bandwidth, is_global = key
        from1 = p[0] * g[0] + p[1] * g[1]
        from2 = p[2] * g[2] + p[3] * g[3]
        if is_global:
            own, other = from1 + from2, 0.0
        else:
            own = np.where(in_lsa1, from1, from2)
            other = np.where(in_lsa1, from2, from1)
        return own / (other + self.env.n0 * bandwidth)

    def field(
        self, area: EvalArea, content_id: int, tp: TransmitPlan, plan: ContentPlan
    ) -> SinrField:
        g = self.gains_for(area)
        in_lsa1 = self._in_lsa1[area]
        key = self.field_key(content_id, tp, plan)
        values = np.empty(g.shape[1])
        for lo in range(0, values.size, _CHUNK):
            hi = lo + _CHUNK
            _db(self._linear(g[:, lo:hi], in_lsa1[lo:hi], key), values[lo:hi])
        if not np.isfinite(values).all():
            raise ValueError("SINR field contains non-finite values")
        return SinrField(
            content_id=content_id,
            scheme_label=tp.scheme.label,
            area=area,
            values=values,
            shape=sample_shape(area, self.grid.spec),
        )

    def restrict(self, field: SinrField, area: EvalArea) -> SinrField:
        """``field`` on ``area``: the field itself, or the left columns of an
        A2 field when ``area`` is A1 at the same resolution.  Same bytes as
        ``field(area, ...)``, since every point's value depends only on that
        point's zone gains."""
        if area == field.area:
            return field
        if area.kind is not AreaKind.A1 or field.area != EvalArea(
            kind=AreaKind.A2, resolution=area.resolution
        ):
            raise ValueError(f"cannot take area {area} from a field on {field.area}")
        shape = sample_shape(area, self.grid.spec)
        return replace(field, area=area, values=_left_columns(field.values, shape),
                       shape=shape)


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
    evaluator = SinrEvaluator(tp.grid, env)
    in_lsa1 = lsa_of_points(points, tp.grid.spec)
    g = evaluator._zone_gains(points)
    return evaluator._linear(g, in_lsa1, evaluator.field_key(content_id, tp, plan))
