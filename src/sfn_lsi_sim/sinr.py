"""Per-content SINR evaluation over the cell grid.

For a receiver point and content m, every cell of the point's own LSA that
transmits content m contributes signal, and every cell of the other LSA that
transmits the same subcarriers contributes interference.  The global content
is carried synchronously by all cells, so it sees no cross-LSA interference,
only noise.  SINR is evaluated on midpoint sampling lattices; evaluation
order and chunking are fixed so results are identical regardless of the
worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan, TransmitPlan
from sfn_lsi_sim.errors import ConfigurationError, ConfigValidationError
from sfn_lsi_sim.grid import (
    D_MIN_M,
    AreaKind,
    EvalArea,
    Grid,
    GridSpec,
    Lsa,
    Zone,
    lsa_of_points,
    sample_points,
    sample_shape,
)
from sfn_lsi_sim.propagation import PathLossModel, gain

SINR_FLOOR_DB = -400.0
"""dB value reported when the received signal power is exactly zero."""

_CHUNK = 16384
"""Points per evaluation chunk; fixed so chunk boundaries never depend on
the worker count."""


@dataclass(frozen=True)
class RadioEnv:
    """Receiver-side radio constants: noise PSD (W/Hz) and path-loss model."""

    n0: float
    pathloss: PathLossModel

    def __post_init__(self):
        if self.n0 <= 0:
            raise ConfigurationError(f"n0 must be positive (got {self.n0})")


class SinrValue(NamedTuple):
    linear: float
    db: float


@dataclass(frozen=True)
class SinrField:
    """SINR in dB at every lattice point of an evaluation area.

    ``values`` is 1-D in sampling order (rows of constant y, increasing x,
    bottom row first); ``shape`` is (ny, nx).  All values are finite: points
    with zero received signal carry ``SINR_FLOOR_DB``.
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
        if not np.isfinite(self.values).all():
            raise ValueError("SINR field contains non-finite values")

    def as_image(self) -> np.ndarray:
        """(ny, nx) view, row index increasing with y."""
        return self.values.reshape(self.shape)


def _db(linear: np.ndarray) -> np.ndarray:
    out = np.full(linear.shape, SINR_FLOOR_DB)
    pos = linear > 0.0
    np.log10(linear, out=out, where=pos)
    out[pos] *= 10.0
    return out


ZONES = ("lsa1_interior", "left_buffer", "right_buffer", "lsa2_interior")
"""The four (LSA, buffer-zone) power bands, in gain-row order.  The first
two hold the LSA1 cells, the last two the LSA2 cells."""


def _zone_cells(grid: Grid) -> tuple[np.ndarray, ...]:
    """Cell indices of each band in ``ZONES``, ascending; a band may be empty."""
    index = {
        (Lsa.LSA1, Zone.SFN_INTERIOR): 0,
        (Lsa.LSA1, Zone.LEFT_BUFFER): 1,
        (Lsa.LSA2, Zone.RIGHT_BUFFER): 2,
        (Lsa.LSA2, Zone.SFN_INTERIOR): 3,
    }
    band = np.array([index[(c.lsa, c.zone)] for c in grid.cells])
    return tuple(np.flatnonzero(band == z) for z in range(len(ZONES)))


def _threads_from_env() -> int:
    text = os.environ.get("SFN_LSI_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigValidationError(
            [f"SFN_LSI_THREADS: must be an integer >= 1 (got {text!r})"]
        )
    return threads


class SinrEvaluator:
    """Evaluates SINR fields for one grid and radio environment.

    Each content's power is constant over each band of ``ZONES``, so the
    received power sum over cells factors into four zone terms, p_z * G_z,
    with G_z the gain summed over the zone's cells.  Only the four G_z rows
    are cached per evaluation area and reused by all contents and transmit
    plans.  A1 is the left part of A2, so A1 gains are sliced from cached A2
    gains at the same resolution.  ``workers`` sets the thread count for
    chunked evaluation (default: ``SFN_LSI_THREADS``, else 1); chunk
    boundaries and every per-point operation are identical for any worker
    count.
    """

    def __init__(self, grid: Grid, env: RadioEnv, workers: int | None = None):
        self.grid = grid
        self.env = env
        if workers is None:
            workers = _threads_from_env()
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        self.workers = workers
        self._towers = grid.towers()
        self._zone_cells = _zone_cells(grid)
        self._gains: dict[EvalArea, np.ndarray] = {}
        self._in_lsa1: dict[EvalArea, np.ndarray] = {}

    def _run_chunks(self, n: int, fn) -> None:
        spans = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
        if self.workers == 1 or len(spans) == 1:
            for lo, hi in spans:
                fn(lo, hi)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            for future in [pool.submit(fn, lo, hi) for lo, hi in spans]:
                future.result()

    def gains_for(self, area: EvalArea) -> np.ndarray:
        """(4, n_points) read-only zone gains G_z, one row per band of ``ZONES``."""
        cached = self._gains.get(area)
        if cached is not None:
            return cached
        spec = self.grid.spec
        full = EvalArea(kind=AreaKind.A2, resolution=area.resolution)
        if area.kind is AreaKind.A1 and full in self._gains:
            # Both lattices step by isd/resolution from x = 0, so A1 is
            # exactly the leftmost columns of A2.  The slices are copies.
            ny, nx = sample_shape(area, spec)
            g = self._gains[full].reshape(len(ZONES), ny, -1)[:, :, :nx]
            g = g.reshape(len(ZONES), -1)
            in_lsa1 = self._in_lsa1[full].reshape(ny, -1)[:, :nx].ravel()
        else:
            points = sample_points(area, spec)
            in_lsa1 = lsa_of_points(points, spec)
            g = np.empty((len(ZONES), points.shape[0]))

            def fill(lo: int, hi: int) -> None:
                dx = self._towers[:, 0:1] - points[lo:hi, 0]
                dy = self._towers[:, 1:2] - points[lo:hi, 1]
                d = np.hypot(dx, dy, out=dx)
                np.maximum(d, D_MIN_M, out=d)
                cell_gains = gain(self.env.pathloss, d)
                # Row-by-row sums in cell-index order: elementwise, so a
                # point's G_z never depends on the chunk it falls in.
                for z, cells in enumerate(self._zone_cells):
                    acc = g[z, lo:hi]
                    acc[:] = 0.0
                    for c in cells:
                        acc += cell_gains[c]

            self._run_chunks(points.shape[0], fill)
        g.flags.writeable = False
        self._gains[area] = g
        self._in_lsa1[area] = in_lsa1
        return g

    def zone_powers(self, tp: TransmitPlan, content_id: int) -> np.ndarray:
        """Content ``content_id``'s transmit power in each band of ``ZONES``.

        Every allocator gives a content one power per band; a plan whose
        power varies inside a band is rejected, naming the band.  Empty bands
        carry 0.
        """
        p = tp.power[:, content_id - 1]
        out = np.zeros(len(ZONES))
        for z, cells in enumerate(self._zone_cells):
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

    def field(
        self, area: EvalArea, content_id: int, tp: TransmitPlan, plan: ContentPlan
    ) -> SinrField:
        if not 1 <= content_id <= plan.m_count:
            raise ValueError(f"content_id must be in 1..{plan.m_count} (got {content_id})")
        if tp.grid.spec != self.grid.spec:
            raise ConfigurationError("transmit plan was allocated on a different grid")
        g = self.gains_for(area)
        in_lsa1 = self._in_lsa1[area]
        p = self.zone_powers(tp, content_id)
        noise = self.env.n0 * plan.bandwidth_of(content_id)
        lin = np.empty(g.shape[1])

        def reduce_chunk(lo: int, hi: int) -> None:
            from1 = p[0] * g[0, lo:hi] + p[1] * g[1, lo:hi]
            from2 = p[2] * g[2, lo:hi] + p[3] * g[3, lo:hi]
            if content_id == 1:
                lin[lo:hi] = (from1 + from2) / noise
            else:
                own = np.where(in_lsa1[lo:hi], from1, from2)
                other = np.where(in_lsa1[lo:hi], from2, from1)
                lin[lo:hi] = own / (other + noise)

        self._run_chunks(lin.size, reduce_chunk)
        return SinrField(
            content_id=content_id,
            scheme_label=tp.scheme.label,
            area=area,
            values=_db(lin),
            shape=sample_shape(area, self.grid.spec),
        )


def sinr_at(
    point: tuple[float, float],
    content_id: int,
    tp: TransmitPlan,
    env: RadioEnv,
    plan: ContentPlan,
) -> SinrValue:
    """SINR at a single receiver point, as (linear, dB)."""
    if not 1 <= content_id <= plan.m_count:
        raise ValueError(f"content_id must be in 1..{plan.m_count} (got {content_id})")
    spec = tp.grid.spec
    towers = tp.grid.towers()
    d = np.hypot(towers[:, 0] - point[0], towers[:, 1] - point[1])
    np.maximum(d, D_MIN_M, out=d)
    g = gain(env.pathloss, d)
    p = tp.power[:, content_id - 1]
    noise = env.n0 * plan.bandwidth_of(content_id)
    if content_id == 1:
        lin = float((p * g).sum() / noise)
    else:
        lsa1_rows = tp.grid.lsa1_mask()
        from1 = float((p[lsa1_rows] * g[lsa1_rows]).sum())
        from2 = float((p[~lsa1_rows] * g[~lsa1_rows]).sum())
        if bool(lsa_of_points(np.asarray([point]), spec)[0]):
            own, other = from1, from2
        else:
            own, other = from2, from1
        lin = own / (other + noise)
    db = 10.0 * np.log10(lin) if lin > 0.0 else SINR_FLOOR_DB
    return SinrValue(linear=lin, db=float(db))


def sinr_field(
    area: EvalArea,
    content_id: int,
    tp: TransmitPlan,
    env: RadioEnv,
    plan: ContentPlan,
    spec: GridSpec | None = None,
    workers: int | None = None,
) -> SinrField:
    """One-shot field evaluation; ``spec``, if given, must match the plan's grid."""
    if spec is not None and spec != tp.grid.spec:
        raise ConfigurationError("spec does not match the transmit plan's grid")
    return SinrEvaluator(tp.grid, env, workers=workers).field(area, content_id, tp, plan)
