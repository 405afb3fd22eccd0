"""Brute-force SINR reference for cross-checking the engine.

Everything here is computed with plain Python floats, explicit loops and
math.fsum: tower positions from row/column arithmetic, both path-loss
formulas inlined, signal/interference split by column index.  It shares no
numerics with the engine on purpose; keep it dumb.

``oracle_sinr`` takes the 1-D axes ``sinr_at`` takes.  A point's per-cell
gains depend only on the grid, the path-loss model and the point, not on
the scheme or content, so ``_axes_gains`` computes them once per point of
an axes pair, keyed on the spec, the model and the axes, and holds only
the last key, which every scheme and content of one suite group reads.  A
held gain is the float the loop computed, so every SINR has the bits of a
fresh loop.

``run_oracle_suite`` checks the engine as a run drives it: one
``SinrEvaluator.scan`` per suite group over every distinct ``field_key``
of the group's schemes and contents, then one brute-force call per
(scheme, content) against that content's key.  The scan folds lattice axes
as a run's; the suite's random axes take disjoint kernel windows.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import mul

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan, SchemeConfig, SchemeKind, TransmitPlan, allocate
from sfn_lsi_sim.grid import Grid, GridSpec
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel, RadioEnv
from sfn_lsi_sim.sinr import SINR_FLOOR_DB, SinrEvaluator


def _cell_gains(spec: GridSpec, model: PathLossModel, px: float, py: float) -> tuple[float, ...]:
    """The gain of every cell at point (px, py), in cell-index order."""
    power_law = model.kind is PathLossKind.POWER_LAW
    if not power_law:
        log_f = math.log10(model.f_mhz)
        a_hm = (1.1 * log_f - 0.7) * model.hm_m - (1.56 * log_f - 0.8)
    gains: list[float] = []
    for row in range(spec.rows):
        for col in range(spec.cols):
            tx = (col + 0.5) * spec.isd
            ty = (row + 0.5) * spec.isd
            d = math.hypot(tx - px, ty - py)
            if d < 20.0:
                d = 20.0
            if power_law:
                g = d ** (-model.eta)
            else:
                loss_db = (
                    69.55
                    + 26.16 * log_f
                    - 13.82 * math.log10(model.hb_m)
                    - a_hm
                    + (44.9 - 6.55 * math.log10(model.hb_m)) * math.log10(d / 1000.0)
                )
                g = 10.0 ** (-loss_db / 10.0)
            gains.append(g)
    return tuple(gains)


@lru_cache(maxsize=1)
def _axes_gains(
    spec: GridSpec, model: PathLossModel, xs: tuple[float, ...], ys: tuple[float, ...],
) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """``_cell_gains`` at every point of the axes, rows by y.  Keyed on the
    spec, the model and the axes, so every field of either dataclass is part
    of the key; holds the last key only, which is all one suite group
    reads."""
    return tuple(tuple(_cell_gains(spec, model, px, py) for px in xs) for py in ys)


def oracle_sinr(
    xs: Iterable[float],
    ys: Iterable[float],
    content_id: int,
    tp: TransmitPlan,
    env: RadioEnv,
    plan: ContentPlan,
) -> list[list[float]]:
    """Linear SINR at every point (x, y) of the 1-D axes ``xs`` and ``ys``,
    as (ny, nx) nested lists of floats, rows by y like ``sinr_at``'s.  Each
    point is summed cell by cell with math.fsum."""
    spec = tp.grid.spec
    xs = tuple(map(float, xs))
    ys = tuple(map(float, ys))
    gains = _axes_gains(spec, env.pathloss, xs, ys)
    power = tp.power[:, content_id - 1].tolist()
    noise = env.n0 * plan.bandwidth_hz[content_id - 1]
    cell_in_lsa1 = [col < spec.lsa1_cols for _ in range(spec.rows) for col in range(spec.cols)]
    lsa1_edge = spec.lsa1_cols * spec.isd
    # Per side of the LSA boundary, each cell's power as own signal and as
    # interference, 0.0 where it is the other kind.  math.fsum is exactly
    # rounded, so the zero terms change no bit of a sum.
    sides = {}
    for point_in_lsa1 in (True, False):
        is_own = [content_id == 1 or in_lsa1 == point_in_lsa1 for in_lsa1 in cell_in_lsa1]
        sides[point_in_lsa1] = ([p if o else 0.0 for p, o in zip(power, is_own)],
                                [0.0 if o else p for p, o in zip(power, is_own)])
    point_sides = [sides[px < lsa1_edge] for px in xs]
    return [[math.fsum(map(mul, own, g)) / (math.fsum(map(mul, other, g)) + noise)
             for (own, other), g in zip(point_sides, row_gains)]
            for row_gains in gains]


@dataclass(frozen=True)
class OracleCase:
    """Outcome of one engine-vs-oracle comparison sweep."""

    rows: int
    cols: int
    lsa1_cols: int
    m_count: int
    scheme: str
    model: str
    n_points: int
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= 1e-9


_GRID_SHAPES = ((1, 2, 1), (1, 3, 2), (1, 4, 2), (2, 2, 1), (2, 3, 2), (2, 4, 2))
_BETAS = (0.0, 0.25, 0.5, 1.0)


def _content_plan(m_count: int) -> ContentPlan:
    powers = {2: ((24.0, 16.0), (24.0, 12.0)), 3: ((18.0, 13.0, 9.0), (18.0, 10.0, 12.0))}
    base, prime = powers[m_count]
    return ContentPlan(
        m_count=m_count,
        bandwidth_hz=(2.4e6,) * m_count,
        subcarriers=(1200,) * m_count,
        mod_order=(64,) * m_count,
        t_sym=1e-3,
        base_power=base,
        base_power_prime=prime,
    )


def _scheme_configs() -> list[SchemeConfig]:
    configs = [SchemeConfig(SchemeKind.OLSI)]
    for beta in _BETAS:
        configs.append(SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
        configs.append(SchemeConfig(SchemeKind.IMLSI_O, beta=beta))
    return configs


def run_oracle_suite(n_points: int = 50, seed: int = 20260814) -> list[OracleCase]:
    """Compare engine SINR to the brute-force reference on small grids.

    Covers every grid up to 2x4 cells, M in {2, 3}, all schemes with
    beta in {0, 0.25, 0.5, 1}, both path-loss models.  Each (grid, M,
    model) group draws one uniformly random x axis and one y axis, of
    ``n_points // ny`` and ``ny`` values with ``ny`` the largest divisor of
    ``n_points`` not above its square root, from ``random.Random(seed)``.
    The nine schemes' plans are allocated once per (grid, M) and serve both
    models.  Each group builds one ``SinrEvaluator`` and makes one ``scan``
    on its axes over every distinct ``field_key`` of its schemes and
    contents, as a run scans a lattice.  Every (scheme, content) then makes
    one ``oracle_sinr`` call and compares all ``n_points`` points with the
    dB block of its key: in linear units, ``10 ** (dB / 10)``, and exactly
    ``SINR_FLOOR_DB`` where the brute force is 0.
    """
    models = (
        PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.5),
        PathLossModel(kind=PathLossKind.HATA, f_mhz=700.0, hb_m=30.0, hm_m=1.5),
    )
    ny = max(d for d in range(1, math.isqrt(n_points) + 1) if n_points % d == 0)
    draw = random.Random(seed).uniform
    cases: list[OracleCase] = []
    for (rows, cols, lsa1_cols), m_count in product(_GRID_SHAPES, (2, 3)):
        spec = GridSpec(rows=rows, cols=cols, lsa1_cols=lsa1_cols, buffer_cols_per_side=1)
        grid = Grid.from_spec(spec)
        plan = _content_plan(m_count)
        schemes = _scheme_configs()
        tps = [allocate(grid, plan, scheme) for scheme in schemes]
        for model in models:
            env = RadioEnv(n0=4e-21, pathloss=model)
            xs = [draw(0.0, cols * spec.isd) for _ in range(n_points // ny)]
            ys = [draw(0.0, rows * spec.isd) for _ in range(ny)]
            evaluator = SinrEvaluator(grid, env)
            keys = [[evaluator.field_key(m, tp, plan) for m in plan.content_ids] for tp in tps]
            distinct = list(dict.fromkeys(chain.from_iterable(keys)))
            db_of = dict(zip(distinct, evaluator._whole(np.array(xs), np.array(ys), distinct)))
            for scheme, tp, tp_keys in zip(schemes, tps, keys):
                worst = 0.0
                for content_id, key in zip(plan.content_ids, tp_keys):
                    db = db_of[key]
                    expected = oracle_sinr(xs, ys, content_id, tp, env, plan)
                    for got_db, got, want in zip(db.ravel().tolist(),
                                                 (10.0 ** (db / 10.0)).ravel().tolist(),
                                                 chain.from_iterable(expected), strict=True):
                        if want == 0.0:
                            err = 0.0 if got_db == SINR_FLOOR_DB else math.inf
                        else:
                            err = abs(got - want) / abs(want)
                        if err > worst:
                            worst = err
                        elif err != err:  # NaN counts as infinite
                            worst = math.inf
                cases.append(
                    OracleCase(
                        rows=rows, cols=cols, lsa1_cols=lsa1_cols, m_count=m_count,
                        scheme=scheme.label, model=model.kind.value,
                        n_points=n_points, max_rel_err=worst,
                    )
                )
    return cases
