"""Transmit-plan allocation tests for the three insertion schemes."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import INTERIOR, LEFT_BUFFER, RIGHT_BUFFER, cell_refs, equal_split
from sfn_lsi_sim.allocation import (
    ContentPlan,
    SchemeConfig,
    SchemeKind,
    allocate,
    lsa1_local_contents,
    lsa2_local_contents,
)
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import Grid, GridSpec


def cells_in_zone(grid: Grid, zone: str) -> list:
    return [c for c in cell_refs(grid.spec) if c.zone == zone]


def buffer_cells(grid: Grid) -> list:
    return [c for c in cell_refs(grid.spec) if c.zone != INTERIOR]


def default_grid() -> Grid:
    return Grid.from_spec(GridSpec())


def equal_plan(m_count: int = 3, total: float = 40.0) -> ContentPlan:
    return equal_split(m_count, total, 2.4e6 * m_count)


class TestContentSplit:
    @pytest.mark.parametrize(
        "m,lsa1,lsa2",
        [
            (2, [2], []),
            (3, [2], [3]),
            (4, [2, 3], [4]),
            (5, [2, 3], [4, 5]),
            (7, [2, 3, 4], [5, 6, 7]),
        ],
    )
    def test_ceiling_half_goes_to_lsa1(self, m, lsa1, lsa2):
        assert list(lsa1_local_contents(m)) == lsa1
        assert list(lsa2_local_contents(m)) == lsa2


class TestContentPlan:
    def test_equal_split(self):
        plan = equal_plan()
        assert plan.total_power == pytest.approx(40.0)
        assert sum(plan.base_power_prime) == pytest.approx(40.0)
        assert list(plan.content_ids) == [1, 2, 3]
        assert plan.bandwidth_of(2) == pytest.approx(2.4e6)

    def test_prime_defaults_to_base(self):
        plan = ContentPlan(
            m_count=2, bandwidth_hz=(1e6, 1e6), subcarriers=(100, 100),
            mod_order=(4, 4), t_sym=1e-3, base_power=(3.0, 1.0),
        )
        assert plan.base_power_prime == (3.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(m_count=1, bandwidth_hz=(1e6,), subcarriers=(1,), mod_order=(4,),
                  t_sym=1e-3, base_power=(1.0,)), "M >= 2"),
            (dict(m_count=2, bandwidth_hz=(1e6,), subcarriers=(1, 1), mod_order=(4, 4),
                  t_sym=1e-3, base_power=(1.0, 1.0)), "bandwidth_hz"),
            (dict(m_count=2, bandwidth_hz=(1e6, 1e6), subcarriers=(1, 1),
                  mod_order=(4, 4), t_sym=0.0, base_power=(1.0, 1.0)), "t_sym"),
            (dict(m_count=2, bandwidth_hz=(1e6, 1e6), subcarriers=(1, 1),
                  mod_order=(4, 4), t_sym=1e-3, base_power=(1.0, 1.0),
                  base_power_prime=(2.0, 1.0)), "global content power"),
        ],
    )
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            ContentPlan(**kwargs)


class TestSchemeConfig:
    def test_beta_range(self):
        with pytest.raises(ConfigurationError, match="0 <= beta <= 1"):
            SchemeConfig(SchemeKind.IMLSI_PS, beta=1.5)

    def test_default_labels(self):
        assert SchemeConfig(SchemeKind.OLSI).label == "olsi"
        assert SchemeConfig(SchemeKind.IMLSI_PS, beta=0.25).label == "ps_beta0.25"
        assert SchemeConfig(SchemeKind.IMLSI_O, beta=1.0).label == "imo_beta1"

    def test_reallocation_choices(self):
        with pytest.raises(ConfigurationError, match="buffer_reallocation"):
            SchemeConfig(SchemeKind.IMLSI_O, buffer_reallocation="half")


class TestOlsi:
    def test_each_lsa_transmits_only_its_half(self):
        grid = default_grid()
        tp = allocate(grid, equal_plan(), SchemeConfig(SchemeKind.OLSI))
        for cell in cell_refs(grid.spec):
            assert tp.active[cell.index, 0]
            if cell.in_lsa1:
                assert tp.active[cell.index, 1]
                assert not tp.active[cell.index, 2]
            else:
                assert not tp.active[cell.index, 1]
                assert tp.active[cell.index, 2]

    def test_inactive_means_zero_power_no_reallocation(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.OLSI))
        third = 40.0 / 3.0
        for cell in cell_refs(grid.spec):
            assert tp.power[cell.index, 0] == third
            idle = 3 if cell.in_lsa1 else 2
            assert tp.power[cell.index, idle - 1] == 0.0
        # unused share is not moved onto other contents
        assert tp.power.sum(axis=1).max() == pytest.approx(2 * third)


class TestPowerScaling:
    def test_all_cells_active_on_everything(self):
        grid = default_grid()
        tp = allocate(grid, equal_plan(), SchemeConfig(SchemeKind.IMLSI_PS, beta=0.25))
        assert tp.active.all()

    def test_buffer_cells_scale_locals_and_boost_global(self):
        grid = default_grid()
        plan = equal_plan()
        beta = 0.25
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
        third = 40.0 / 3.0
        for cell in buffer_cells(grid):
            assert tp.power[cell.index, 1] == pytest.approx(beta * third)
            assert tp.power[cell.index, 2] == pytest.approx(beta * third)
            assert tp.power[cell.index, 0] == pytest.approx(
                third + 2 * (1 - beta) * third
            )
        for cell in cells_in_zone(grid, INTERIOR):
            assert tp.power[cell.index, 0] == third

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_budget_preserved_in_every_cell(self, beta):
        grid = default_grid()
        plan = ContentPlan(
            m_count=3, bandwidth_hz=(2e6,) * 3, subcarriers=(100,) * 3,
            mod_order=(16,) * 3, t_sym=1e-3,
            base_power=(18.0, 13.0, 9.0), base_power_prime=(18.0, 10.0, 12.0),
        )
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
        sums = tp.power.sum(axis=1)
        for cell in cell_refs(grid.spec):
            expected = sum(plan.base_power if cell.in_lsa1 else plan.base_power_prime)
            assert sums[cell.index] == pytest.approx(expected, rel=1e-9)

    def test_beta_one_is_bitwise_reuse1(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0))
        baseline = np.array([plan.base_power for _ in grid.cells])
        assert tp.power.tobytes() == baseline.tobytes()

    def test_beta_zero_moves_everything_to_global(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=0.0))
        for cell in buffer_cells(grid):
            assert tp.power[cell.index, 0] == pytest.approx(plan.total_power)
            assert tp.power[cell.index, 1] == 0.0
            assert tp.active[cell.index, 1]


class TestBufferOrthogonality:
    def test_buffer_sides_keep_only_their_half(self):
        grid = default_grid()
        tp = allocate(grid, equal_plan(), SchemeConfig(SchemeKind.IMLSI_O, beta=1.0))
        for cell in cells_in_zone(grid, LEFT_BUFFER):
            assert tp.active[cell.index, 1]
            assert not tp.active[cell.index, 2]
            assert tp.power[cell.index, 2] == 0.0
        for cell in cells_in_zone(grid, RIGHT_BUFFER):
            assert not tp.active[cell.index, 1]
            assert tp.active[cell.index, 2]
        for cell in cells_in_zone(grid, INTERIOR):
            assert tp.active[cell.index].all()

    def test_freed_power_boosts_global(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_O, beta=1.0))
        for cell in buffer_cells(grid):
            # global share plus the silenced content's share
            assert tp.power[cell.index, 0] == pytest.approx(2 * third)
            assert tp.power[cell.index].sum() == pytest.approx(40.0, rel=1e-9)

    def test_scaling_inside_buffer(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_O, beta=0.5))
        for cell in cells_in_zone(grid, LEFT_BUFFER):
            assert tp.power[cell.index, 1] == pytest.approx(0.5 * third)
            assert tp.power[cell.index, 0] == pytest.approx(
                third + third + 0.5 * third
            )

    def test_reallocation_none_leaves_power_unused(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        scheme = SchemeConfig(SchemeKind.IMLSI_O, beta=1.0, buffer_reallocation="none")
        tp = allocate(grid, plan, scheme)
        for cell in buffer_cells(grid):
            assert tp.power[cell.index, 0] == third
            assert tp.power[cell.index].sum() == pytest.approx(2 * third)

    def test_budget_never_exceeded(self):
        grid = default_grid()
        plan = equal_plan()
        for beta in (0.0, 0.5, 1.0):
            for realloc in ("global", "none"):
                scheme = SchemeConfig(SchemeKind.IMLSI_O, beta=beta, buffer_reallocation=realloc)
                tp = allocate(grid, plan, scheme)
                assert (tp.power.sum(axis=1) <= plan.total_power + 1e-9).all()


class TestDispatcherAndPlanInvariants:
    @pytest.mark.parametrize(
        "scheme",
        [
            SchemeConfig(SchemeKind.OLSI),
            SchemeConfig(SchemeKind.IMLSI_PS, beta=0.5),
            SchemeConfig(SchemeKind.IMLSI_O, beta=0.5),
            SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0, label="reuse1"),
        ],
    )
    def test_allocate_preserves_label_and_freezes_arrays(self, scheme):
        grid = default_grid()
        tp = allocate(grid, equal_plan(), scheme)
        assert tp.scheme.label == scheme.label
        assert not tp.power.flags.writeable
        assert not tp.active.flags.writeable
        with pytest.raises(ValueError):
            tp.power[0, 0] = 1.0

    def test_inactive_entries_carry_zero_power(self):
        grid = default_grid()
        for scheme in (
            SchemeConfig(SchemeKind.OLSI),
            SchemeConfig(SchemeKind.IMLSI_O, beta=0.5),
        ):
            tp = allocate(grid, equal_plan(), scheme)
            assert (tp.power[~tp.active] == 0.0).all()

    def test_global_always_active_everywhere(self):
        grid = default_grid()
        for scheme in (
            SchemeConfig(SchemeKind.OLSI),
            SchemeConfig(SchemeKind.IMLSI_PS, beta=0.0),
            SchemeConfig(SchemeKind.IMLSI_O, beta=0.0),
        ):
            tp = allocate(grid, equal_plan(), scheme)
            assert tp.active[:, 0].all()


# Reference per-cell allocators: one loop over cells per scheme, kept here so
# that ``allocate`` is pinned byte for byte to the plans they build.

def _ref_buffer_cells(grid: Grid) -> list:
    return [c for c in cell_refs(grid.spec) if c.zone != INTERIOR]


def _ref_base_powers(grid: Grid, plan: ContentPlan) -> np.ndarray:
    power = np.empty((len(grid.cells), plan.m_count))
    p1 = np.array(plan.base_power)
    p2 = np.array(plan.base_power_prime)
    for cell in cell_refs(grid.spec):
        power[cell.index] = p1 if cell.in_lsa1 else p2
    return power


def _ref_boosted_global(base_row: np.ndarray, beta: float, kept: np.ndarray) -> float:
    locals_ = base_row[1:]
    freed = np.where(kept, (1.0 - beta) * locals_, locals_)
    return float(base_row[0] + freed.sum())


def _ref_olsi(grid: Grid, plan: ContentPlan):
    active = np.zeros((len(grid.cells), plan.m_count), dtype=bool)
    active[:, 0] = True
    own = {True: set(lsa1_local_contents(plan.m_count)),
           False: set(lsa2_local_contents(plan.m_count))}
    for cell in cell_refs(grid.spec):
        for m in own[cell.in_lsa1]:
            active[cell.index, m - 1] = True
    power = np.where(active, _ref_base_powers(grid, plan), 0.0)
    return power, active


def _ref_ps(grid: Grid, plan: ContentPlan, beta: float):
    active = np.ones((len(grid.cells), plan.m_count), dtype=bool)
    power = _ref_base_powers(grid, plan)
    all_kept = np.ones(plan.m_count - 1, dtype=bool)
    for cell in _ref_buffer_cells(grid):
        base_row = power[cell.index].copy()
        power[cell.index, 1:] = beta * base_row[1:]
        power[cell.index, 0] = _ref_boosted_global(base_row, beta, all_kept)
    return power, active


def _ref_imo(grid: Grid, plan: ContentPlan, beta: float, buffer_reallocation: str):
    active = np.ones((len(grid.cells), plan.m_count), dtype=bool)
    power = _ref_base_powers(grid, plan)
    own = {LEFT_BUFFER: lsa1_local_contents(plan.m_count),
           RIGHT_BUFFER: lsa2_local_contents(plan.m_count)}
    for cell in _ref_buffer_cells(grid):
        kept = np.array([m in own[cell.zone] for m in range(2, plan.m_count + 1)])
        base_row = power[cell.index].copy()
        power[cell.index, 1:] = np.where(kept, beta * base_row[1:], 0.0)
        active[cell.index, 1:] = kept
        if buffer_reallocation == "global":
            power[cell.index, 0] = _ref_boosted_global(base_row, beta, kept)
    return power, active


def _ref_allocate(grid: Grid, plan: ContentPlan, scheme: SchemeConfig):
    if scheme.kind is SchemeKind.OLSI:
        return _ref_olsi(grid, plan)
    if scheme.kind is SchemeKind.IMLSI_PS:
        return _ref_ps(grid, plan, scheme.beta)
    return _ref_imo(grid, plan, scheme.beta, scheme.buffer_reallocation)


PIN_GRIDS = {
    "paper": GridSpec(),
    "no-lsa1-interior": GridSpec(rows=1, cols=5, lsa1_cols=1),
    "2col-buffers": GridSpec(rows=3, cols=9, lsa1_cols=4, buffer_cols_per_side=2),
}


def _pin_plan(m: int, prime: bool) -> ContentPlan:
    base = (7.3,) + tuple(1.0 / 3.0 + 0.7 * k for k in range(m - 1))
    base_prime = (7.3,) + tuple(2.9 - 0.31 * k for k in range(m - 1)) if prime else None
    return ContentPlan(
        m_count=m, bandwidth_hz=(1e6,) * m, subcarriers=(100,) * m, mod_order=(16,) * m,
        t_sym=1e-3, base_power=base, base_power_prime=base_prime,
    )


@pytest.mark.parametrize("prime", [False, True], ids=["equal-prime", "distinct-prime"])
@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("grid_name", list(PIN_GRIDS))
def test_allocate_pinned_to_per_cell_reference(grid_name, m, prime):
    grid = Grid.from_spec(PIN_GRIDS[grid_name])
    plan = _pin_plan(m, prime)
    for kind in SchemeKind:
        for beta in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0):
            for realloc in ("global", "none"):
                scheme = SchemeConfig(kind, beta=beta, buffer_reallocation=realloc)
                tp = allocate(grid, plan, scheme)
                power, active = _ref_allocate(grid, plan, scheme)
                case = repr(scheme)
                assert tp.scheme.label == scheme.label, case
                for got, want in ((tp.power, power), (tp.active, active)):
                    assert got.shape == (len(grid.cells), m), case
                    assert got.dtype == want.dtype, case
                    assert got.flags.c_contiguous, case
                    assert not got.flags.writeable, case
                    assert got.tobytes() == want.tobytes(), case
