"""Transmit-plan allocation tests for the three insertion schemes."""

from __future__ import annotations

import numpy as np
import pytest

from sfn_lsi_sim.allocation import (
    ContentPlan,
    SchemeConfig,
    SchemeKind,
    allocate,
    allocate_imo,
    allocate_olsi,
    allocate_ps,
    lsa1_local_contents,
    lsa2_local_contents,
)
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import Grid, GridSpec, Lsa, Zone


def cells_in_zone(grid: Grid, zone: Zone) -> list:
    return [c for c in grid.cells if c.zone is zone]


def default_grid() -> Grid:
    return Grid.from_spec(GridSpec())


def equal_plan(m_count: int = 3, total: float = 40.0) -> ContentPlan:
    return ContentPlan.equal_split(m_count, total, 2.4e6 * m_count)


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
        assert plan.total_power_prime == pytest.approx(40.0)
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
        tp = allocate_olsi(grid, equal_plan())
        for cell in grid.cells:
            assert tp.active[cell.index, 0]
            if cell.lsa is Lsa.LSA1:
                assert tp.active[cell.index, 1]
                assert not tp.active[cell.index, 2]
            else:
                assert not tp.active[cell.index, 1]
                assert tp.active[cell.index, 2]

    def test_inactive_means_zero_power_no_reallocation(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate_olsi(grid, plan)
        third = 40.0 / 3.0
        for cell in grid.cells:
            assert tp.power[cell.index, 0] == third
            idle = 3 if cell.lsa is Lsa.LSA1 else 2
            assert tp.power[cell.index, idle - 1] == 0.0
        # unused share is not moved onto other contents
        assert tp.power.sum(axis=1).max() == pytest.approx(2 * third)


class TestPowerScaling:
    def test_all_cells_active_on_everything(self):
        grid = default_grid()
        tp = allocate_ps(grid, equal_plan(), beta=0.25)
        assert tp.active.all()

    def test_buffer_cells_scale_locals_and_boost_global(self):
        grid = default_grid()
        plan = equal_plan()
        beta = 0.25
        tp = allocate_ps(grid, plan, beta=beta)
        third = 40.0 / 3.0
        for cell in grid.buffer_cells():
            assert tp.power[cell.index, 1] == pytest.approx(beta * third)
            assert tp.power[cell.index, 2] == pytest.approx(beta * third)
            assert tp.power[cell.index, 0] == pytest.approx(
                third + 2 * (1 - beta) * third
            )
        for cell in cells_in_zone(grid, Zone.SFN_INTERIOR):
            assert tp.power[cell.index, 0] == third

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_budget_preserved_in_every_cell(self, beta):
        grid = default_grid()
        plan = ContentPlan(
            m_count=3, bandwidth_hz=(2e6,) * 3, subcarriers=(100,) * 3,
            mod_order=(16,) * 3, t_sym=1e-3,
            base_power=(18.0, 13.0, 9.0), base_power_prime=(18.0, 10.0, 12.0),
        )
        tp = allocate_ps(grid, plan, beta=beta)
        sums = tp.power.sum(axis=1)
        for cell in grid.cells:
            expected = plan.total_power if cell.lsa is Lsa.LSA1 else plan.total_power_prime
            assert sums[cell.index] == pytest.approx(expected, rel=1e-9)

    def test_beta_one_is_bitwise_reuse1(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate_ps(grid, plan, beta=1.0)
        baseline = np.array([plan.base_power for _ in grid.cells])
        assert tp.power.tobytes() == baseline.tobytes()

    def test_beta_zero_moves_everything_to_global(self):
        grid = default_grid()
        plan = equal_plan()
        tp = allocate_ps(grid, plan, beta=0.0)
        for cell in grid.buffer_cells():
            assert tp.power[cell.index, 0] == pytest.approx(plan.total_power)
            assert tp.power[cell.index, 1] == 0.0
            assert tp.active[cell.index, 1]


class TestBufferOrthogonality:
    def test_buffer_sides_keep_only_their_half(self):
        grid = default_grid()
        tp = allocate_imo(grid, equal_plan(), beta=1.0)
        for cell in cells_in_zone(grid, Zone.LEFT_BUFFER):
            assert tp.active[cell.index, 1]
            assert not tp.active[cell.index, 2]
            assert tp.power[cell.index, 2] == 0.0
        for cell in cells_in_zone(grid, Zone.RIGHT_BUFFER):
            assert not tp.active[cell.index, 1]
            assert tp.active[cell.index, 2]
        for cell in cells_in_zone(grid, Zone.SFN_INTERIOR):
            assert tp.active[cell.index].all()

    def test_freed_power_boosts_global(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        tp = allocate_imo(grid, plan, beta=1.0)
        for cell in grid.buffer_cells():
            # global share plus the silenced content's share
            assert tp.power[cell.index, 0] == pytest.approx(2 * third)
            assert tp.power[cell.index].sum() == pytest.approx(40.0, rel=1e-9)

    def test_scaling_inside_buffer(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        tp = allocate_imo(grid, plan, beta=0.5)
        for cell in cells_in_zone(grid, Zone.LEFT_BUFFER):
            assert tp.power[cell.index, 1] == pytest.approx(0.5 * third)
            assert tp.power[cell.index, 0] == pytest.approx(
                third + third + 0.5 * third
            )

    def test_reallocation_none_leaves_power_unused(self):
        grid = default_grid()
        plan = equal_plan()
        third = 40.0 / 3.0
        tp = allocate_imo(grid, plan, beta=1.0, buffer_reallocation="none")
        for cell in grid.buffer_cells():
            assert tp.power[cell.index, 0] == third
            assert tp.power[cell.index].sum() == pytest.approx(2 * third)

    def test_budget_never_exceeded(self):
        grid = default_grid()
        plan = equal_plan()
        for beta in (0.0, 0.5, 1.0):
            for realloc in ("global", "none"):
                tp = allocate_imo(grid, plan, beta=beta, buffer_reallocation=realloc)
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
