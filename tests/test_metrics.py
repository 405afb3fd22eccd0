"""Metrics tests: coverage rule, content-count maps, spectral efficiency."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from helpers import equal_split
from sfn_lsi_sim.allocation import (
    ContentPlan,
    SchemeConfig,
    SchemeKind,
    allocate,
    lsa1_local_contents,
)
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import AreaKind, EvalArea, Grid, GridSpec
from sfn_lsi_sim.metrics import (
    content_count_map,
    coverage,
    plan_weights,
    se_report,
    spectral_efficiency_from_plan,
)
from sfn_lsi_sim.sinr import SinrField


AREA = EvalArea(kind=AreaKind.A1, resolution=1)


def make_field(values, shape=None, area=AREA):
    arr = np.asarray(values, dtype=float)
    return SinrField(area=area, values=arr, shape=shape or (1, arr.size))


def scheme_weights(scheme, spec: GridSpec, m_count: int) -> tuple[Fraction, ...]:
    """Closed-form transmitting-cell fractions, the cross-check of the weights
    the package counts from realized plans.

    The global content is transmitted everywhere (weight 1).  Under the
    orthogonal scheme each local content is carried by exactly one LSA;
    under power scaling by every cell; under buffer orthogonality by every
    cell except the other LSA's buffer column(s).
    """
    kind = scheme.kind if isinstance(scheme, SchemeConfig) else scheme
    n_cells = spec.rows * spec.cols
    n_lsa1 = spec.rows * spec.lsa1_cols
    n_lsa2 = n_cells - n_lsa1
    n_buf_side = spec.rows * spec.buffer_cols_per_side
    lsa1_half = set(lsa1_local_contents(m_count))
    weights = [Fraction(1)]
    for m in range(2, m_count + 1):
        if kind is SchemeKind.OLSI:
            own = n_lsa1 if m in lsa1_half else n_lsa2
            weights.append(Fraction(own, n_cells))
        elif kind is SchemeKind.IMLSI_PS:
            weights.append(Fraction(1))
        else:
            weights.append(Fraction(n_cells - n_buf_side, n_cells))
    return tuple(weights)


def spectral_efficiency(kind: SchemeKind, spec: GridSpec, plan: ContentPlan) -> float:
    """Closed-form xi = sum_m w_m |S_m| log2(mu_m) / (T_sym sum_m B_m)."""
    weights = scheme_weights(kind, spec, plan.m_count)
    rate = sum(w * s * (mu.bit_length() - 1)
               for w, s, mu in zip(weights, plan.subcarriers, plan.mod_order))
    return float(rate) / (plan.t_sym * sum(plan.bandwidth_hz))


def reference_plan() -> ContentPlan:
    return ContentPlan(
        m_count=3,
        bandwidth_hz=(2.4e6,) * 3,
        subcarriers=(1200,) * 3,
        mod_order=(64,) * 3,
        t_sym=1e-3,
        base_power=(1.0,) * 3,
    )


class TestCoverage:
    def test_threshold_is_inclusive(self):
        report = coverage(make_field([10.0, 15.0, 20.0, 25.0]), [15.0])
        assert report.fraction_at(15.0) == 0.75

    def test_all_points_exactly_at_threshold(self):
        report = coverage(make_field([25.0] * 8, shape=(2, 4)), [20.0, 25.0])
        assert report.fraction_at(20.0) == 1.0
        assert report.fraction_at(25.0) == 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        field = make_field(rng.uniform(-5.0, 35.0, size=200))
        report = coverage(field, [0.0, 5.0, 10.0, 15.0, 20.0, 30.0])
        assert list(report.fractions) == sorted(report.fractions, reverse=True)

    def test_percent_and_metadata(self):
        report = coverage(make_field([10.0, 30.0]), [20])
        assert 100 * report.fraction_at(20.0) == 50.0
        assert report.thresholds_db == (20.0,)
        assert isinstance(report.thresholds_db[0], float)

    def test_empty_field_rejected(self):
        field = make_field([], shape=(0, 0))
        with pytest.raises(ValueError, match="empty"):
            coverage(field, [10.0])


class TestContentCountMap:
    def make_fields(self):
        # three contents over four points; threshold 15 dB gives counts 3,2,1,0
        data = {
            1: [20.0, 20.0, 20.0, 10.0],
            2: [20.0, 20.0, 10.0, 10.0],
            3: [20.0, 10.0, 10.0, 10.0],
        }
        return [make_field(v) for v in data.values()]

    def test_counts_per_point(self):
        cmap = content_count_map(self.make_fields(), 15.0)
        assert cmap.counts.tolist() == [3, 2, 1, 0]
        assert cmap.m_count == 3

    def test_histogram_sums_to_one(self):
        cmap = content_count_map(self.make_fields(), 15.0)
        hist = cmap.histogram()
        assert hist == (0.25, 0.25, 0.25, 0.25)
        assert sum(hist) == pytest.approx(1.0, abs=1e-12)

    def test_at_least_and_mean(self):
        cmap = content_count_map(self.make_fields(), 15.0)
        assert cmap.fraction_at_least(1) == 0.75
        assert cmap.fraction_at_least(2) == 0.5
        assert cmap.fraction_at_least(3) == 0.25
        assert cmap.fraction_with_count(0) == 0.25
        assert cmap.mean_count() == pytest.approx(1.5)

    def test_as_image_shape(self):
        cmap = content_count_map(self.make_fields(), 15.0)
        assert cmap.as_image().shape == (1, 4)

    @pytest.mark.parametrize("m_count,dtype", [
        (3, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16),
    ])
    def test_counts_take_the_narrowest_type_that_holds_m(self, m_count, dtype):
        # every content clears the threshold at the first point, none at the last
        fields = [make_field([20.0, 20.0 if m % 2 else 10.0, 10.0])
                  for m in range(1, m_count + 1)]
        cmap = content_count_map(fields, 15.0)
        assert cmap.counts.dtype == dtype
        assert cmap.counts.tolist() == [m_count, (m_count + 1) // 2, 0]
        assert cmap.mean_count() == pytest.approx((m_count + (m_count + 1) // 2) / 3)

    def test_content_order_does_not_change_counts(self):
        fields = self.make_fields()
        want = content_count_map(fields, 15.0).counts.tobytes()
        assert content_count_map(fields[::-1], 15.0).counts.tobytes() == want

    def test_rejects_mixed_lattices(self):
        fields = self.make_fields()
        other = make_field([20.0, 20.0])
        with pytest.raises(ValueError, match="lattice"):
            content_count_map(fields[:2] + [other], 15.0)
        moved = make_field([20.0] * 4, area=EvalArea(kind=AreaKind.A2, resolution=1))
        with pytest.raises(ValueError, match="lattice"):
            content_count_map(fields[:2] + [moved], 15.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            content_count_map([], 15.0)


class TestBitsPerSymbol:
    """``ContentPlan.bits_per_symbol``, which the SE weights and the config's
    finite-run bound both read, and the plan's rule on modulation orders."""

    @staticmethod
    def plan(*orders: int) -> ContentPlan:
        n = len(orders)
        return ContentPlan(m_count=n, bandwidth_hz=(1e6,) * n, subcarriers=(100,) * n,
                           mod_order=orders, t_sym=1e-3, base_power=(1.0,) * n)

    @pytest.mark.parametrize("order,bits", [(2, 1), (4, 2), (16, 4), (64, 6), (1024, 10)])
    def test_powers_of_two(self, order, bits):
        assert self.plan(order, 4).bits_per_symbol == (bits, 2)

    @pytest.mark.parametrize("order", [0, 1, 3, 12, -4])
    def test_rejects_other_orders(self, order):
        with pytest.raises(ConfigurationError, match="powers of two") as exc_info:
            self.plan(4, order)
        assert exc_info.value.field == "mod_order"


class TestSchemeWeights:
    def test_symmetric_grid(self):
        spec = GridSpec()
        assert scheme_weights(SchemeKind.OLSI, spec, 3) == (
            Fraction(1), Fraction(1, 2), Fraction(1, 2))
        assert scheme_weights(SchemeKind.IMLSI_PS, spec, 3) == (
            Fraction(1), Fraction(1), Fraction(1))
        assert scheme_weights(SchemeKind.IMLSI_O, spec, 3) == (
            Fraction(1), Fraction(9, 10), Fraction(9, 10))

    def test_asymmetric_grid(self):
        spec = GridSpec(rows=4, cols=5, lsa1_cols=2)
        # LSA1 carries content 2 (8 of 20 cells), LSA2 carries content 3
        assert scheme_weights(SchemeKind.OLSI, spec, 3) == (
            Fraction(1), Fraction(2, 5), Fraction(3, 5))
        assert scheme_weights(SchemeKind.IMLSI_O, spec, 3) == (
            Fraction(1), Fraction(4, 5), Fraction(4, 5))

    @pytest.mark.parametrize("spec", [
        GridSpec(),
        GridSpec(rows=4, cols=5, lsa1_cols=2),
        GridSpec(rows=2, cols=6, lsa1_cols=3, buffer_cols_per_side=2),
    ])
    @pytest.mark.parametrize("scheme", [
        SchemeConfig(SchemeKind.OLSI),
        SchemeConfig(SchemeKind.IMLSI_PS, beta=0.5),
        SchemeConfig(SchemeKind.IMLSI_O, beta=0.5),
        SchemeConfig(SchemeKind.IMLSI_O, beta=0.5, buffer_reallocation="none"),
    ])
    def test_formula_matches_realized_plan(self, spec, scheme):
        grid = Grid.from_spec(spec)
        for m_count in (2, 3, 5):
            plan = equal_split(m_count, 30.0, m_count * 1e6)
            tp = allocate(grid, plan, scheme)
            assert plan_weights(tp) == scheme_weights(scheme, spec, m_count)


class TestSpectralEfficiency:
    def test_reference_values(self):
        report = se_report(GridSpec(), reference_plan())
        assert report.xi_ps == pytest.approx(3.0, abs=1e-12)
        assert report.xi_olsi == pytest.approx(2.0, abs=1e-12)
        assert report.xi_imo == pytest.approx(2.8, abs=1e-12)

    def test_reference_ratios_exact(self):
        report = se_report(GridSpec(), reference_plan())
        assert report.ratio_olsi_ps == Fraction(2, 3)
        assert report.ratio_olsi_imo == Fraction(5, 7)
        assert report.ratio_ps_imo == Fraction(15, 14)

    def test_ratios_consistent_with_xis(self):
        report = se_report(GridSpec(), reference_plan())
        assert float(report.ratio_olsi_ps) == pytest.approx(
            report.xi_olsi / report.xi_ps, rel=1e-12)
        assert float(report.ratio_ps_imo) == pytest.approx(
            report.xi_ps / report.xi_imo, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    def test_power_scaling_xi_independent_of_beta(self, beta):
        grid = Grid.from_spec(GridSpec())
        plan = reference_plan()
        tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
        assert spectral_efficiency_from_plan(tp, plan) == pytest.approx(3.0, abs=1e-12)

    def test_unequal_subcarriers(self):
        # weights multiply per-content symbol rates, so unequal contents matter
        plan = ContentPlan(
            m_count=2,
            bandwidth_hz=(3e6, 1e6),
            subcarriers=(1500, 500),
            mod_order=(64, 4),
            t_sym=1e-3,
            base_power=(1.0, 1.0),
        )
        report = se_report(GridSpec(), plan)
        # ps: (1500*6 + 500*2) / (1e-3 * 4e6) = 10000 / 4000 = 2.5
        assert report.xi_ps == pytest.approx(2.5, abs=1e-12)
        # olsi: (1500*6 + 0.5*500*2) / 4000 = 9500 / 4000 = 2.375
        assert report.xi_olsi == pytest.approx(2.375, abs=1e-12)

    def test_non_power_of_two_modulation_rejected(self):
        # The plan refuses an order whose log2 is no whole number of bits,
        # so se_report never weighs one.
        with pytest.raises(ConfigurationError,
                           match=r"powers of two >= 2 \(got \(64, 12\)\)") as exc_info:
            ContentPlan(m_count=2, bandwidth_hz=(1e6, 1e6), subcarriers=(100, 100),
                        mod_order=(64, 12), t_sym=1e-3, base_power=(1.0, 1.0))
        assert exc_info.value.field == "mod_order"

    @pytest.mark.parametrize("spec", [
        GridSpec(),
        GridSpec(rows=4, cols=5, lsa1_cols=2),
        GridSpec(rows=2, cols=6, lsa1_cols=3, buffer_cols_per_side=2),
    ])
    def test_report_matches_closed_form(self, spec):
        for plan in (reference_plan(), ContentPlan(
                m_count=4, bandwidth_hz=(3e6, 1e6, 2e6, 1e6),
                subcarriers=(1500, 500, 900, 400), mod_order=(64, 4, 16, 256),
                t_sym=1e-3, base_power=(1.0,) * 4)):
            report = se_report(spec, plan)
            assert report.xi_olsi == spectral_efficiency(SchemeKind.OLSI, spec, plan)
            assert report.xi_ps == spectral_efficiency(SchemeKind.IMLSI_PS, spec, plan)
            assert report.xi_imo == spectral_efficiency(SchemeKind.IMLSI_O, spec, plan)


class TestSeRatioGeneral:
    """Equal plans: each local content is carried by half the cells under the
    orthogonal split, so OLSI/PS = (M+1)/(2M) on a symmetric grid."""

    @staticmethod
    def ratio(m: int, spec: GridSpec | None = None) -> Fraction:
        plan = equal_split(m, float(m), m * 1e6)
        return se_report(spec or GridSpec(), plan).ratio_olsi_ps

    @pytest.mark.parametrize("m,expected", [
        (2, Fraction(3, 4)),
        (3, Fraction(2, 3)),
        (5, Fraction(3, 5)),
        (10, Fraction(11, 20)),
    ])
    def test_closed_form(self, m, expected):
        assert self.ratio(m) == expected

    def test_matches_full_report_for_equal_plans(self):
        symmetric = GridSpec(rows=2, cols=6, lsa1_cols=3, buffer_cols_per_side=2)
        for m in (2, 3, 4, 6, 9):
            assert self.ratio(m) == Fraction(m + 1, 2 * m)
            assert self.ratio(m, symmetric) == Fraction(m + 1, 2 * m)

    def test_limit_approaches_one_half_from_above(self):
        values = [self.ratio(m) for m in (2, 10, 100, 1000)]
        assert all(v > Fraction(1, 2) for v in values)
        assert values == sorted(values, reverse=True)
        assert float(values[-1]) == pytest.approx(0.5, abs=1e-3)
