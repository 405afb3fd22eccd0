"""Coverage, content-count and spectral-efficiency metrics over SINR fields.

Coverage is the fraction of lattice points whose SINR clears a threshold
(ties count as covered).  Content-count maps count, per point, how many
contents clear the threshold simultaneously.  Spectral efficiency weights
each content's subcarrier rate by the fraction of all cells transmitting it,
so scheme ratios are exact rationals whenever modulation orders are powers
of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sfn_lsi_sim.allocation import (
    ContentPlan,
    SchemeConfig,
    SchemeKind,
    TransmitPlan,
    allocate,
)
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import Grid, GridSpec
from sfn_lsi_sim.sinr import SinrField


@dataclass(frozen=True)
class CoverageReport:
    """Covered fraction per threshold of one field."""

    thresholds_db: tuple[float, ...]
    fractions: tuple[float, ...]

    def fraction_at(self, threshold_db: float) -> float:
        return self.fractions[self.thresholds_db.index(threshold_db)]


def coverage(field: SinrField, thresholds_db: tuple[float, ...] | list[float]) -> CoverageReport:
    """Fraction of sample points with SINR >= threshold, per threshold."""
    if field.values.size == 0:
        raise ValueError("cannot compute coverage of an empty field")
    n = field.values.size
    return CoverageReport(
        thresholds_db=tuple(float(t) for t in thresholds_db),
        fractions=tuple(np.count_nonzero(field.values >= t) / n for t in thresholds_db),
    )


@dataclass(frozen=True)
class ContentCountMap:
    """Per-point count of contents clearing a threshold, over one lattice.

    ``counts`` is 1-D in sampling order with values 0..m_count.
    """

    m_count: int
    counts: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        self.counts.flags.writeable = False
        if self.counts.min(initial=0) < 0 or self.counts.max(initial=0) > self.m_count:
            raise ValueError("counts must lie in 0..m_count")

    def as_image(self) -> np.ndarray:
        return self.counts.reshape(self.shape)

    def histogram(self) -> tuple[float, ...]:
        """Fraction of points with count exactly k, for k = 0..m_count."""
        n = self.counts.size
        return tuple(
            int(np.count_nonzero(self.counts == k)) / n for k in range(self.m_count + 1)
        )

    def fraction_with_count(self, k: int) -> float:
        return int(np.count_nonzero(self.counts == k)) / self.counts.size

    def fraction_at_least(self, k: int) -> float:
        return int(np.count_nonzero(self.counts >= k)) / self.counts.size

    def mean_count(self) -> float:
        return float(self.counts.mean())


def content_count_map(fields: list[SinrField], threshold_db: float) -> ContentCountMap:
    """Combine one field per content, all on one lattice, into a map.
    Counts are a sum, so the order of the fields does not matter."""
    if not fields:
        raise ValueError("content_count_map requires at least one field")
    first = fields[0]
    if any(f.area != first.area or f.shape != first.shape for f in fields):
        raise ValueError("all fields must share the same sampling lattice")
    # The narrowest unsigned type that holds M: uint8 up to 255 contents.
    counts = np.zeros(first.values.size, dtype=np.min_scalar_type(len(fields)))
    for f in fields:
        counts += f.values >= threshold_db
    return ContentCountMap(m_count=len(fields), counts=counts, shape=first.shape)


def bits_per_symbol(mod_order: int) -> int:
    """Exact log2 of the modulation order; orders must be powers of two."""
    if mod_order < 2 or mod_order & (mod_order - 1):
        raise ConfigurationError(
            f"mod_order must be a power of two >= 2 (got {mod_order})"
        )
    return mod_order.bit_length() - 1


def plan_weights(tp: TransmitPlan) -> tuple[Fraction, ...]:
    """Per-content transmitting-cell fractions, over all cells of both LSAs.

    Counted from a realized plan's active flags.  The global content is
    transmitted everywhere (weight 1).
    """
    totals = tp.active.sum(axis=0)
    if totals[0] != len(tp.grid.cells):
        raise ValueError("global content must be active in every cell")
    return tuple(Fraction(int(t), int(totals[0])) for t in totals)


def _se_numerator(weights: tuple[Fraction, ...], plan: ContentPlan) -> Fraction:
    return sum(
        (w * plan.subcarriers[j] * bits_per_symbol(plan.mod_order[j])
         for j, w in enumerate(weights)),
        Fraction(0),
    )


def _xi(numerator: Fraction, plan: ContentPlan) -> float:
    total_bw = sum(plan.bandwidth_hz)
    if total_bw <= 0:
        raise ConfigurationError("total bandwidth must be positive")
    return float(numerator) / (plan.t_sym * total_bw)


def spectral_efficiency_from_plan(tp: TransmitPlan, plan: ContentPlan) -> float:
    """Scheme spectral efficiency in bits/s/Hz.

    xi = sum_m w_m * |S_m| * log2(mu_m) / T_sym, divided by sum_m B_m,
    with w_m the transmitting-cell fraction of content m in ``tp``.
    """
    return _xi(_se_numerator(plan_weights(tp), plan), plan)


@dataclass(frozen=True)
class SEReport:
    """Spectral efficiencies of the three schemes plus their exact ratios."""

    xi_olsi: float
    xi_ps: float
    xi_imo: float
    ratio_olsi_ps: Fraction
    ratio_olsi_imo: Fraction
    ratio_ps_imo: Fraction


def se_report(spec: GridSpec, plan: ContentPlan) -> SEReport:
    """SE of all three schemes on one grid/content plan, ratios as Fractions.

    Weights are counted from each scheme's allocation with default settings;
    the transmitting cells do not depend on beta or buffer reallocation.
    """
    grid = Grid.from_spec(spec)
    nums = {
        kind: _se_numerator(plan_weights(allocate(grid, plan, SchemeConfig(kind))), plan)
        for kind in SchemeKind
    }
    return SEReport(
        xi_olsi=_xi(nums[SchemeKind.OLSI], plan),
        xi_ps=_xi(nums[SchemeKind.IMLSI_PS], plan),
        xi_imo=_xi(nums[SchemeKind.IMLSI_O], plan),
        ratio_olsi_ps=nums[SchemeKind.OLSI] / nums[SchemeKind.IMLSI_PS],
        ratio_olsi_imo=nums[SchemeKind.OLSI] / nums[SchemeKind.IMLSI_O],
        ratio_ps_imo=nums[SchemeKind.IMLSI_PS] / nums[SchemeKind.IMLSI_O],
    )

