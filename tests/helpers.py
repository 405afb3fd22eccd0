"""Shared test fixtures that are plain functions."""

from __future__ import annotations

from sfn_lsi_sim.allocation import ContentPlan


def equal_split(
    m_count: int,
    total_power_w: float,
    total_bandwidth_hz: float,
    subcarriers_per_content: int = 1000,
    mod_order: int = 64,
    t_sym: float = 1e-3,
) -> ContentPlan:
    """Plan with equal powers, bandwidths and modulation for every content."""
    return ContentPlan(
        m_count=m_count,
        bandwidth_hz=(total_bandwidth_hz / m_count,) * m_count,
        subcarriers=(subcarriers_per_content,) * m_count,
        mod_order=(mod_order,) * m_count,
        t_sym=t_sym,
        base_power=(total_power_w / m_count,) * m_count,
    )
