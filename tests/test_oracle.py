"""Oracle sanity tests; the full engine sweep runs in the acceptance suite."""

from __future__ import annotations

import math

import pytest

from sfn_lsi_sim.allocation import ContentPlan, SchemeConfig, SchemeKind, allocate
from sfn_lsi_sim.grid import Grid, GridSpec
from sfn_lsi_sim.oracle import OracleCase, oracle_sinr, run_oracle_suite
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel
from sfn_lsi_sim.sinr import RadioEnv, SinrEvaluator, sinr_at


def test_single_cell_pair_by_hand():
    # 1x2 grid, power-law eta=2: every gain is 1/d^2 and can be checked by eye
    spec = GridSpec(rows=1, cols=2, isd=1000.0, lsa1_cols=1)
    grid = Grid.from_spec(spec)
    plan = ContentPlan.equal_split(2, 2.0, 2e6)
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0))
    env = RadioEnv(n0=1e-15, pathloss=PathLossModel(kind=PathLossKind.POWER_LAW, eta=2.0))
    point = (250.0, 500.0)  # 250 m from tower 1, 1250 m from tower 2
    got = oracle_sinr(point, 2, tp, env, plan)
    own = 1.0 / 250.0**2
    other = 1.0 / 1250.0**2
    noise = 1e-15 * 1e6
    assert got == pytest.approx(own / (other + noise), rel=1e-12)


def test_oracle_agrees_with_engine_at_arbitrary_point():
    spec = GridSpec(rows=2, cols=4, isd=1700.0, lsa1_cols=2)
    grid = Grid.from_spec(spec)
    plan = ContentPlan.equal_split(3, 3.0, 7.2e6)
    env = RadioEnv(n0=5e-18, pathloss=PathLossModel(kind=PathLossKind.HATA))
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_O, beta=0.25))
    points = [(123.4, 567.8), (3400.0, 1700.0), (6700.0, 3300.0)]
    for m in (1, 2, 3):
        for point, got in zip(points, sinr_at(points, m, tp, env, plan)):
            want = oracle_sinr(point, m, tp, env, plan)
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12)


def test_zero_signal_cases_return_zero():
    # under the orthogonal scheme LSA1 points get no signal on content 3
    spec = GridSpec(rows=1, cols=2, isd=1000.0, lsa1_cols=1)
    grid = Grid.from_spec(spec)
    plan = ContentPlan.equal_split(3, 3.0, 3e6)
    env = RadioEnv(n0=1e-17, pathloss=PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.0))
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.OLSI))
    assert oracle_sinr((250.0, 250.0), 3, tp, env, plan) == 0.0


def test_ok_threshold():
    base = dict(rows=1, cols=2, lsa1_cols=1, m_count=2, scheme="olsi",
                model="hata", n_points=50)
    assert OracleCase(max_rel_err=9e-10, **base).ok
    assert not OracleCase(max_rel_err=2e-9, **base).ok


def test_suite_covers_shapes_schemes_and_models():
    cases = run_oracle_suite(n_points=3, seed=99)
    shapes = {(c.rows, c.cols) for c in cases}
    assert shapes == {(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)}
    assert {c.model for c in cases} == {"power_law", "hata"}
    assert {c.m_count for c in cases} == {2, 3}
    schemes = {c.scheme for c in cases}
    assert any(s.startswith("olsi") for s in schemes)
    assert any(s.startswith("ps_beta") for s in schemes)
    assert any(s.startswith("imo_beta") for s in schemes)
    assert all(case.n_points == 3 for case in cases)
    assert all(math.isfinite(case.max_rel_err) for case in cases)


def test_suite_is_seed_deterministic():
    a = run_oracle_suite(n_points=5, seed=7)
    b = run_oracle_suite(n_points=5, seed=7)
    assert [c.max_rel_err for c in a] == [c.max_rel_err for c in b]


def test_suite_catches_a_broken_shipped_formula(monkeypatch):
    # Give the right buffer the LSA2-interior power inside the engine that
    # writes the artifacts; the suite must see it.
    zone_powers = SinrEvaluator.zone_powers

    def broken(self, tp, content_id):
        p = zone_powers(self, tp, content_id)
        p[2] = p[3]
        return p

    monkeypatch.setattr(SinrEvaluator, "zone_powers", broken)
    cases = run_oracle_suite(n_points=5, seed=7)
    assert any(not case.ok for case in cases)
