"""Oracle sanity tests; the full engine sweep runs in the acceptance suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import equal_split, oracle_golden, simd_targets
from sfn_lsi_sim.allocation import SchemeConfig, SchemeKind, allocate
from sfn_lsi_sim.grid import Grid, GridSpec
from sfn_lsi_sim.oracle import (
    _GRID_SHAPES,
    OracleCase,
    _content_plan,
    _scheme_configs,
    oracle_sinr,
    run_oracle_suite,
)
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel
from sfn_lsi_sim import oracle, sinr
from sfn_lsi_sim.sinr import SINR_FLOOR_DB, RadioEnv, SinrEvaluator, sinr_at

ROOT = Path(__file__).resolve().parents[1]


def test_single_cell_pair_by_hand():
    # 1x2 grid, power-law eta=2: every gain is 1/d^2 and can be checked by eye
    spec = GridSpec(rows=1, cols=2, isd=1000.0, lsa1_cols=1)
    grid = Grid.from_spec(spec)
    plan = equal_split(2, 2.0, 2e6)
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0))
    env = RadioEnv(n0=1e-15, pathloss=PathLossModel(kind=PathLossKind.POWER_LAW, eta=2.0))
    # the point (250, 500): 250 m from tower 1, 1250 m from tower 2
    [[got]] = oracle_sinr([250.0], [500.0], 2, tp, env, plan)
    own = 1.0 / 250.0**2
    other = 1.0 / 1250.0**2
    noise = 1e-15 * 1e6
    assert got == pytest.approx(own / (other + noise), rel=1e-12)


def test_oracle_agrees_with_engine_at_arbitrary_point():
    spec = GridSpec(rows=2, cols=4, isd=1700.0, lsa1_cols=2)
    grid = Grid.from_spec(spec)
    plan = equal_split(3, 3.0, 7.2e6)
    env = RadioEnv(n0=5e-18, pathloss=PathLossModel(kind=PathLossKind.HATA))
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_O, beta=0.25))
    xs, ys = [123.4, 3400.0, 6700.0], [567.8, 1700.0, 3300.0]
    for m in (1, 2, 3):
        values = sinr_at(xs, ys, m, tp, env, plan)
        expected = oracle_sinr(xs, ys, m, tp, env, plan)
        assert values.shape == (len(ys), len(xs))
        for i, j in product(range(len(ys)), range(len(xs))):
            want, got = expected[i][j], values[i, j]
            if want == 0.0:
                assert got == SINR_FLOOR_DB
            else:
                assert 10.0 ** (got / 10.0) == pytest.approx(want, rel=1e-12)


def test_zero_signal_cases_return_zero():
    # under the orthogonal scheme LSA1 points get no signal on content 3
    spec = GridSpec(rows=1, cols=2, isd=1000.0, lsa1_cols=1)
    grid = Grid.from_spec(spec)
    plan = equal_split(3, 3.0, 3e6)
    env = RadioEnv(n0=1e-17, pathloss=PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.0))
    tp = allocate(grid, plan, SchemeConfig(SchemeKind.OLSI))
    assert oracle_sinr([250.0], [250.0], 3, tp, env, plan) == [[0.0]]


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


def test_suite_catches_a_broken_gain_kernel(monkeypatch):
    # Shift every folded tower-to-sample offset by one slot, so each kernel
    # window starts one sample late; only the lattice kernel reads them.
    fold = sinr._fold

    def shifted(towers, samples, spacing):
        p, offsets = fold(towers, samples, spacing)
        return p, np.roll(offsets, 1)

    monkeypatch.setattr(sinr, "_fold", shifted)
    cases = run_oracle_suite(n_points=5, seed=7)
    assert any(not case.ok for case in cases)


def test_suite_catches_a_broken_db_conversion(monkeypatch):
    # Add 1e-7 dB to every value the artifacts' dB conversion writes: a
    # relative error of about 2.3e-8 in linear terms.
    db = sinr._db

    def offset(linear, out):
        db(linear, out)
        out += 1e-7

    monkeypatch.setattr(sinr, "_db", offset)
    cases = run_oracle_suite(n_points=5, seed=7)
    assert any(not case.ok for case in cases)


def test_suite_counts_a_nan_error_as_infinite(monkeypatch):
    # One NaN reference value per call: NaN compares false with everything,
    # so it must not leave its case ok.
    brute_force = oracle.oracle_sinr

    def one_nan(*args):
        values = brute_force(*args)
        values[0][0] = math.nan
        return values

    monkeypatch.setattr(oracle, "oracle_sinr", one_nan)
    cases = run_oracle_suite(n_points=5, seed=7)
    assert all(case.max_rel_err == math.inf and not case.ok for case in cases)


def test_suite_scans_each_group_once(monkeypatch):
    # One scan per (grid, M, model) group over the group's distinct keys
    # and the nine plans allocated once per (grid, M).  Every sinr_at call
    # makes a scan of its own, so 24 scans leave room for none.
    scan, allocate_plan = SinrEvaluator.scan, oracle.allocate
    scanned, allocated = [], []

    def counted_scan(self, xs, ys, keys):
        scanned.append(list(keys))
        return scan(self, xs, ys, keys)

    def counted_allocate(*args):
        allocated.append(args)
        return allocate_plan(*args)

    monkeypatch.setattr(SinrEvaluator, "scan", counted_scan)
    monkeypatch.setattr(oracle, "allocate", counted_allocate)
    run_oracle_suite(n_points=5, seed=7)
    assert len(scanned) == 24
    assert len(allocated) == 108
    groups = iter(scanned)
    for (rows, cols, lsa1_cols), m_count in product(_GRID_SHAPES, (2, 3)):
        grid = Grid.from_spec(GridSpec(rows=rows, cols=cols, lsa1_cols=lsa1_cols,
                                       buffer_cols_per_side=1))
        plan = _content_plan(m_count)
        tps = [allocate(grid, plan, scheme) for scheme in _scheme_configs()]
        evaluator = SinrEvaluator(grid, RadioEnv(n0=4e-21, pathloss=PathLossModel()))
        want = {evaluator.field_key(m, tp, plan) for tp in tps for m in plan.content_ids}
        for _ in range(2):  # one scan per path-loss model
            keys = next(groups)
            assert len(keys) == len(set(keys))
            assert set(keys) == want


def test_suite_catches_keys_crossed_in_one_scan(monkeypatch):
    # Hand key i's values to key i+1 inside one multi-key scan: every key's
    # own values are right, only their assignment is wrong.
    scan = SinrEvaluator.scan

    def crossed(self, xs, ys, keys):
        for rows, i, values in scan(self, xs, ys, keys):
            yield rows, (i + 1) % len(keys), values

    monkeypatch.setattr(SinrEvaluator, "scan", crossed)
    cases = run_oracle_suite(n_points=5, seed=7)
    assert not any(case.ok for case in cases)


def uncached_oracle_sinr(point, content_id, tp, env, plan):
    """The brute force as a plain loop that recomputes every cell's gain on
    each call: the bit-level reference for the memoized ``oracle_sinr``."""
    model = env.pathloss
    spec = tp.grid.spec
    px, py = point
    point_in_lsa1 = px < spec.lsa1_cols * spec.isd
    own_terms, other_terms = [], []
    for row in range(spec.rows):
        for col in range(spec.cols):
            index = row * spec.cols + col
            d = math.hypot((col + 0.5) * spec.isd - px, (row + 0.5) * spec.isd - py)
            if d < 20.0:
                d = 20.0
            if model.kind is PathLossKind.POWER_LAW:
                g = d ** (-model.eta)
            else:
                log_f = math.log10(model.f_mhz)
                a_hm = (1.1 * log_f - 0.7) * model.hm_m - (1.56 * log_f - 0.8)
                loss_db = (
                    69.55
                    + 26.16 * log_f
                    - 13.82 * math.log10(model.hb_m)
                    - a_hm
                    + (44.9 - 6.55 * math.log10(model.hb_m)) * math.log10(d / 1000.0)
                )
                g = 10.0 ** (-loss_db / 10.0)
            term = float(tp.power[index, content_id - 1]) * g
            if content_id == 1 or (col < spec.lsa1_cols) == point_in_lsa1:
                own_terms.append(term)
            else:
                other_terms.append(term)
    noise = env.n0 * plan.bandwidth_hz[content_id - 1]
    return math.fsum(own_terms) / (math.fsum(other_terms) + noise)


def gray_order(*factors):
    """Every combination of the factors, in an order where each one differs
    from the one before in a single factor (a reflected Gray code)."""
    if not factors:
        yield ()
        return
    rest = list(gray_order(*factors[1:]))
    for i, value in enumerate(factors[0]):
        for tail in rest if i % 2 == 0 else reversed(rest):
            yield (value, *tail)


def test_brute_force_matches_the_uncached_loop_bit_for_bit():
    # Consecutive (axes, spec, model) triples differ in one of them only:
    # another y axis on the same x axis or another x axis on the same y
    # axis; the next spec (the base grid sits between one a row taller and
    # one a column wider, all on the same axes, and specs with another isd
    # and another lsa1_cols follow); or the next model, one field away from
    # the one before (eta, path-loss kind or a Hata parameter).  So held
    # gains keyed on too little show as a changed bit.
    models = [PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.0)]
    for change in ({"eta": 3.5}, {"kind": PathLossKind.HATA}, {"f_mhz": 900.0},
                   {"hb_m": 50.0}, {"hm_m": 3.0}):
        models.append(replace(models[-1], **change))
    envs = [RadioEnv(n0=4e-21, pathloss=model) for model in models]
    rng = np.random.default_rng(11)
    checked = 0
    for (rows, cols, lsa1_cols), m_count in product(_GRID_SHAPES, (2, 3)):
        base = GridSpec(rows=rows, cols=cols, lsa1_cols=lsa1_cols, buffer_cols_per_side=1)
        specs = [replace(base, rows=rows + 1), base, replace(base, cols=cols + 1),
                 replace(base, isd=base.isd * 1.25)]
        if cols > 2:
            specs.append(replace(base, lsa1_cols=lsa1_cols % (cols - 1) + 1))
        plan = _content_plan(m_count)
        plans = [[allocate(Grid.from_spec(spec), plan, scheme) for scheme in _scheme_configs()]
                 for spec in specs]
        (x1, x2), (y1, y2) = ([rng.uniform(0.0, extent * base.isd, n).tolist() for n in (3, 2)]
                              for extent in (cols, rows))
        axes = [(x1, y2), (x1, y1), (x2, y1)]
        for (xs, ys), tps, env in gray_order(axes, plans, envs):
            for tp, m in product(tps, plan.content_ids):
                want = [[uncached_oracle_sinr((x, y), m, tp, env, plan) for x in xs]
                        for y in ys]
                got = oracle_sinr(xs, ys, m, tp, env, plan)
                assert got == want, (tp.grid.spec, tp.scheme.label, env.pathloss, m)
                checked += 1
    # axes pairs x schemes x contents over M x specs over shapes x models
    assert checked == 3 * 9 * (2 + 3) * (2 * 4 + 4 * 5) * 6


def test_suite_computes_each_points_gains_once(monkeypatch):
    # Every scheme and content of a (grid, M, model) group reads the gains
    # of the group's one axes pair; only that pair is held.
    cell_gains = oracle._cell_gains
    calls = []

    def counted(*args):
        calls.append(args)
        return cell_gains(*args)

    monkeypatch.setattr(oracle, "_cell_gains", counted)
    oracle._axes_gains.cache_clear()
    run_oracle_suite(n_points=5, seed=7)
    assert len(calls) == 24 * 5
    assert oracle._axes_gains.cache_info().currsize <= 1


def test_oracle_cli_output_unchanged():
    # The golden of the SIMD target this process and its child run on.
    golden = oracle_golden(simd_targets()[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "sfn_lsi_sim.cli", "oracle", "--config",
         "configs/paper_table1.cfg"],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=True,
    )
    assert result.stdout == golden.read_bytes()
