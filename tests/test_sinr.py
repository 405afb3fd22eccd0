"""SINR engine tests: kernel/point-reference agreement, floors, determinism."""

from __future__ import annotations

import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import LEFT_BUFFER, RIGHT_BUFFER, cell_refs, equal_split, zone_gains
from sfn_lsi_sim.allocation import (
    SchemeConfig,
    SchemeKind,
    TransmitPlan,
    allocate,
)
from sfn_lsi_sim.config import parse_config
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import (
    ZONES,
    AreaKind,
    EvalArea,
    Grid,
    GridSpec,
    lattice_axes,
    sample_points,
    sample_shape,
)
from sfn_lsi_sim.oracle import _GRID_SHAPES, _content_plan, _scheme_configs, oracle_sinr
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel
from sfn_lsi_sim import sinr
from sfn_lsi_sim.sinr import (
    SINR_FLOOR_DB,
    RadioEnv,
    SinrEvaluator,
    sinr_at,
)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def make_env(kind=PathLossKind.POWER_LAW) -> RadioEnv:
    return RadioEnv(n0=4e-21, pathloss=PathLossModel(kind=kind, eta=3.5))


def field_of(area, content_id, tp, env, plan):
    return SinrEvaluator(tp.grid, env).field(area, content_id, tp, plan)


def make_setup(scheme=None, m_count=3, spec=None):
    spec = spec or GridSpec()
    grid = Grid.from_spec(spec)
    plan = equal_split(m_count, 40.0, m_count * 2.4e6)
    scheme = scheme or SchemeConfig(SchemeKind.IMLSI_PS, beta=0.5)
    return grid, plan, allocate(grid, plan, scheme)


class TestRadioEnv:
    def test_noise_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="n0"):
            RadioEnv(n0=0.0, pathloss=PathLossModel())


class TestSinrAt:
    def test_global_content_has_no_interference(self):
        grid, plan, tp = make_setup()
        env = make_env()
        # with equal powers everywhere the global SINR is signal over noise only,
        # so it must exceed any single local content's SINR at every point
        xs, ys = [850.0, 8000.0, 16000.0], [850.0, 6800.0, 1000.0]
        g1 = sinr_at(xs, ys, 1, tp, env, plan)
        g2 = sinr_at(xs, ys, 2, tp, env, plan)
        assert g1.shape == (3, 3)
        assert (g1 > g2).all()

    def test_db_matches_linear(self):
        # The dB values are 10 log10 of own / (other + noise), built here
        # from the point-by-point reference zone gains.
        grid, plan, tp = make_setup()
        env = make_env()
        area = EvalArea(kind=AreaKind.A1, resolution=2)
        points = sample_points(area, grid.spec)
        g = zone_gains(grid, env, points)
        p = SinrEvaluator(grid, env).zone_powers(tp, 2)
        from1, from2 = p[0] * g[0] + p[1] * g[1], p[2] * g[2] + p[3] * g[3]
        in_lsa1 = points[:, 0] < grid.spec.lsa1_cols * grid.spec.isd
        own, other = np.where(in_lsa1, from1, from2), np.where(in_lsa1, from2, from1)
        linear = own / (other + env.n0 * plan.bandwidth_of(2))
        db = sinr_at(*lattice_axes(area, grid.spec), 2, tp, env, plan)
        assert db.ravel() == pytest.approx(10 * np.log10(linear), abs=1e-12)

    def test_zero_signal_reports_floor(self):
        # under the orthogonal scheme a point in LSA1 has no serving cell for
        # the other LSA's local content
        grid, plan, tp = make_setup(SchemeConfig(SchemeKind.OLSI))
        env = make_env()
        assert sinr_at([850.0], [850.0], 3, tp, env, plan).tolist() == [[SINR_FLOOR_DB]]
        # (850, 850) is the first point of the resolution-1 A1 lattice
        field = field_of(EvalArea(kind=AreaKind.A1, resolution=1), 3, tp, env, plan)
        assert field.values[0] == SINR_FLOOR_DB

    def test_content_id_bounds(self):
        grid, plan, tp = make_setup()
        for content_id in (0, 4):
            with pytest.raises(ValueError, match="content_id"):
                sinr_at([0.0], [0.0], content_id, tp, make_env(), plan)

    def test_symmetry_of_mirror_points(self):
        # reuse-1 with equal powers: the grid is mirror-symmetric about the
        # LSA boundary, so content 2 at x equals content 3 at width-x
        grid, plan, tp = make_setup(SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0))
        env = make_env()
        width = grid.spec.cols * grid.spec.isd
        xs, ys = np.array([850.0, 4000.0, 8200.0]), np.array([850.0, 5000.0, 12000.0])
        left = sinr_at(xs, ys, 2, tp, env, plan)
        right = sinr_at(width - xs, ys, 3, tp, env, plan)
        assert left.ravel() == pytest.approx(right.ravel(), rel=1e-12)

    def test_sinr_at_matches_a_fresh_evaluator_across_grids(self):
        # Alternating grids and environments, every sinr_at call, repeats
        # included, must give a fresh evaluator's lattice bytes.
        area = EvalArea(kind=AreaKind.A2, resolution=3)
        setups = [make_setup(spec=GridSpec(rows=2, cols=4, lsa1_cols=2)),
                  make_setup(SchemeConfig(SchemeKind.IMLSI_O, beta=0.25),
                             spec=GridSpec(rows=1, cols=3, lsa1_cols=2))]
        envs = [make_env(), make_env(PathLossKind.HATA)]
        for _ in range(2):
            for (grid, plan, tp), env in itertools.product(setups, envs):
                want = SinrEvaluator(grid, env).field(area, 2, tp, plan).values.tobytes()
                xs, ys = lattice_axes(area, grid.spec)
                for _ in range(2):
                    assert sinr_at(xs, ys, 2, tp, env, plan).tobytes() == want


class TestSinrField:
    def test_field_matches_point_evaluation(self):
        # Descending axes never fold, so sinr_at on the reversed lattice
        # axes reads disjoint kernel windows where the field of a periodic
        # lattice reads overlapping ones; both must give every lattice
        # point the same bytes.
        schemes = [SchemeConfig(SchemeKind.OLSI),
                   SchemeConfig(SchemeKind.IMLSI_PS, beta=0.5),
                   SchemeConfig(SchemeKind.IMLSI_O, beta=0.25)]
        # isd 1700 at resolution 3 is not periodic (disjoint kernel
        # windows); at resolution 4 it is (overlapping windows)
        areas = [EvalArea(kind=AreaKind.A2, resolution=3),
                 EvalArea(kind=AreaKind.A1, resolution=3),
                 EvalArea(kind=AreaKind.A2, resolution=4),
                 EvalArea(kind=AreaKind.A1, resolution=4)]
        for spec in (GridSpec(), GridSpec(rows=3, cols=7, isd=1234.567, lsa1_cols=3)):
            for kind in (PathLossKind.POWER_LAW, PathLossKind.HATA):
                env = make_env(kind)
                for scheme in schemes:
                    grid, plan, tp = make_setup(scheme, spec=spec)
                    evaluator = SinrEvaluator(grid, env)
                    for area, m in itertools.product(areas, plan.content_ids):
                        field = evaluator.field(area, m, tp, plan).values
                        xs, ys = lattice_axes(area, spec)
                        point = sinr_at(xs[::-1], ys[::-1], m, tp, env, plan)[::-1, ::-1]
                        where = f"{spec} {kind} {scheme.label} {area} content {m}"
                        assert point.tobytes() == field.tobytes(), where

    def test_all_values_finite_even_with_zero_signal(self):
        grid, plan, tp = make_setup(SchemeConfig(SchemeKind.OLSI))
        env = make_env()
        area = EvalArea(kind=AreaKind.A1, resolution=3)
        field = field_of(area, 3, tp, env, plan)
        assert np.isfinite(field.values).all()
        assert (field.values == SINR_FLOOR_DB).all()

    def test_non_finite_linear_sinr_is_refused_where_made(self, monkeypatch):
        grid, plan, tp = make_setup()
        env = make_env()
        evaluator = SinrEvaluator(grid, env)
        terms = sinr._terms

        def infinite(g, in_lsa1, key):
            own, other = terms(g, in_lsa1, key)
            own = own.copy()
            own[..., -1] = np.inf
            return own, other

        monkeypatch.setattr(sinr, "_terms", infinite)
        area = EvalArea(kind=AreaKind.A1, resolution=3)
        with pytest.raises(ValueError, match="non-finite"):
            evaluator.field(area, 2, tp, plan)
        with pytest.raises(ValueError, match="non-finite"):
            sinr_at(*lattice_axes(area, grid.spec), 2, tp, env, plan)

    def test_field_shape_and_image(self):
        grid, plan, tp = make_setup()
        env = make_env()
        # the map area spans the full grid: 8 rows x 10 cols at 3 samples/isd
        area = EvalArea(kind=AreaKind.A2, resolution=3)
        field = field_of(area, 1, tp, env, plan)
        assert field.shape == (24, 30)
        assert field.as_image().shape == (24, 30)
        assert field.values.size == 720

    def test_values_read_only(self):
        grid, plan, tp = make_setup()
        field = field_of(EvalArea(kind=AreaKind.A1, resolution=2), 1, tp,
                         make_env(), plan)
        with pytest.raises(ValueError):
            field.values[0] = 0.0

    def test_evaluator_rejects_foreign_plan(self):
        grid, plan, tp = make_setup()
        other = Grid.from_spec(GridSpec(rows=2, cols=4, lsa1_cols=2))
        evaluator = SinrEvaluator(other, make_env())
        with pytest.raises(ConfigurationError, match="different grid"):
            evaluator.field(EvalArea(kind=AreaKind.A1, resolution=2), 1, tp, plan)

    @pytest.mark.parametrize("kind", [PathLossKind.POWER_LAW, PathLossKind.HATA])
    def test_chunk_boundaries_do_not_change_bytes(self, monkeypatch, kind):
        # A2 at resolution 40: 320 rows of 400 points, reduced in blocks of
        # 40 rows by default, then of 1 and of 3 rows (the last partial).
        # sinr_at on the reversed axes, which never fold, must give the
        # same bytes under every block size.
        grid, plan, tp = make_setup()
        env = make_env(kind)
        evaluator = SinrEvaluator(grid, env)
        area = EvalArea(kind=AreaKind.A2, resolution=40)
        xs, ys = lattice_axes(area, grid.spec)
        blocks = []
        terms = sinr._terms

        def counted(g, in_lsa1, key):
            blocks.append(g.shape[1])
            return terms(g, in_lsa1, key)

        monkeypatch.setattr(sinr, "_terms", counted)
        fields = {}
        for rows_per_block, chunk in ((40, sinr._CHUNK), (1, xs.size), (3, 3 * xs.size + 1)):
            monkeypatch.setattr(sinr, "_CHUNK", chunk)
            blocks.clear()
            fields[rows_per_block] = evaluator.field(area, 2, tp, plan).values.tobytes()
            assert len(blocks) >= 8 and blocks[0] == rows_per_block, chunk
            assert sum(blocks) == 320
            point = sinr_at(xs[::-1], ys[::-1], 2, tp, env, plan)[::-1, ::-1]
            assert point.tobytes() == fields[rows_per_block], chunk
        assert fields[1] == fields[3] == fields[40]

    def test_repeated_evaluation_identical(self):
        grid, plan, tp = make_setup()
        env = make_env()
        evaluator = SinrEvaluator(grid, env)
        area = EvalArea(kind=AreaKind.A1, resolution=5)
        a = evaluator.field(area, 2, tp, plan).values.tobytes()
        b = evaluator.field(area, 2, tp, plan).values.tobytes()
        assert a == b


class TestZoneEngine:
    def test_gains_are_four_read_only_zone_rows(self):
        grid, _, _ = make_setup()
        area = EvalArea(kind=AreaKind.A2, resolution=2)
        g = SinrEvaluator(grid, make_env()).gains_for(area)
        assert g.shape == (len(ZONES), 8 * 10 * 4)
        with pytest.raises(ValueError):
            g[0, 0] = 0.0

    @pytest.mark.parametrize("kind", [PathLossKind.POWER_LAW, PathLossKind.HATA])
    def test_a1_field_is_column_slice_of_a2(self, kind):
        # A run scans A2 once and reads A1 results from its left columns;
        # those must be the bytes of the A1 lattice's own field.
        spec = GridSpec(rows=3, cols=7, isd=1234.567, lsa1_cols=3)
        grid, plan, tp = make_setup(SchemeConfig(SchemeKind.IMLSI_O, beta=0.5),
                                    spec=spec)
        env = make_env(kind)
        a1 = EvalArea(kind=AreaKind.A1, resolution=5)
        a2 = EvalArea(kind=AreaKind.A2, resolution=5)
        ny, nx1 = sample_shape(a1, spec)
        shared = SinrEvaluator(grid, env)
        for m in plan.content_ids:
            full = shared.field(a2, m, tp, plan).as_image()[:, :nx1]
            # built from the A1 lattice's own gains
            direct = shared.field(a1, m, tp, plan)
            assert (direct.area, direct.shape) == (a1, (ny, nx1))
            assert np.ascontiguousarray(full).tobytes() == direct.values.tobytes()

    @pytest.mark.parametrize("kind", [PathLossKind.POWER_LAW, PathLossKind.HATA])
    @pytest.mark.parametrize("spec,resolution", [
        (GridSpec(), 20),
        (GridSpec(rows=6, cols=12, isd=1200.0, lsa1_cols=6, buffer_cols_per_side=2), 8),
    ], ids=["paper-r20", "6x12-r8"])
    def test_periodic_lattice_takes_the_kernel_path(self, monkeypatch, kind, spec,
                                                    resolution):
        grid, env = Grid.from_spec(spec), make_env(kind)
        areas = [EvalArea(kind=k, resolution=resolution) for k in (AreaKind.A2, AreaKind.A1)]
        want = [zone_gains(grid, env, sample_points(a, spec)) for a in areas]
        slabs = []
        kernel_gain = sinr.gain

        def counted(model, d, **kwargs):
            slabs.append(d.shape)
            return kernel_gain(model, d, **kwargs)

        monkeypatch.setattr(sinr, "gain", counted)
        default_chunk = sinr._KERNEL_CHUNK
        n_default = []
        for area, expected in zip(areas, want):
            # A slab takes as many residues mod the period as both the
            # kernel bound and one key block of zone gains allow; with
            # 3 residues' kernel rows it takes 3: >= 3 slabs, the last one
            # partial, since neither resolution is a multiple of 3.
            nx = sample_shape(area, spec)[1]
            residue_rows = (2 * spec.rows - 1) * (nx + (spec.cols - 1) * resolution)
            per_slab = min(default_chunk // residue_rows, sinr._CHUNK // (spec.rows * nx))
            for chunk, n_slabs in ((default_chunk, -(-resolution // per_slab)),
                                   (3 * residue_rows, -(-resolution // 3))):
                monkeypatch.setattr(sinr, "_KERNEL_CHUNK", chunk)
                slabs.clear()
                # a fresh evaluator, so the gains are built, not cached
                got = SinrEvaluator(grid, env).gains_for(area)
                assert got.tobytes() == expected.tobytes(), (area, chunk)
                assert len(slabs) == n_slabs, (area, chunk)
                assert all(s[1] * spec.rows * nx <= sinr._CHUNK for s in slabs), slabs
                if chunk == default_chunk:
                    n_default.append(n_slabs)
            assert n_slabs >= 3 and slabs[-1][1] < slabs[0][1] == 3
        # Paper A2 at r20: 10 of the 22 residues the kernel bound allows.
        assert n_default == {20: [2, 1], 8: [1, 1]}[resolution]

    @pytest.mark.parametrize("spec,area,split", [
        (GridSpec(rows=3, cols=7, isd=1234.567, lsa1_cols=3),
         EvalArea(kind=AreaKind.A2, resolution=5), [4, 4, 4, 3]),
        (GridSpec(), EvalArea(kind=AreaKind.A2, resolution=3), [5, 5, 5, 5, 4]),
        # aperiodic in x only, then in y only.  The first has 6 residues,
        # which no split into >= 3 slabs leaves with a partial last one.
        (GridSpec(rows=1, cols=2, lsa1_cols=1), EvalArea(kind=AreaKind.A2, resolution=6),
         [2, 2, 2]),
        (GridSpec(rows=3, cols=2, lsa1_cols=1), EvalArea(kind=AreaKind.A2, resolution=3),
         [4, 4, 1]),
    ], ids=["isd1234.567-r5", "paper-r3", "1x2-r6-x", "3x2-r3-y"])
    def test_aperiodic_lattice_takes_the_kernel_path(self, monkeypatch, spec, area, split):
        # An axis whose offsets do not repeat with the tower period folds
        # with its sample count as period: disjoint kernel windows.
        grid, env = Grid.from_spec(spec), make_env(PathLossKind.HATA)
        want = zone_gains(grid, env, sample_points(area, spec))
        slabs = []
        kernel_gain = sinr.gain

        def counted(model, d, **kwargs):
            slabs.append(d.shape)
            return kernel_gain(model, d, **kwargs)

        monkeypatch.setattr(sinr, "gain", counted)
        assert SinrEvaluator(grid, env).gains_for(area).tobytes() == want.tobytes()
        # One slab of (kernel rows, residues mod the y period, kernel columns),
        # with no more elements than tower-to-point distances.
        (ky_rows, residues, kx_size), = slabs
        assert residues == sum(split)
        assert ky_rows * residues * kx_size <= want.shape[1] * len(grid.cells)
        monkeypatch.setattr(sinr, "_KERNEL_CHUNK", split[0] * ky_rows * kx_size)
        slabs.clear()
        assert SinrEvaluator(grid, env).gains_for(area).tobytes() == want.tobytes()
        assert len(slabs) >= 3 and [s[1] for s in slabs] == split

    @pytest.mark.parametrize("descending", [True, False], ids=["top-first", "bottom-first"])
    @pytest.mark.parametrize("one_row_slabs", [False, True], ids=["default", "chunk1"])
    @pytest.mark.parametrize("spec,resolution,residues", [
        (GridSpec(rows=1, cols=2, lsa1_cols=1), 4, {False: 4, True: 4}),
        (GridSpec(), 20, {False: 20, True: 160}),
        (GridSpec(), 7, {False: 56, True: 56}),
    ], ids=["smoke-1x2-r4", "paper-r20", "paper-r7"])
    def test_folded_scan_gives_every_row_once(
            self, monkeypatch, spec, resolution, residues, one_row_slabs, descending):
        # A scan folds a lattice with the resolution as period: on one
        # tower row, on a periodic and on an aperiodic lattice, and across
        # one slab per kernel residue.  Each key must get every row exactly
        # once, with the bytes of its field.  The y axis folds with the
        # period where its offsets repeat (ascending, periodic) and not
        # elsewhere (descending, or aperiodic), so the slabs' residues add
        # up to the period or to the row count.
        grid, plan, tp = make_setup(spec=spec)
        evaluator = SinrEvaluator(grid, make_env(PathLossKind.HATA))
        area = EvalArea(kind=AreaKind.A2, resolution=resolution)
        xs, ys = lattice_axes(area, spec)
        keys = [evaluator.field_key(m, tp, plan) for m in plan.content_ids]
        flip = slice(None, None, -1 if descending else 1)
        want = [evaluator.field(area, m, tp, plan).as_image()[flip]
                for m in plan.content_ids]
        slabs = []
        kernel_gain = sinr.gain

        def counted(model, d, **kwargs):
            slabs.append(d.shape[1])
            return kernel_gain(model, d, **kwargs)

        monkeypatch.setattr(sinr, "gain", counted)
        if one_row_slabs:
            monkeypatch.setattr(sinr, "_KERNEL_CHUNK", 1)
        got = [[] for _ in keys]
        for rows, i, values in evaluator.scan(xs, ys[flip], keys):
            got[i].extend(rows.tolist())
            assert values.tobytes() == np.ascontiguousarray(want[i][rows]).tobytes()
        assert [sorted(rows) for rows in got] == [list(range(ys.size))] * len(keys)
        assert sum(slabs) == residues[descending]
        if one_row_slabs:
            assert slabs == [1] * residues[descending]

    @pytest.mark.parametrize("isd", [1700.0, 1200.0, 1234.567])
    def test_fold_finds_the_resolution_of_every_lattice(self, isd):
        # The fold a lattice at resolution r once took with r passed in as
        # its period: r where every offset that shares an index is equal,
        # else disjoint windows, one tower after another.
        def fold_with_period(towers, samples, period):
            table = towers[:, None] - samples
            index = (np.arange(samples.size) - period * np.arange(towers.size)[:, None]
                     + period * (towers.size - 1))
            folded = np.zeros(samples.size + period * (towers.size - 1))
            folded[index] = table
            if np.array_equal(folded[index], table):
                return period, folded
            return samples.size, (towers[::-1, None] - samples).ravel()

        spec = GridSpec(rows=2, cols=3, isd=isd, lsa1_cols=1)
        towers = Grid.from_spec(spec).tower_axes()
        found = set()
        for r in range(1, 201):
            for kind in (AreaKind.A2, AreaKind.A1):
                for t, samples in zip(towers, lattice_axes(EvalArea(kind, r), spec)):
                    p, folded = sinr._fold(t, samples, isd)
                    want_p, want = fold_with_period(t, samples, r)
                    assert (p, folded.tobytes()) == (want_p, want.tobytes()), (r, kind)
                    found.add(p == r)
        assert found == {True, False}

    def test_fold_leaves_other_axes_unfolded(self):
        towers = Grid.from_spec(GridSpec()).tower_axes()[0]
        lattice = lattice_axes(EvalArea(AreaKind.A2, 4), GridSpec())[0]
        axes = {
            "random": np.random.default_rng(5).uniform(0.0, 17000.0, 40),
            "descending": lattice[::-1],
            "one sample": lattice[:1],
            "repeated value": np.full(40, 850.0),
            "repeated then periodic": np.concatenate([lattice[:1], lattice[:39]]),
            "subnormal step": np.array([0.0, 5e-324, 1e-323, 1.5e-323]),
            "step above twice the spacing": np.arange(4) * 5000.0,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, samples in axes.items():
                p, folded = sinr._fold(towers, samples, 1700.0)
                assert p == samples.size, name
                assert folded.tobytes() == (towers[::-1, None] - samples).tobytes(), name

    def test_kernel_evaluates_each_offset_once(self, monkeypatch):
        # paper A2 at resolution 20: 160 x 200 points, 80 towers.  The
        # offset grid is (160 + 7*20) x (200 + 9*20); point by point it
        # would be 32,000 x 80 gains.
        evaluated = []
        kernel_gain = sinr.gain

        def counted(model, d, **kwargs):
            evaluated.append(np.size(d))
            return kernel_gain(model, d, **kwargs)

        monkeypatch.setattr(sinr, "gain", counted)
        grid = Grid.from_spec(GridSpec())
        SinrEvaluator(grid, make_env()).gains_for(EvalArea(kind=AreaKind.A2, resolution=20))
        assert sum(evaluated) == (160 + 140) * (200 + 180)

    def test_kernel_gain_build_holds_no_full_size_temporary(self):
        # Paper A2 at resolution 100: 800,000 points.  Beyond the cached
        # rows, only kernel-slab temporaries may be alive at the peak.
        cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
        evaluator = SinrEvaluator(Grid.from_spec(cfg.grid), cfg.env())
        tracemalloc.start()
        try:
            g = evaluator.gains_for(EvalArea(kind=AreaKind.A2, resolution=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.shape == (len(ZONES), 800_000)
        assert peak <= g.nbytes + 4 * 8 * sinr._KERNEL_CHUNK

    def test_power_varying_within_a_zone_is_rejected(self):
        grid, plan, tp = make_setup()
        power = tp.power.copy()
        lb_cell = next(c for c in cell_refs(grid.spec) if c.zone == LEFT_BUFFER)
        power[lb_cell.index, 1] *= 0.5
        bad = TransmitPlan(grid=grid, scheme=tp.scheme, power=power,
                           active=tp.active.copy())
        evaluator = SinrEvaluator(grid, make_env())
        area = EvalArea(kind=AreaKind.A1, resolution=2)
        with pytest.raises(ValueError, match="content 2 .*zone left_buffer"):
            evaluator.field(area, 2, bad, plan)
        # the other contents are still one power per zone
        evaluator.field(area, 3, bad, plan)
        # Varying in both buffers, the error names the lower band, even
        # though a right-buffer cell comes first in cell-index order.
        rb_cell = next(c for c in cell_refs(grid.spec) if c.zone == RIGHT_BUFFER)
        lb_last = [c for c in cell_refs(grid.spec) if c.zone == LEFT_BUFFER][-1]
        assert rb_cell.index < lb_last.index
        assert tp.power[[rb_cell.index, lb_last.index], 2].all()
        power = tp.power.copy()
        power[rb_cell.index, 2] *= 0.5
        power[lb_last.index, 2] *= 0.5
        bad = TransmitPlan(grid=grid, scheme=tp.scheme, power=power,
                           active=tp.active.copy())
        with pytest.raises(ValueError, match="content 3 .*zone left_buffer"):
            evaluator.field(area, 3, bad, plan)


_ORACLE_MODELS = (
    PathLossModel(kind=PathLossKind.POWER_LAW, eta=3.5),
    PathLossModel(kind=PathLossKind.HATA, f_mhz=700.0, hb_m=30.0, hm_m=1.5),
)


@pytest.mark.parametrize("model", _ORACLE_MODELS, ids=lambda m: m.kind.value)
@pytest.mark.parametrize("shape", _GRID_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_field_matches_oracle_at_every_lattice_point(shape, model):
    rows, cols, lsa1_cols = shape
    spec = GridSpec(rows=rows, cols=cols, lsa1_cols=lsa1_cols, buffer_cols_per_side=1)
    grid = Grid.from_spec(spec)
    env = RadioEnv(n0=4e-21, pathloss=model)
    area = EvalArea(kind=AreaKind.A2, resolution=3)
    xs, ys = lattice_axes(area, spec)
    evaluator = SinrEvaluator(grid, env)
    for m_count in (2, 3):
        plan = _content_plan(m_count)
        for scheme in _scheme_configs():
            tp = allocate(grid, plan, scheme)
            for m in plan.content_ids:
                got = evaluator.field(area, m, tp, plan).values
                expected = oracle_sinr(xs, ys, m, tp, env, plan)
                points = itertools.product(ys, xs)
                for (y, x), db, want in zip(points, got, itertools.chain(*expected),
                                            strict=True):
                    where = f"{scheme.label} M={m_count} content {m} at {(x, y)}"
                    if want == 0.0:
                        assert db == SINR_FLOOR_DB, where
                    else:
                        rel = abs(10.0 ** (db / 10.0) - want) / want
                        assert rel <= 1e-9, f"{where}: relative error {rel:.3e}"


@pytest.mark.parametrize("k", [1, -3])
def test_power_of_two_scaling_of_powers_and_noise_keeps_field_bytes(k):
    # Scaling every transmit power and n0 by 2**k is exact in binary floating
    # point, so signal, interference and noise scale exactly and every SINR
    # keeps its bytes.  The scaled plan is built in code: a scaled config
    # would not do, as float("1e-17") is not exactly 2 * float("5e-18").
    cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
    grid, env = Grid.from_spec(cfg.grid), cfg.env()
    base = SinrEvaluator(grid, env)
    scaled = SinrEvaluator(grid, RadioEnv(n0=env.n0 * 2.0**k, pathloss=env.pathloss))
    area = EvalArea(kind=AreaKind.A2, resolution=20)
    assert len(cfg.schemes) == 6
    for scheme in cfg.schemes:
        tp = allocate(grid, cfg.plan, scheme)
        tp_scaled = TransmitPlan(grid=grid, scheme=scheme, power=tp.power * 2.0**k,
                                 active=tp.active.copy())
        for m in cfg.plan.content_ids:
            want = base.field(area, m, tp, cfg.plan).values
            got = scaled.field(area, m, tp_scaled, cfg.plan).values
            assert got.tobytes() == want.tobytes(), (scheme.label, m)


def test_paper_r20_lattice_is_the_r60_lattice_at_every_third_point():
    # Midpoint lattices nest under x3: sample i of r20 is sample 3i+1 of
    # r60.  The axes are asserted equal first, so every key's dB block must
    # then be equal bit for bit, although r20 takes the periodic kernel and
    # r60 the unfolded one.
    cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
    grid = Grid.from_spec(cfg.grid)
    evaluator = SinrEvaluator(grid, cfg.env())
    keys = []
    for scheme in cfg.schemes:
        tp = allocate(grid, cfg.plan, scheme)
        for m in cfg.plan.content_ids:
            key = evaluator.field_key(m, tp, cfg.plan)
            if key not in keys:
                keys.append(key)
    assert len(keys) == 10
    coarse = lattice_axes(EvalArea(kind=AreaKind.A2, resolution=20), cfg.grid)
    fine = lattice_axes(EvalArea(kind=AreaKind.A2, resolution=60), cfg.grid)
    for c, f in zip(coarse, fine, strict=True):
        assert c.tobytes() == f[1::3].tobytes()
    for key, c, f in zip(keys, evaluator._whole(*coarse, keys), evaluator._whole(*fine, keys),
                         strict=True):
        assert c.tobytes() == f[1::3, 1::3].tobytes(), key


class TestSchemeEffects:
    def test_power_scaling_improves_local_sinr_inside_lsa1(self):
        grid, plan, _ = make_setup()
        env = make_env()
        point = ([850.0], [6800.0])  # deep inside LSA1
        values = {}
        for beta in (1.0, 0.5, 0.25):
            tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
            values[beta] = sinr_at(*point, 2, tp, env, plan)[0, 0]
        assert values[0.25] > values[0.5] > values[1.0]

    def test_global_boost_monotone_in_beta(self):
        grid, plan, _ = make_setup()
        env = make_env()
        point = ([7600.0], [850.0])  # inside the left buffer column
        values = []
        for beta in (1.0, 0.5, 0.25, 0.0):
            tp = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=beta))
            values.append(sinr_at(*point, 1, tp, env, plan)[0, 0])
        assert values == sorted(values)

    def test_imo_removes_cross_interference_in_buffer(self):
        grid, plan, _ = make_setup()
        env = make_env()
        point = ([7600.0], [6800.0])  # left buffer, next to the boundary
        ps = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0))
        imo = allocate(grid, plan, SchemeConfig(SchemeKind.IMLSI_O, beta=1.0))
        # the orthogonal buffer silences the nearest interferers of content 2
        assert sinr_at(*point, 2, imo, env, plan) > sinr_at(*point, 2, ps, env, plan)
