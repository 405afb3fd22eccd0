"""Grid geometry, zone assignment and sampling lattice tests."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import INTERIOR, LEFT_BUFFER, RIGHT_BUFFER, cell_refs
from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import (
    ZONES,
    AreaKind,
    EvalArea,
    Grid,
    GridSpec,
    lattice_axes,
    lsa1_of_x,
    sample_points,
    sample_shape,
)


def cells_in_zone(grid: Grid, zone: str) -> list:
    return [c for c in cell_refs(grid.spec) if c.zone == zone]


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert (spec.rows, spec.cols, spec.lsa1_cols) == (8, 10, 5)
        assert spec.isd == 1700.0
        assert spec.cols * spec.isd == 17000.0
        assert spec.rows * spec.isd == 13600.0

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(rows=0), "rows"),
            (dict(cols=1), "cols"),
            (dict(lsa1_cols=0), "lsa1_cols"),
            (dict(lsa1_cols=10), "lsa1_cols"),
            (dict(isd=0.0), "isd"),
            (dict(buffer_cols_per_side=0), "buffer_cols_per_side"),
            (dict(buffer_cols_per_side=6), "buffer_cols_per_side"),
        ],
    )
    def test_validation_names_offending_field(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            GridSpec(**kwargs)


class TestGridBuild:
    def test_default_grid_counts(self):
        grid = Grid.from_spec(GridSpec())
        assert len(grid.cells) == 80
        assert np.count_nonzero(grid.lsa1_mask()) == 40
        assert np.count_nonzero(~grid.lsa1_mask()) == 40
        assert len(cells_in_zone(grid, LEFT_BUFFER)) == 8
        assert len(cells_in_zone(grid, RIGHT_BUFFER)) == 8
        assert np.count_nonzero(np.isin(grid.bands(), [1, 2])) == 16

    @pytest.mark.parametrize(
        "spec",
        [GridSpec(), GridSpec(rows=3, cols=9, lsa1_cols=4, buffer_cols_per_side=2)],
        ids=["paper", "2col-buffers"],
    )
    def test_bands_follow_lsa_and_zone(self, spec):
        grid = Grid.from_spec(spec)
        bands = grid.bands()
        name = {
            (True, INTERIOR): "lsa1_interior",
            (True, LEFT_BUFFER): "left_buffer",
            (False, RIGHT_BUFFER): "right_buffer",
            (False, INTERIOR): "lsa2_interior",
        }
        cells = cell_refs(spec)
        assert bands.shape == (len(grid.cells),)
        assert [ZONES[b] for b in bands] == [name[(c.in_lsa1, c.zone)] for c in cells]
        lo, hi = spec.lsa1_cols - spec.buffer_cols_per_side, spec.lsa1_cols
        cols = [{c.col for c in cells if bands[c.index] == z} for z in range(4)]
        assert cols == [set(range(lo)), set(range(lo, hi)),
                        set(range(hi, hi + spec.buffer_cols_per_side)),
                        set(range(hi + spec.buffer_cols_per_side, spec.cols))]

    def test_buffer_columns_flank_the_boundary(self):
        grid = Grid.from_spec(GridSpec())
        assert {c.col for c in cells_in_zone(grid, LEFT_BUFFER)} == {4}
        assert {c.col for c in cells_in_zone(grid, RIGHT_BUFFER)} == {5}
        for cell in cells_in_zone(grid, LEFT_BUFFER):
            assert cell.in_lsa1
        for cell in cells_in_zone(grid, RIGHT_BUFFER):
            assert not cell.in_lsa1

    def test_towers_at_cell_centers_row_major(self):
        grid = Grid.from_spec(GridSpec(rows=2, cols=3, lsa1_cols=2))
        xs, ys = grid.tower_axes()
        assert (xs.shape, ys.shape) == ((3,), (2,))

        def tower(c):  # cell c sits in row c // cols and column c % cols
            return xs[c % 3], ys[c // 3]

        assert len(grid.cells) == 6
        assert tower(0) == (850.0, 850.0)
        assert tower(1) == (2550.0, 850.0)
        assert tower(3) == (850.0, 2550.0)
        assert grid.cells[4] == 4
        assert tower(4) == (2550.0, 2550.0)  # row 1, column 1

    def test_wider_buffer(self):
        grid = Grid.from_spec(GridSpec(buffer_cols_per_side=2))
        assert {c.col for c in cells_in_zone(grid, LEFT_BUFFER)} == {3, 4}
        assert {c.col for c in cells_in_zone(grid, RIGHT_BUFFER)} == {5, 6}

    def test_lsa1_mask_matches_cells(self):
        grid = Grid.from_spec(GridSpec())
        mask = grid.lsa1_mask()
        for cell in cell_refs(grid.spec):
            assert mask[cell.index] == cell.in_lsa1


def _sweep_specs():
    for rows in range(1, 4):
        for cols in range(2, 9):
            for lsa1 in range(1, cols):
                for buffer in range(1, min(lsa1, cols - lsa1) + 1):
                    yield GridSpec(rows=rows, cols=cols, isd=1234.567, lsa1_cols=lsa1,
                                   buffer_cols_per_side=buffer)


def test_column_rule_and_x_rule_agree_on_every_small_grid():
    # The LSA rule has two forms: per cell (bands) and per x (lsa1_of_x).
    specs = list(_sweep_specs())
    assert len(specs) == 150
    for spec in specs:
        grid = Grid.from_spec(spec)
        lsa1, b = spec.lsa1_cols, spec.buffer_cols_per_side
        # a column's band counts the band edges at or left of it
        column_band = [(c >= lsa1 - b) + (c >= lsa1) + (c >= lsa1 + b) for c in range(spec.cols)]
        assert grid.bands().tolist() == column_band * spec.rows, spec
        xs, ys = grid.tower_axes()
        assert lsa1_of_x(xs, spec).tolist() == [band < 2 for band in column_band], spec
        want = [(((c % spec.cols) + 0.5) * spec.isd, ((c // spec.cols) + 0.5) * spec.isd)
                for c in grid.cells]
        got = [(xs[c % spec.cols], ys[c // spec.cols]) for c in grid.cells]
        assert np.array(got).tobytes() == np.array(want).tobytes(), spec


class TestPointMembership:
    def test_lsa1_of_x_boundary_is_lsa2(self):
        spec = GridSpec()
        boundary_x = spec.lsa1_cols * spec.isd
        xs = np.array([0.0, boundary_x - 1.0, boundary_x, 17000.0])
        assert list(lsa1_of_x(xs, spec)) == [True, True, False, False]

    def test_points_outside_snap_to_nearest_column(self):
        spec = GridSpec()
        assert list(lsa1_of_x(np.array([-10.0, 20000.0]), spec)) == [True, False]


class TestSampling:
    def test_a1_vs_a2_bounds(self):
        spec = GridSpec()
        # A1 spans x in [0, 8500], A2 [0, 17000]; both y in [0, 13600]
        for kind, width in ((AreaKind.A1, 8500.0), (AreaKind.A2, 17000.0)):
            ny, nx = sample_shape(EvalArea(kind=kind, resolution=1), spec)
            assert (nx * spec.isd, ny * spec.isd) == (width, 13600.0)

    def test_resolution_one_samples_cell_centers(self):
        spec = GridSpec(rows=1, cols=2, lsa1_cols=1)
        area = EvalArea(kind=AreaKind.A2, resolution=1)
        points = sample_points(area, spec)
        assert sample_shape(area, spec) == (1, 2)
        np.testing.assert_allclose(points, [[850.0, 850.0], [2550.0, 850.0]])

    def test_row_major_y_slowest(self):
        spec = GridSpec(rows=2, cols=2, lsa1_cols=1)
        area = EvalArea(kind=AreaKind.A2, resolution=1)
        points = sample_points(area, spec)
        # first the y=850 row left to right, then the y=2550 row
        np.testing.assert_allclose(
            points,
            [[850.0, 850.0], [2550.0, 850.0], [850.0, 2550.0], [2550.0, 2550.0]],
        )

    def test_shape_matches_point_count(self):
        spec = GridSpec()
        area = EvalArea(kind=AreaKind.A1, resolution=3)
        ny, nx = sample_shape(area, spec)
        assert (ny, nx) == (24, 15)
        assert sample_points(area, spec).shape == (ny * nx, 2)

    def test_a1_lattice_is_left_columns_of_a2(self):
        # both step by isd/resolution, so the slice is exact even for an isd
        # that is not a whole number of meters
        spec = GridSpec(rows=3, cols=7, isd=1234.567, lsa1_cols=3)
        a1 = EvalArea(kind=AreaKind.A1, resolution=7)
        a2 = EvalArea(kind=AreaKind.A2, resolution=7)
        ny, nx1 = sample_shape(a1, spec)
        full = sample_points(a2, spec).reshape(ny, -1, 2)[:, :nx1]
        assert np.ascontiguousarray(full).tobytes() == sample_points(a1, spec).tobytes()

    def test_axes_span_the_lattice(self):
        spec = GridSpec(rows=3, cols=7, isd=1234.567, lsa1_cols=3)
        area = EvalArea(kind=AreaKind.A2, resolution=5)
        xs, ys = lattice_axes(area, spec)
        assert (ys.size, xs.size) == sample_shape(area, spec)
        points = sample_points(area, spec).reshape(ys.size, xs.size, 2)
        assert (points[..., 0] == xs).all() and (points[..., 1] == ys[:, None]).all()
        # LSA membership of a lattice point is that of its column's x
        assert (lsa1_of_x(points[..., 0], spec) == lsa1_of_x(xs, spec)).all()
        assert lsa1_of_x(xs, spec).sum() == spec.lsa1_cols * area.resolution

    def test_resolution_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="resolution"):
            EvalArea(kind=AreaKind.A1, resolution=0)

    def test_lattice_is_deterministic(self):
        spec = GridSpec()
        area = EvalArea(kind=AreaKind.A2, resolution=4)
        a = sample_points(area, spec)
        b = sample_points(area, spec)
        assert a.tobytes() == b.tobytes()

