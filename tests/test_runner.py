"""End-to-end artifact tests on the small smoke configuration."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import final_mismatches
from sfn_lsi_sim import runner, sinr
from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.config import apply_overrides, parse_config
from sfn_lsi_sim.errors import ConfigValidationError
from sfn_lsi_sim.grid import ZONES, AreaKind, EvalArea, Grid, lattice_axes, sample_shape
from sfn_lsi_sim.metrics import ContentCountMap, content_count_map, coverage
from sfn_lsi_sim.runner import (
    SUMMARY_FORMAT,
    RunResult,
    emit_heatmap,
    fmt9,
    round9,
    run_experiment,
    sinr_levels,
)
from sfn_lsi_sim.sinr import SinrEvaluator

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
DATA = ROOT / "tests" / "data"
SMOKE = str(CONFIG_DIR / "smoke_1x2.cfg")
SCHEME_LABELS = ("olsi", "reuse1", "ps_beta0.5", "imo_beta0.5")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> RunResult:
    out = tmp_path_factory.mktemp("smoke")
    cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
    return run_experiment(cfg)


def read_pgm(path: Path) -> tuple[np.ndarray, int]:
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = np.array([int(t) for t in tokens[4:]]).reshape(ny, nx)
    return pixels, maxval


class TestArtifacts:
    def test_expected_files(self, smoke_run):
        expected = {"manifest.json", "coverage.csv", "spectral_efficiency.json",
                    "summary.json"}
        for label in SCHEME_LABELS:
            expected |= {f"content_counts_{label}.json", f"content_counts_{label}.pgm"}
            for m in (1, 2):
                expected |= {f"sinr_{label}_content{m}.pgm",
                             f"sinr_{label}_content{m}.pgm.hdr.txt"}
        assert set(smoke_run.files) == expected
        on_disk = {p.name for p in Path(smoke_run.out_dir).iterdir()}
        assert on_disk == expected

    def test_coverage_csv_shape(self, smoke_run):
        lines = (Path(smoke_run.out_dir) / "coverage.csv").read_text().splitlines()
        assert lines[0] == "scheme,content,area,threshold_db,covered_fraction,percent"
        # 4 schemes x 2 contents x 2 thresholds
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            scheme, content, area, t, frac, pct = line.split(",")
            assert scheme in SCHEME_LABELS
            assert content in ("1", "2")
            assert area == "A1"
            assert t in ("10", "15")
            assert 0.0 <= float(frac) <= 1.0
            assert float(pct) == pytest.approx(100.0 * float(frac), abs=1e-7)

    def test_manifest_reparses_to_same_run(self, smoke_run, tmp_path):
        cfg = parse_config(str(Path(smoke_run.out_dir) / "manifest.json"))
        again = run_experiment(apply_overrides(cfg, out_dir=str(tmp_path / "again")))
        for name in ("coverage.csv", "summary.json", "spectral_efficiency.json"):
            first = (Path(smoke_run.out_dir) / name).read_bytes()
            second = (Path(again.out_dir) / name).read_bytes()
            assert first == second, f"{name} differs after manifest round trip"

    def test_rerun_is_byte_identical(self, smoke_run, tmp_path):
        out = tmp_path / "rerun"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))

        def digest() -> dict[str, str]:
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()
            }

        run_experiment(cfg)
        first = digest()
        run_experiment(cfg)
        assert digest() == first

    def test_paper_run_matches_committed_reference(self, tmp_path):
        # out/final is the byte-level reference: a fresh paper run at
        # resolution 20 reproduces it, except the manifest's output.dir
        out = tmp_path / "final"
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(out), resolution=20)
        run_experiment(cfg)
        assert final_mismatches(out) == []

    def test_paper_count_maps_are_mirror_symmetric(self, tmp_path):
        # The paper's two LSAs are the same size, each with one buffer
        # column at the boundary, and every content has the same power and
        # bandwidth, so the geometry is symmetric about the LSA boundary
        # and about the grid's middle row: each count map must equal its
        # own left-right and top-bottom mirror.
        out = tmp_path / "paper"
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(out), resolution=20)
        run_experiment(cfg)
        maps = sorted(out.glob("content_counts_*.pgm"))
        assert len(maps) == len(cfg.schemes) == 6
        for path in maps:
            pixels, _ = read_pgm(path)
            assert pixels.shape == (160, 200)
            assert (pixels == pixels[:, ::-1]).all(), f"{path.name} left-right"
            assert (pixels == pixels[::-1]).all(), f"{path.name} top-bottom"

    def test_pgm_pixels_match_histogram(self, smoke_run):
        out = Path(smoke_run.out_dir)
        for label in SCHEME_LABELS:
            doc = json.loads((out / f"content_counts_{label}.json").read_text())
            pixels, maxval = read_pgm(out / f"content_counts_{label}.pgm")
            assert maxval == 2
            assert pixels.size == doc["n_points"]
            for k in range(3):
                pct = 100.0 * np.count_nonzero(pixels == k) / pixels.size
                assert pct == pytest.approx(doc["histogram_pct"][str(k)], abs=1e-6)

    def test_sinr_pgm_dimensions_and_sidecar(self, smoke_run):
        out = Path(smoke_run.out_dir)
        pixels, maxval = read_pgm(out / "sinr_reuse1_content1.pgm")
        # A2 map area over a 1x2 grid at resolution 4
        assert pixels.shape == (4, 8)
        assert maxval == 255
        sidecar = (out / "sinr_reuse1_content1.pgm.hdr.txt").read_text().splitlines()
        fields = dict(line.split(" ", 1) for line in sidecar)
        assert fields["kind"] == "sinr_db"
        assert fields["db_min"] == "-10"
        assert fields["db_max"] == "40"
        assert fields["levels"] == "256"
        assert fields["scheme"] == "reuse1"
        assert fields["content"] == "1"
        assert fields["area"] == "A2"


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.is_file()}


class TestOutputDirectory:
    def test_rerun_leaves_no_stale_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
        run_experiment(cfg)
        one = run_experiment(apply_overrides(cfg, scheme="ps", beta=0.5))
        assert {p.name for p in out.iterdir()} == set(one.files)
        assert set(one.summary["coverage_pct"]) == {"ps_beta0.5"}
        assert not any("olsi" in name for name in one.files)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_run_keeps_previous_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
        run_experiment(cfg)
        before = digests(out)

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(runner, "emit_heatmap", boom)
        with pytest.raises(RuntimeError, match="disk full"):
            run_experiment(apply_overrides(cfg, scheme="olsi"))
        assert digests(out) == before
        # no temporary sibling is left behind
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError], ids=["interrupt", "oserror"])
    def test_swap_stopped_between_renames_keeps_previous_output(self, tmp_path, monkeypatch,
                                                                error):
        # The previous run is moved aside, then the new one fails to take
        # its place: the previous run must go back, byte for byte, and no
        # staging directory may be left.
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out), resolution=2)
        run_experiment(cfg)
        before = digests(out)
        rename = os.rename
        calls = []

        def second_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise error
            rename(src, dst)

        monkeypatch.setattr(runner.os, "rename", second_fails)
        with pytest.raises(error):
            run_experiment(cfg)
        assert len(calls) == 3
        assert digests(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_overflow_in_a_run_raises_and_exits_two(self, tmp_path):
        # isd_m = 1e308 on the paper grid, past validation, overflows the
        # tower and lattice multiplies.  In a child, since pytest turns
        # RuntimeWarning into an error and a plain run would only warn: the
        # run must raise FloatingPointError and the CLI exit 2 with one line.
        child = """
import sys
from dataclasses import replace
from sfn_lsi_sim import cli
from sfn_lsi_sim.config import apply_overrides, parse_config
from sfn_lsi_sim.runner import run_experiment
cfg = apply_overrides(parse_config("configs/paper_table1.cfg"), out_dir=sys.argv[1],
                      resolution=2)
cfg = replace(cfg, grid=replace(cfg.grid, isd=1e308))
try:
    run_experiment(cfg)
except FloatingPointError as exc:
    print(f"raised: {exc}")
cli.parse_config = lambda path: cfg
print(f"exit {cli.main(['run', '--config', 'unused.cfg'])}")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run([sys.executable, "-c", child, str(tmp_path / "out")],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=120, check=True)
        message = "overflow encountered in multiply"
        assert result.stdout == f"raised: {message}\nexit 2\n"
        assert result.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_scan_failing_after_a_block_closes_every_raster(self, tmp_path, monkeypatch):
        # With SINR maps on, the level spill file is open while the scan runs
        # and one block of levels has gone to it when the scan fails.
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
        assert cfg.emit_sinr_maps
        run_experiment(cfg)
        before = digests(out)
        scan = SinrEvaluator.scan

        def failing(self, *args, **kwargs):
            yield next(scan(self, *args, **kwargs))
            raise RuntimeError("scan failed")

        monkeypatch.setattr(SinrEvaluator, "scan", failing)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="scan failed"):
            run_experiment(cfg)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert digests(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_raster_failing_after_the_scan_closes_every_file(self, tmp_path, monkeypatch):
        # The SINR rasters are written after the scan, from the spill file:
        # one raster is whole and the next fails half written while the
        # spill file is open.
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
        assert cfg.emit_sinr_maps
        run_experiment(cfg)
        before = digests(out)
        written = []

        def failing(image, maxval, path):
            assert maxval == 255 and os.path.basename(path).startswith("sinr_")
            if written:
                Path(path).write_bytes(b"P2\n")
                raise RuntimeError("raster failed")
            emit_heatmap(image, maxval, path)
            written.append(path)

        monkeypatch.setattr(runner, "emit_heatmap", failing)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="raster failed"):
            run_experiment(cfg)
        assert len(written) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert digests(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_rasters_beyond_the_open_file_limit_are_written(self, tmp_path):
        # 40 contents under 4 schemes make 160 SINR rasters, more than the
        # 64 files the run may hold open, and 332 files in all.
        pytest.importorskip("resource")
        config = tmp_path / "many.cfg"
        config.write_text(Path(SMOKE).read_text().replace("count = 2", "count = 40"))
        script = (
            "import resource, sys\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
            "from sfn_lsi_sim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(config),
             "--resolution", "4", "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        names = {p.name for p in out.iterdir()}
        assert len(names) == 332
        assert len({n for n in names if n.startswith("sinr_") and n.endswith(".pgm")}) == 160

    def test_empty_directory_is_used(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        result = run_experiment(apply_overrides(parse_config(SMOKE), out_dir=str(out)))
        assert {p.name for p in out.iterdir()} == set(result.files)

    @pytest.mark.parametrize("name,is_dir", [("notes.txt", False), ("sinr_archive", True)])
    def test_foreign_directory_is_refused(self, tmp_path, name, is_dir):
        out = tmp_path / "out"
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(out))
        run_experiment(cfg)
        foreign = out / name
        foreign.mkdir() if is_dir else foreign.write_text("keep me\n")
        before = digests(out)
        with pytest.raises(ConfigValidationError, match=f"{out} holds '{name}'"):
            run_experiment(cfg)
        assert digests(out) == before
        assert foreign.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


# Keys repeat across schemes (ps:1 is reuse1) and within them: under reuse1
# the global and local 2 have equal zone powers, and under reuse1 and PS
# locals 2 and 3 have equal powers but different bandwidths.
SHARED_KEYS_CFG = """\
[grid]
rows = 2
cols = 4
isd_m = 1700
lsa1_cols = 2

[contents]
count = 3
bandwidth_hz = 2.4e6 2.4e6 1.2e6
subcarriers = 1200
mod_order = 64
t_sym_s = 1e-3
power_w = 1

[propagation]
model = hata

[radio]
n0_w_per_hz = 5e-18

[schemes]
list = reuse1, ps:1, ps:0.5, imo:0.5

[eval]
resolution = 3
thresholds_db = 0 5 10 15 20 25
coverage_area = {coverage_area}
map_area = {map_area}
content_map_threshold_db = 10

[output]
dir = unused
emit_sinr_maps = true
"""


def csv_rows(out: Path, label: str) -> list[list[str]]:
    with open(out / "coverage.csv", newline="") as handle:
        return [row for row in csv.reader(handle) if row[0] == label]


class TestDistinctFields:
    @pytest.mark.parametrize("coverage_area,map_area",
                             [("a1", "a2"), ("a2", "a1"), ("a1", "a1"), ("a2", "a2")])
    def test_each_scheme_matches_its_own_run(self, tmp_path, coverage_area, map_area):
        path = tmp_path / "shared.cfg"
        path.write_text(SHARED_KEYS_CFG.format(coverage_area=coverage_area,
                                               map_area=map_area))
        cfg = apply_overrides(parse_config(str(path)), out_dir=str(tmp_path / "all"))
        everything = Path(run_experiment(cfg).out_dir)
        grid = Grid.from_spec(cfg.grid)
        for scheme in cfg.schemes:
            label = scheme.label
            alone = Path(run_experiment(
                replace(cfg, schemes=(scheme,), out_dir=str(tmp_path / label))).out_dir)
            assert csv_rows(everything, label) == csv_rows(alone, label)
            names = [p.name for p in alone.iterdir()
                     if p.name.startswith((f"content_counts_{label}.", f"sinr_{label}_"))]
            assert len(names) == 2 + 2 * cfg.plan.m_count
            for name in names:
                assert (everything / name).read_bytes() == (alone / name).read_bytes(), name

            # A one-scheme run shares keys within the scheme too, so check
            # each content against a field no other content has touched.
            tp = allocate(grid, cfg.plan, scheme)
            reports = []
            for m in cfg.plan.content_ids:
                cov_field, map_field = (
                    SinrEvaluator(grid, cfg.env()).field(area, m, tp, cfg.plan)
                    for area in (cfg.coverage_area(), cfg.map_area()))
                reports.append(coverage(cov_field, cfg.thresholds_db))
                name = f"sinr_{label}_content{m}.pgm"
                emit_heatmap(sinr_levels(map_field.as_image()), 255, str(tmp_path / name))
                assert (everything / name).read_bytes() == (tmp_path / name).read_bytes(), name
                assert (everything / f"{name}.hdr.txt").read_text() == (
                    "kind sinr_db\ndb_min -10\ndb_max 40\nlevels 256\n"
                    f"scheme {label}\ncontent {m}\narea {map_area.upper()}\n")
            assert csv_rows(everything, label) == runner._coverage_rows(
                label, cfg.coverage_area(), reports)

    @pytest.mark.parametrize("coverage_area,map_area",
                             [("a1", "a2"), ("a2", "a1"), ("a1", "a1"), ("a2", "a2")])
    def test_maps_off_counts_match_one_scheme_runs(self, tmp_path, coverage_area, map_area):
        # Without SINR maps the run keeps only masks of the map fields.
        path = tmp_path / "shared.cfg"
        text = SHARED_KEYS_CFG.format(coverage_area=coverage_area, map_area=map_area)
        path.write_text(text.replace("emit_sinr_maps = true", "emit_sinr_maps = false"))
        cfg = apply_overrides(parse_config(str(path)), out_dir=str(tmp_path / "all"))
        assert not cfg.emit_sinr_maps
        everything = Path(run_experiment(cfg).out_dir)
        assert not list(everything.glob("sinr_*"))
        grid = Grid.from_spec(cfg.grid)
        threshold = cfg.content_map_threshold_db
        for scheme in cfg.schemes:
            label = scheme.label
            alone = Path(run_experiment(
                replace(cfg, schemes=(scheme,), out_dir=str(tmp_path / label))).out_dir)
            assert csv_rows(everything, label) == csv_rows(alone, label)
            for suffix in (".json", ".pgm"):
                name = f"content_counts_{label}{suffix}"
                assert (everything / name).read_bytes() == (alone / name).read_bytes(), name

            # Against content_count_map over fields no other content touched.
            tp = allocate(grid, cfg.plan, scheme)
            fields = [SinrEvaluator(grid, cfg.env()).field(cfg.map_area(), m, tp, cfg.plan)
                      for m in cfg.plan.content_ids]
            cmap = content_count_map(fields, threshold)
            emit_heatmap(cmap.as_image(), cmap.m_count, str(tmp_path / f"{label}.pgm"))
            assert ((everything / f"content_counts_{label}.pgm").read_bytes()
                    == (tmp_path / f"{label}.pgm").read_bytes())
            doc = json.loads((everything / f"content_counts_{label}.json").read_text())
            histogram = cmap.histogram()
            assert doc["histogram_pct"] == {
                str(k): round9(100.0 * h) for k, h in enumerate(histogram)}
            assert doc["mean_count"] == round9(cmap.mean_count())
            assert doc["pct_global"] == round9(
                100.0 * coverage(fields[0], (threshold,)).fractions[0])

    def test_maps_on_bytes_match_stored_digests(self, tmp_path):
        # Every file but the manifest, in ``sha256sum`` format, against a
        # stored listing: the SINR rasters and sidecars are pinned to bytes
        # that no writer in the package produced for the comparison.
        path = tmp_path / "shared.cfg"
        path.write_text(SHARED_KEYS_CFG.format(coverage_area="a1", map_area="a2"))
        out = Path(run_experiment(
            apply_overrides(parse_config(str(path)), out_dir=str(tmp_path / "out"))).out_dir)
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert any(name.startswith("sinr_") for name in names)
        listing = "".join(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}\n"
                          for name in names)
        assert listing == (DATA / "shared_keys_sha256.txt").read_text()

    def test_maps_off_run_holds_one_field_at_a_time(self, tmp_path, monkeypatch):
        # A run holds no float field at all, not even one at a time.
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=20)
        assert not cfg.emit_sinr_maps
        assert_run_holds_no_field(cfg, monkeypatch)

    def test_maps_on_run_holds_no_field_between_calls(self, tmp_path, monkeypatch):
        # With SINR maps on, a key's levels go to the spill file block by block.
        cfg = apply_overrides(parse_config(SMOKE), out_dir=str(tmp_path / "smoke"),
                              resolution=20)
        assert cfg.emit_sinr_maps
        assert_run_holds_no_field(cfg, monkeypatch)

    def test_paper_run_evaluates_each_distinct_field_once(self, tmp_path, monkeypatch):
        # Table I: 6 schemes x 3 contents on two areas, 10 distinct keys,
        # all in one scan of A2 that gives each key every lattice row once.
        scans, rows_per_key = [], {}
        scan = SinrEvaluator.scan

        def counted(self, xs, ys, keys):
            scans.append((xs.tobytes(), ys.tobytes(), len(keys), len(set(keys))))
            for rows, i, values in scan(self, xs, ys, keys):
                rows_per_key.setdefault(i, []).extend(rows.tolist())
                yield rows, i, values

        monkeypatch.setattr(SinrEvaluator, "scan", counted)
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=4)
        run_experiment(cfg)
        xs, ys = lattice_axes(EvalArea(kind=AreaKind.A2, resolution=4), cfg.grid)
        assert scans == [(xs.tobytes(), ys.tobytes(), 10, 10)]
        assert sorted(rows_per_key) == list(range(10))
        assert all(sorted(rows) == list(range(32)) for rows in rows_per_key.values())

    @pytest.mark.parametrize("maps", [False, True], ids=["maps-off", "maps-on"])
    def test_maps_on_run_evaluates_the_maps_off_kernel(self, tmp_path, monkeypatch, maps):
        # Paper A2 at resolution 4: 32 x 40 points, y and x folded with
        # period 4.  The kernel is (8 + 7) * 4 rows of 40 + 9 * 4 offsets,
        # whether or not the run writes SINR rasters.
        evaluated = []
        kernel_gain = sinr.gain

        def counted(model, d, **kwargs):
            evaluated.append(np.size(d))
            return kernel_gain(model, d, **kwargs)

        monkeypatch.setattr(sinr, "gain", counted)
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=4)
        run_experiment(replace(cfg, emit_sinr_maps=maps))
        assert sum(evaluated) == 4560

    @pytest.mark.parametrize("config,rows_per_block", [("paper", 3), ("shared-maps-on", 1)])
    def test_small_slabs_and_blocks_keep_run_bytes(self, tmp_path, monkeypatch, config,
                                                   rows_per_block):
        # Resolution 5 with a kernel bound of two residues per slab and key
        # blocks of fewer rows than one residue feeds: on the paper run
        # (maps off) and on the maps-on run alike, y folds with the period,
        # and the block bound holds each slab to one residue, giving five
        # slabs.  Each slab is split into at least two key blocks.  Every
        # file must keep the bytes of the default run, which takes one slab.
        if config == "paper":
            path = CONFIG_DIR / "paper_table1.cfg"
        else:
            path = tmp_path / "shared.cfg"
            path.write_text(SHARED_KEYS_CFG.format(coverage_area="a1", map_area="a2"))
        cfg = apply_overrides(parse_config(str(path)), out_dir=str(tmp_path / "out"),
                              resolution=5)
        assert cfg.emit_sinr_maps == (config != "paper")
        out = Path(run_experiment(cfg).out_dir)
        want = {p.name: p.read_bytes() for p in out.iterdir()}

        spec = cfg.grid
        ny, nx = sample_shape(EvalArea(kind=AreaKind.A2, resolution=5), spec)
        # A periodic lattice's kernel: 2*rows - 1 rows per residue, of
        # nx + (cols-1)*resolution offsets.
        residue_size = (2 * spec.rows - 1) * (nx + (spec.cols - 1) * 5)
        monkeypatch.setattr(sinr, "_KERNEL_CHUNK", 2 * residue_size)
        monkeypatch.setattr(sinr, "_CHUNK", rows_per_block * nx)
        slabs, blocks = [], []
        kernel_gain = sinr.gain

        def counted_gain(model, d, **kwargs):
            slabs.append(d.shape[1])
            blocks.append(set())
            return kernel_gain(model, d, **kwargs)

        scan = SinrEvaluator.scan

        def counted_scan(self, *args, **kwargs):
            for rows, i, values in scan(self, *args, **kwargs):
                blocks[-1].add((int(rows[0]), rows.size))
                yield rows, i, values

        monkeypatch.setattr(sinr, "gain", counted_gain)
        monkeypatch.setattr(SinrEvaluator, "scan", counted_scan)
        run_experiment(cfg)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == want
        assert slabs == [1] * 5
        assert all(len(b) >= 2 for b in blocks), blocks
        assert sum(size for b in blocks for _, size in b) == ny

    def test_paper_run_peak_stays_below_the_old_gain_cache(self, tmp_path):
        # A run once held the A2 lattice's (4, n) float64 zone gains from
        # the first field to the end.  Without them, the traced peak of a
        # whole paper run at resolution 100 stays below that cache alone.
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=100)
        ny, nx = sample_shape(EvalArea(kind=AreaKind.A2, resolution=100), cfg.grid)
        cache_bytes = 4 * ny * nx * 8
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cache_bytes, (peak, cache_bytes)

    def test_paper_scan_peak_holds_one_slab_of_zone_gains(self, tmp_path, monkeypatch):
        # A maps-off paper run at resolution 100 scans the 800 x 1000 A2
        # lattice once.  At its peak the scan may hold the packed mask of
        # every distinct key, one kernel slab, the zone gains of one slab
        # (four per point, at most one key block of points) and a few key
        # block temporaries: no slab's gains outlive the next slab.
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=100)
        assert not cfg.emit_sinr_maps
        peaks, n_keys = [], []
        scan_totals = runner.scan_totals

        def traced(evaluator, groups, *args):
            n_keys.append(len({key for group in groups for key in group}))
            tracemalloc.start()
            try:
                return scan_totals(evaluator, groups, *args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(runner, "scan_totals", traced)
        run_experiment(cfg)
        ny, nx = sample_shape(cfg.map_area(), cfg.grid)
        masks = n_keys[0] * ny * -(-nx // 8)
        zone_gains = len(ZONES) * 8 * sinr._CHUNK
        kernel_slab = 8 * sinr._KERNEL_CHUNK
        block_temporaries = 4 * 8 * sinr._CHUNK
        bound = masks + zone_gains + kernel_slab + block_temporaries
        assert peaks[0] < bound, (peaks[0], bound)

    def test_paper_run_peak_stays_below_the_old_count_maps(self, tmp_path, monkeypatch):
        # A run once held one uint8 count map per scheme from the first scan
        # block to the last file.  It now holds one packed mask per distinct
        # key and builds each scheme's map only while it writes it, so with
        # one kernel residue per slab the traced peak of a paper run at
        # resolution 100 stays below those maps alone.
        monkeypatch.setattr(sinr, "_KERNEL_CHUNK", 1)
        cfg = apply_overrides(parse_config(str(CONFIG_DIR / "paper_table1.cfg")),
                              out_dir=str(tmp_path / "paper"), resolution=100)
        assert not cfg.emit_sinr_maps
        ny, nx = sample_shape(EvalArea(kind=AreaKind.A2, resolution=100), cfg.grid)
        maps_bytes = len(cfg.schemes) * ny * nx
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < maps_bytes, (peak, maps_bytes)

    def test_maps_on_run_peak_stays_below_the_old_raster_levels(self, tmp_path, monkeypatch):
        # A maps-on run once held one uint8 raster level per distinct key and
        # map point from the first scan block to the last file.  It now
        # spills each block's levels to a file and reads back one key's
        # levels at a time, so with one kernel residue per slab the traced
        # peak of a maps-on run at resolution 100, 9 distinct keys over 12
        # rasters, stays below those levels alone.
        monkeypatch.setattr(sinr, "_KERNEL_CHUNK", 1)
        path = tmp_path / "shared.cfg"
        path.write_text(SHARED_KEYS_CFG.format(coverage_area="a1", map_area="a2"))
        cfg = apply_overrides(parse_config(str(path)), out_dir=str(tmp_path / "out"),
                              resolution=100)
        assert cfg.emit_sinr_maps
        grid = Grid.from_spec(cfg.grid)
        evaluator = SinrEvaluator(grid, cfg.env())
        keys = {evaluator.field_key(m, allocate(grid, cfg.plan, scheme), cfg.plan)
                for scheme in cfg.schemes for m in cfg.plan.content_ids}
        assert (len(keys), len(cfg.schemes) * cfg.plan.m_count) == (9, 12)
        ny, nx = sample_shape(cfg.map_area(), cfg.grid)
        levels_bytes = len(keys) * ny * nx
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < levels_bytes, (peak, levels_bytes)


@pytest.mark.parametrize("k", [1, -3])
def test_bandwidth_and_noise_scaled_by_inverse_powers_of_two_keep_maps(tmp_path, k):
    # Scaling every bandwidth by 2**k and n0 by 2**-k keeps every n0*B bit
    # for bit, so coverage, count maps and rasters keep their bytes; only
    # the spectral efficiencies change, and their ratios do not.  The scaled
    # config is built in code, as the power-scaling test in test_sinr.py
    # explains.
    cfg = apply_overrides(parse_config(SMOKE), out_dir=str(tmp_path / "base"), resolution=8)
    assert cfg.emit_sinr_maps
    plan = replace(cfg.plan, bandwidth_hz=tuple(b * 2.0**k for b in cfg.plan.bandwidth_hz))
    scaled = replace(cfg, plan=plan, n0=cfg.n0 * 2.0**-k, out_dir=str(tmp_path / "scaled"))
    base, result = run_experiment(cfg), run_experiment(scaled)
    assert base.files == result.files
    changed = {"manifest.json", "spectral_efficiency.json", "summary.json"}
    kept = [name for name in base.files if name not in changed]
    assert len(kept) == 1 + 4 * 2 + 4 * 2 * 2
    for name in kept:
        want = (tmp_path / "base" / name).read_bytes()
        assert (tmp_path / "scaled" / name).read_bytes() == want, name
    ratios = [{key: value for key, value in json.loads(
        (tmp_path / run / "spectral_efficiency.json").read_text()).items()
        if key.startswith("ratio")} for run in ("base", "scaled")]
    assert ratios[0] == ratios[1]


def assert_run_holds_no_field(cfg, monkeypatch) -> None:
    """Run ``cfg`` and check, after every block the scan yields, that no
    live numpy buffer is as large as one float64 field of the scanned A2
    lattice.  One kernel residue per slab keeps the slab's own buffers (the
    gains of its rows, four per point) under that size."""
    monkeypatch.setattr(sinr, "_KERNEL_CHUNK", 1)
    ny, nx = sample_shape(EvalArea(kind=AreaKind.A2, resolution=cfg.resolution), cfg.grid)
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    largest = []
    scan = SinrEvaluator.scan

    def watched(self, *args, **kwargs):
        for block in scan(self, *args, **kwargs):
            yield block
            snapshot = tracemalloc.take_snapshot().filter_traces(numpy_only)
            largest.append(max(trace.size for trace in snapshot.traces))

    monkeypatch.setattr(SinrEvaluator, "scan", watched)
    tracemalloc.start()
    try:
        run_experiment(cfg)
    finally:
        tracemalloc.stop()
    assert len(largest) > 1
    assert max(largest) < 8 * ny * nx, (max(largest), 8 * ny * nx)


@pytest.mark.parametrize("unpack_block", [1, 30, 1 << 16])
def test_count_map_sums_packed_masks_in_row_blocks(monkeypatch, unpack_block):
    # 300 keys over five masks, so keys repeat and the map is uint16, on a
    # 9 x 13 map, whose rows are not a whole number of bytes, unpacked one
    # row, two rows (the last block one) or the whole map at a time.
    monkeypatch.setattr(runner, "_UNPACK_BLOCK", unpack_block)
    rng = np.random.default_rng(3)
    shape = (9, 13)
    masks = [rng.random(shape) < 0.5 for _ in range(5)]
    keys = [("key", i % 5) for i in range(300)]
    totals = runner.ScanTotals(
        reports={}, map_fractions={}, map_shape=shape,
        masks={("key", i): np.packbits(mask, axis=1) for i, mask in enumerate(masks)})
    cmap = totals.count_map(keys)
    assert (cmap.m_count, cmap.shape, cmap.counts.dtype) == (300, shape, np.uint16)
    assert (cmap.as_image() == 60 * sum(mask.astype(int) for mask in masks)).all()


class TestSummary:
    def test_structure(self, smoke_run):
        summary = smoke_run.summary
        assert summary["format"] == SUMMARY_FORMAT
        assert summary["coverage_area"] == "A1"
        assert summary["map_area"] == "A2"
        assert summary["resolution"] == 4
        assert summary["thresholds_db"] == [10.0, 15.0]
        assert set(summary["coverage_pct"]) == set(SCHEME_LABELS)
        assert set(summary["content_maps"]) == set(SCHEME_LABELS)

    def test_summary_matches_json_on_disk(self, smoke_run):
        on_disk = json.loads((Path(smoke_run.out_dir) / "summary.json").read_text())
        assert on_disk == smoke_run.summary

    def test_coverage_block(self, smoke_run):
        block = smoke_run.summary["coverage_pct"]["reuse1"]
        assert set(block) == {"content_1", "content_2", "locals_avg"}
        assert set(block["content_1"]) == {"10", "15"}
        for per_content in block.values():
            for pct in per_content.values():
                assert 0.0 <= pct <= 100.0
        # with a single local content the locals average is that content
        assert block["locals_avg"] == block["content_2"]

    def test_content_map_block(self, smoke_run):
        doc = smoke_run.summary["content_maps"]["olsi"]
        assert doc["scheme"] == "olsi"
        assert doc["area"] == "A2"
        assert doc["threshold_db"] == 10.0
        assert set(doc["histogram_pct"]) == {"0", "1", "2"}
        assert set(doc["at_least_pct"]) == {"1", "2"}
        assert sum(doc["histogram_pct"].values()) == pytest.approx(100.0, abs=1e-6)
        assert doc["at_least_pct"]["1"] >= doc["at_least_pct"]["2"]

    def test_spectral_block(self, smoke_run):
        se = smoke_run.summary["spectral_efficiency"]
        # 1x2 grid: the local content's weight is 1/2 under both olsi and imo
        assert se["xi_ps"] == pytest.approx(3.0)
        assert se["xi_olsi"] == pytest.approx(2.25)
        assert se["xi_imo"] == pytest.approx(2.25)
        assert se["ratio_olsi_ps"] == "3/4"
        assert set(se["per_scheme_xi"]) == set(SCHEME_LABELS)
        assert se["per_scheme_xi"]["reuse1"] == se["per_scheme_xi"]["ps_beta0.5"]


class TestEmitHeatmap:
    def test_count_map_golden(self, tmp_path):
        cmap = ContentCountMap(m_count=3, counts=np.array([1, 3, 3, 1]), shape=(2, 2))
        path = tmp_path / "counts.pgm"
        emit_heatmap(cmap.as_image(), cmap.m_count, str(path))
        # bottom lattice row [1, 3] lands on the last raster line
        assert path.read_text() == "P2\n2 2\n3\n3 1\n1 3\n"

    def test_count_map_beyond_255_levels(self, tmp_path):
        cmap = ContentCountMap(m_count=300, counts=np.array([0, 256, 300, 9]), shape=(2, 2))
        path = tmp_path / "counts.pgm"
        emit_heatmap(cmap.as_image(), cmap.m_count, str(path))
        assert path.read_text() == "P2\n2 2\n300\n300 9\n0 256\n"

    def test_sinr_quantization(self, tmp_path):
        levels = sinr_levels(np.array([[-10.0, 15.0, 40.0], [90.0, -55.0, 0.0]]))
        assert levels.dtype == np.uint8
        path = tmp_path / "sinr.pgm"
        emit_heatmap(levels, 255, str(path))
        # the run writes the sidecar itself: see test_sinr_pgm_dimensions_and_sidecar
        assert [p.name for p in tmp_path.iterdir()] == ["sinr.pgm"]
        pixels, maxval = read_pgm(path)
        assert maxval == 255
        # out-of-window values clip; in-window values scale onto 0..255
        assert pixels[1].tolist() == [0, 127, 255]
        assert pixels[0].tolist() == [255, 0, 51]


def reference_pgm(image: np.ndarray, maxval: int) -> bytes:
    """The per-pixel ``str`` / ``" ".join`` encoding the array encoder must match."""
    ny, nx = image.shape
    levels = [str(v) for v in range(maxval + 1)]
    rows = [" ".join([levels[v] for v in row]) for row in image[::-1].tolist()]
    return ("\n".join(["P2", f"{nx} {ny}", str(maxval), *rows]) + "\n").encode("ascii")


class TestPgmEncoder:
    MAXVALS = (1, 2, 9, 10, 99, 100, 255, 256, 999, 1000, 12345)
    SHAPES = ((1, 1), (1, 7), (7, 1), (13, 17))

    @staticmethod
    def assert_matches_reference(tmp_path, image, maxval):
        path = tmp_path / "x.pgm"
        emit_heatmap(image, maxval, str(path))
        assert path.read_bytes() == reference_pgm(image, maxval)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("maxval", MAXVALS)
    def test_int64(self, tmp_path, maxval, shape):
        image = np.random.default_rng(maxval).integers(0, maxval + 1, size=shape)
        image[0, 0] = maxval  # the widest token
        self.assert_matches_reference(tmp_path, image, maxval)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("maxval", (1, 9, 255))
    def test_uint8(self, tmp_path, maxval, shape):
        image = np.random.default_rng(maxval).integers(
            0, maxval + 1, size=shape, dtype=np.uint8)
        self.assert_matches_reference(tmp_path, image, maxval)

    @pytest.mark.parametrize("view", [
        lambda a: a[:, ::2], lambda a: a[::-1], lambda a: a.T,
    ], ids=["every_other_column", "rows_reversed", "transposed"])
    @pytest.mark.parametrize("maxval", (5, 1000))
    def test_non_contiguous_views(self, tmp_path, maxval, view):
        image = view(np.random.default_rng(maxval).integers(0, maxval + 1, size=(9, 14)))
        assert not image.flags.c_contiguous
        self.assert_matches_reference(tmp_path, image, maxval)

    @pytest.mark.parametrize("maxval", (1, 255, 12345))
    def test_zero_last_column_and_maxval_column(self, tmp_path, maxval):
        image = np.random.default_rng(maxval).integers(0, maxval + 1, size=(6, 5))
        image[:, -1] = 0
        image[:, 1] = maxval
        self.assert_matches_reference(tmp_path, image, maxval)

    @pytest.mark.parametrize("shape", [
        (2, 20),  # rows wider than a block, the last piece partial
        (3, 16),  # rows two blocks wide exactly
        (7, 3),   # two rows per block, the last block partial
        (4, 4),   # two rows per block exactly
        (5, 8),   # one row per block exactly
    ], ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("maxval", (3, 255, 12345))
    def test_rows_cross_block_boundaries(self, tmp_path, monkeypatch, maxval, shape):
        monkeypatch.setattr(runner, "_PGM_BLOCK", 8)
        image = np.random.default_rng(maxval).integers(0, maxval + 1, size=shape)
        image[:, -1] = maxval  # the widest token ends every row
        self.assert_matches_reference(tmp_path, image, maxval)
        self.assert_matches_reference(tmp_path, image[:, ::-1], maxval)

    def test_a_large_raster_is_encoded_in_bounded_blocks(self, tmp_path):
        # An 800 x 1000 count map: encoding it whole takes about 4.6 MiB.
        image = np.random.default_rng(5).integers(0, 4, size=(800, 1000), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        tracemalloc.start()
        try:
            emit_heatmap(image, 3, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert path.read_bytes() == reference_pgm(image, 3)

    def test_token_tables_are_shared_and_read_only(self, tmp_path):
        table = runner._token_table(255, " ")
        assert runner._token_table(255, " ") is table
        assert not table.flags.writeable
        before = table.tobytes()
        image = np.random.default_rng(3).integers(0, 256, size=(4, 6))
        self.assert_matches_reference(tmp_path, image, 255)
        self.assert_matches_reference(tmp_path, image[::-1], 255)
        assert runner._token_table(255, " ").tobytes() == before


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    # RFC 8259 has no Infinity or NaN: a run that made one fails loudly.
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            runner._write_json(str(tmp_path / "x.json"), {"xi": value})


class TestNumberFormat:
    @pytest.mark.parametrize("value,text", [
        (0.123456789123, "0.123456789"),
        (100.0, "100"),
        (2.4e6, "2400000"),
        (5e-18, "5e-18"),
        (-10.0, "-10"),
    ])
    def test_fmt9(self, value, text):
        assert fmt9(value) == text

    def test_round9_idempotent(self):
        assert round9(round9(1.0 / 3.0)) == round9(1.0 / 3.0)
