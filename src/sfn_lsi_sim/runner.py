"""Experiment orchestration and artifact emission.

One run evaluates every configured scheme on the configured grid and writes:

* ``manifest.json``     resolved config; parses back to an identical run
* ``coverage.csv``      covered fraction per scheme x content x threshold
* ``content_counts_<scheme>.json`` / ``.pgm``  per-point decodable-content
  counts over the map area at the map threshold
* ``spectral_efficiency.json``  scheme SE values and exact ratios
* ``summary.json``      coverage percentages, map quantifications, SE
* ``sinr_<scheme>_content<m>.pgm`` + ``.hdr.txt``  optional dB rasters

All numeric output is printed with 9 significant digits and every
collection is emitted in a fixed order, so repeated runs produce
byte-identical files.  A run is written into a sibling temporary directory
that then replaces the output directory, so the directory never mixes two
runs and a failed run leaves the previous output as it was.

A run makes one ``SinrEvaluator.scan`` over the lattice of A2 if either
area is A2, else A1, with every distinct SINR key (``field_key``) of every
scheme; A1 results are the left columns of each block.  It reduces each
block as it comes (``scan_totals``) and holds, per key, only counts: its
covered point count at each threshold over the coverage area and its
map-area count at ``content_map_threshold_db``.  Per-point results go to
one unlinked spill file in the staging directory: each block's map-area
masks, packed eight points to a byte, and with SINR maps on its uint8
raster levels.  After the scan each scheme's count map is summed from the
masks, counted and encoded one block of rows at a time, and each key's
levels are read back the same way into its first raster, which is copied
to the key's other rasters.  So what a run holds depends on its block
sizes, not on the lattice: no float field, no full-area gain and no
whole-map count map or raster.  Results carry no scheme or content: the
run names them where it writes them.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Iterator

import numpy as np

from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.config import MANIFEST_FORMAT, ExperimentConfig
from sfn_lsi_sim.errors import ConfigValidationError
from sfn_lsi_sim.grid import AreaKind, EvalArea, Grid, lattice_axes, sample_shape
from sfn_lsi_sim.metrics import CoverageReport, se_report, spectral_efficiency_from_plan
from sfn_lsi_sim.sinr import SinrEvaluator

SUMMARY_FORMAT = "sfn-lsi-sim/summary-v1"
SINR_DB_RANGE = (-10.0, 40.0)
"""dB window quantized into SINR rasters."""

_RUN_FILE = re.compile(
    r"manifest\.json|coverage\.csv|summary\.json|spectral_efficiency\.json"
    r"|content_counts_.*|sinr_.*"
)
"""Names a run writes; an existing output directory holding only these
(as plain files) may be replaced."""


def fmt9(value: float) -> str:
    """Fixed 9-significant-digit decimal form used in all emitted files."""
    return f"{float(value):.9g}"


def round9(value: float) -> float:
    return float(fmt9(value))


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, sort_keys=True, indent=2, allow_nan=False)
        handle.write("\n")


@lru_cache(maxsize=16)
def _token_table(maxval: int, terminator: str) -> np.ndarray:
    """Row ``v`` holds the ASCII of ``str(v)`` and ``terminator``, NUL-padded
    to one fixed-width word.  Built once per (maxval, terminator) and shared
    read-only by every raster."""
    width = len(str(maxval)) + len(terminator)
    tokens = [f"{v}{terminator}".encode("ascii") for v in range(maxval + 1)]
    table = np.array(tokens, dtype=f"S{width}").view(f"V{width}")
    table.flags.writeable = False
    return table


_PGM_BLOCK = 1 << 14
"""Raster points one ``_pgm_text`` step encodes: whole rows when a row
fits, else pieces of one row."""


def _pgm_text(rows: np.ndarray, maxval: int):
    """Yields the P2 text of the raster rows ``rows``, in their order, each
    row ended by a newline, at most ``_PGM_BLOCK`` points at a time."""
    nx = rows.shape[1]
    spaced, ended = _token_table(maxval, " "), _token_table(maxval, "\n")
    # Only a table of levels of more than one digit pads its tokens.
    padded = maxval >= 10
    height, width = max(1, _PGM_BLOCK // nx), min(nx, _PGM_BLOCK)
    for r0 in range(0, rows.shape[0], height):
        for c0 in range(0, nx, width):
            block = rows[r0:r0 + height, c0:c0 + width]
            words = spaced[block]
            if c0 + width >= nx:
                words[:, -1] = ended[block[:, -1]]
            text = words.tobytes()
            # Tokens hold no NUL, so dropping the padding leaves the text.
            yield text.translate(None, b"\0") if padded else text


def sinr_levels(values_db: np.ndarray) -> np.ndarray:
    """``SINR_DB_RANGE`` quantized linearly onto uint8 levels 0..255;
    values outside the window clip to its ends."""
    lo, hi = SINR_DB_RANGE
    scaled = (np.clip(values_db, lo, hi) - lo) * (255.0 / (hi - lo))
    return np.rint(scaled).astype(np.uint8)


_SINR_SIDECAR = (f"kind sinr_db\ndb_min {fmt9(SINR_DB_RANGE[0])}\n"
                 f"db_max {fmt9(SINR_DB_RANGE[1])}\nlevels 256\n")
"""The window lines that open every SINR raster's sidecar."""


def emit_heatmap(blocks: Iterable[np.ndarray], shape: tuple[int, int], maxval: int,
                 path: str) -> None:
    """Write a plain P2 raster of ``shape`` (ny, nx), levels 0..``maxval``,
    to ``path``.  ``blocks`` yields its rows top to bottom (the lattice's
    last row, the largest y, first), as (rows, nx) arrays."""
    ny, nx = shape
    with open(path, "wb") as handle:
        handle.write(f"P2\n{nx} {ny}\n{maxval}\n".encode("ascii"))
        for block in blocks:
            handle.writelines(_pgm_text(block, maxval))


_UNPACK_BLOCK = 1 << 16
"""Map points one read of the spill file covers, for every key's masks or
one key's levels: whole rows when a row fits, else one row."""


def _pwrite(spill: IO[bytes], data: np.ndarray, offset: int) -> None:
    # A short write would leave a hole that reads back as zeros.
    if os.pwrite(spill.fileno(), data, offset) != data.nbytes:
        raise OSError("short write to the SINR spill file")


def _pread(spill: IO[bytes], size: int, offset: int) -> np.ndarray:
    data = os.pread(spill.fileno(), size, offset)
    if len(data) != size:
        raise OSError("short read from the SINR spill file")
    return np.frombuffer(data, np.uint8)


@dataclass(frozen=True)
class ScanTotals:
    """What one ``scan_totals`` pass yields.  Per distinct key: its
    ``CoverageReport`` over the coverage area and the fraction of map-area
    points at or above the map threshold.  Per-point results stay in
    ``spill``, the file the scan wrote, and are read back a block of rows
    at a time, top row first: ``count_blocks`` sums a group's masks into
    its count map, ``histograms`` counts the maps of many groups in one
    read of the masks, and ``level_blocks`` reads a key's SINR raster
    levels.  ``keys`` are the distinct keys in scan order, the order of the
    spill file."""

    reports: dict[tuple, CoverageReport]
    map_fractions: dict[tuple, float]
    keys: tuple[tuple, ...]
    map_shape: tuple[int, int]
    spill: IO[bytes]

    def _row_blocks(self) -> Iterator[tuple[int, int]]:
        """Row ranges [r0, r1) from the top row down, each of at most
        ``_UNPACK_BLOCK`` map points."""
        ny, nx = self.map_shape
        step = max(1, _UNPACK_BLOCK // nx)
        for r1 in range(ny, 0, -step):
            yield max(0, r1 - step), r1

    def _mask_blocks(self) -> Iterator[np.ndarray]:
        """The packed masks of every key, (rows, keys, ceil(nx/8)) blocks
        from the top row down, one read each."""
        n_bytes = -(-self.map_shape[1] // 8)
        row_bytes = len(self.keys) * n_bytes
        for r0, r1 in self._row_blocks():
            packed = _pread(self.spill, (r1 - r0) * row_bytes, r0 * row_bytes)
            yield packed.reshape(r1 - r0, len(self.keys), n_bytes)

    def _counts(self, packed: np.ndarray, columns: list[int],
                histogram: list[int]) -> np.ndarray:
        """Per point of one ``_mask_blocks`` block, how many of the masks
        at ``columns`` hold it, rows top to bottom; adds the block's number
        of points with count k to ``histogram[k]``."""
        nx = self.map_shape[1]
        # The narrowest unsigned type that holds M: uint8 up to 255 contents.
        counts = np.zeros((len(packed), nx), dtype=np.min_scalar_type(len(columns)))
        for column in columns:
            counts += np.unpackbits(packed[:, column], axis=1, count=nx)
        for k in range(len(histogram)):
            histogram[k] += int(np.count_nonzero(counts == k))
        return counts[::-1]

    def count_blocks(self, keys: list[tuple], histogram: list[int]) -> Iterator[np.ndarray]:
        """Count map of one group of keys, one per content: per map-area
        point, how many of the keys' masks hold it.  A key listed twice
        counts twice.  Yields (rows, nx) blocks whose rows run top to
        bottom, from the top row, and adds each block's number of points
        with count k to ``histogram[k]``."""
        columns = [self.keys.index(key) for key in keys]
        for packed in self._mask_blocks():
            yield self._counts(packed, columns, histogram)

    def histograms(self, groups: list[list[tuple]]) -> list[list[int]]:
        """Per group of keys, the number of map-area points with count k,
        for k = 0..len(group), of the count map ``count_blocks`` sums for
        it: every group from one read of the masks."""
        index = {key: i for i, key in enumerate(self.keys)}
        columns = [[index[key] for key in keys] for keys in groups]
        histograms = [[0] * (len(keys) + 1) for keys in groups]
        for packed in self._mask_blocks():
            for group_columns, histogram in zip(columns, histograms):
                self._counts(packed, group_columns, histogram)
        return histograms

    def level_blocks(self, key: tuple) -> Iterator[np.ndarray]:
        """SINR raster levels of ``key``, as ``count_blocks`` yields counts.
        Only a scan that spilled levels wrote them."""
        ny, nx = self.map_shape
        start = ny * len(self.keys) * -(-nx // 8) + self.keys.index(key) * ny * nx
        for r0, r1 in self._row_blocks():
            levels = _pread(self.spill, (r1 - r0) * nx, start + r0 * nx)
            yield levels.reshape(r1 - r0, nx)[::-1]


def scan_totals(evaluator: SinrEvaluator, groups: list[list[tuple]],
                coverage_area: EvalArea, map_area: EvalArea,
                thresholds_db, map_threshold_db: float,
                spill: IO[bytes], levels: bool = False) -> ScanTotals:
    """Reduce one ``evaluator.scan`` of every distinct key in ``groups``
    (one list of ``field_key``s per count map, in content order).

    The scan covers A2 if either area is A2, else A1.  Both lattices step
    by isd/resolution from x = 0, so an A1 point's value is the value at
    the same column of the A2 lattice, and each area reads the left columns
    of every block.  Counts are sums, so the scan's block order does not
    change them.

    ``spill``, an open binary file, takes the per-point results.  Each
    key's map-area mask, packed along rows (``np.packbits``), row-major
    with the keys inner: key ``i`` of the n distinct keys in order of first
    appearance, row ``r`` (row index increasing with y) at byte
    ``(r*n + i) * ceil(nx_map/8)``.  The scan reduces a block for every key
    in turn, so each run of consecutive rows of a block is written once,
    after its last key.  With ``levels``, after the masks, every key's
    SINR raster levels (``sinr_levels`` of its map-area values), key-major:
    key ``i``, row ``r`` at byte ``(i*ny + r) * nx_map`` past the masks,
    one write per run of each key's block.
    """
    spec = evaluator.grid.spec
    full = map_area if map_area.kind is AreaKind.A2 else coverage_area
    keys = list(dict.fromkeys(key for group in groups for key in group))
    ny_cov, nx_cov = sample_shape(coverage_area, spec)
    map_shape = sample_shape(map_area, spec)
    ny, nx_map = map_shape
    n_bytes = -(-nx_map // 8)
    row_bytes = len(keys) * n_bytes
    covered = [[0] * len(thresholds_db) for _ in keys]
    map_covered = [0] * len(keys)

    xs, ys = lattice_axes(full, spec)
    for rows, i, values in evaluator.scan(xs, ys, keys):
        if i == 0:
            starts = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1).tolist()]
            runs = [(a, b, int(rows[a])) for a, b in zip(starts, starts[1:] + [rows.size])]
            packed = np.empty((rows.size, len(keys), n_bytes), dtype=np.uint8)
        # Threshold compares on a column slice cost more than one copy of
        # it and compares on the copy.
        cov = np.ascontiguousarray(values[:, :nx_cov])
        for t, threshold in enumerate(thresholds_db):
            covered[i][t] += int(np.count_nonzero(cov >= threshold))
        mask = values[:, :nx_map] >= map_threshold_db
        map_covered[i] += int(np.count_nonzero(mask))
        packed[:, i] = np.packbits(mask, axis=1)
        if levels:
            block_levels = sinr_levels(values[:, :nx_map])
            for a, b, r in runs:
                _pwrite(spill, block_levels[a:b], ny * row_bytes + (i * ny + r) * nx_map)
        if i == len(keys) - 1:
            for a, b, r in runs:
                _pwrite(spill, packed[a:b], r * row_bytes)

    n_cov = ny_cov * nx_cov
    n_map = ny * nx_map
    thresholds = tuple(float(t) for t in thresholds_db)
    return ScanTotals(
        reports={key: CoverageReport(thresholds, tuple(c / n_cov for c in covered[i]))
                 for i, key in enumerate(keys)},
        map_fractions={key: map_covered[i] / n_map for i, key in enumerate(keys)},
        keys=tuple(keys),
        map_shape=map_shape,
        spill=spill,
    )


@dataclass(frozen=True)
class RunResult:
    """Artifacts written by one experiment run."""

    out_dir: str
    files: tuple[str, ...]
    summary: dict


def _coverage_rows(label, area, reports) -> list[list[str]]:
    """CSV rows of one scheme's reports, one per content in content order."""
    rows = []
    for m, report in enumerate(reports, start=1):
        for threshold, fraction in zip(report.thresholds_db, report.fractions):
            rows.append(
                [label, str(m), area.kind.value,
                 fmt9(threshold), fmt9(fraction), fmt9(100.0 * fraction)]
            )
    return rows


def _coverage_pct(cfg, reports) -> dict:
    """Per-content and local-average coverage percent, keyed by threshold;
    ``reports`` holds one report per content in content order."""
    out: dict[str, dict[str, float]] = {}
    for m, report in enumerate(reports, start=1):
        out[f"content_{m}"] = {
            fmt9(t): round9(100.0 * frac)
            for t, frac in zip(report.thresholds_db, report.fractions)
        }
    locals_ = reports[1:]
    out["locals_avg"] = {
        fmt9(t): round9(
            100.0 * sum(r.fractions[i] for r in locals_) / len(locals_)
        )
        for i, t in enumerate(cfg.thresholds_db)
    }
    return out


def _check_replaceable(out_dir: str, target: str) -> None:
    """Refuse to replace ``target`` unless it is absent, empty or holds only
    files a run writes; ``out_dir`` is the name the user gave."""
    if not os.path.lexists(target):
        return
    if not os.path.isdir(target):
        raise ConfigValidationError([f"output.dir: {out_dir} is not a directory"])
    with os.scandir(target) as entries:
        foreign = sorted(e.name for e in entries
                         if e.is_dir() or not _RUN_FILE.fullmatch(e.name))
    if foreign:
        raise ConfigValidationError([
            f"output.dir: {out_dir} holds {foreign[0]!r}, which a run does not "
            "write; refusing to replace it"
        ])


def _umask() -> int:
    # mkdtemp makes a private directory; the output gets the mode that
    # os.makedirs would give it.
    mask = os.umask(0)
    os.umask(mask)
    return mask


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run every configured scheme and write all artifacts to cfg.out_dir.

    The artifacts are written into a temporary sibling of cfg.out_dir,
    which then takes the place of any previous run there; a run stopped
    before that swap completes leaves the previous run as it was.  An
    existing directory holding anything a run does not write is refused
    with ``ConfigValidationError`` before any work is done.  Floating-point
    overflow and invalid operations raise ``FloatingPointError``, so a run
    never writes numbers whose arithmetic failed.
    """
    target = os.path.realpath(cfg.out_dir)
    _check_replaceable(cfg.out_dir, target)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{name}.", suffix=".partial", dir=parent)
    retired = staging + ".old"
    try:
        with np.errstate(over="raise", invalid="raise"):
            files, summary = _write_run(cfg, staging)
        os.chmod(staging, 0o777 & ~_umask())
        if os.path.isdir(target):
            os.rename(target, retired)
        os.rename(staging, target)
        if os.path.isdir(retired):
            shutil.rmtree(retired)
    except BaseException:
        # Stopped between the two renames: the previous run goes back.
        if os.path.isdir(retired) and os.path.isdir(staging):
            os.rename(retired, target)
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(retired, ignore_errors=True)
        raise
    return RunResult(out_dir=cfg.out_dir, files=files, summary=summary)


def _write_run(cfg: ExperimentConfig, out_dir: str) -> tuple[tuple[str, ...], dict]:
    """Write every artifact of the run into ``out_dir``; returns the sorted
    file names and the summary document."""
    grid = Grid.from_spec(cfg.grid)
    evaluator = SinrEvaluator(grid, cfg.env())
    coverage_area = cfg.coverage_area()
    map_area = cfg.map_area()
    contents = list(cfg.plan.content_ids)
    plans = [allocate(grid, cfg.plan, scheme) for scheme in cfg.schemes]
    keys = [[evaluator.field_key(m, tp, cfg.plan) for m in contents] for tp in plans]
    threshold = cfg.content_map_threshold_db
    files: list[str] = []

    def out_path(name: str) -> str:
        files.append(name)
        return os.path.join(out_dir, name)

    rasters: dict[tuple, list[str]] = {}
    if cfg.emit_sinr_maps:
        for scheme, scheme_keys in zip(cfg.schemes, keys):
            for m, key in zip(contents, scheme_keys):
                name = f"sinr_{scheme.label}_content{m}.pgm"
                with open(out_path(f"{name}.hdr.txt"), "w", encoding="ascii",
                          newline="\n") as handle:
                    handle.write(f"{_SINR_SIDECAR}scheme {scheme.label}\ncontent {m}\n"
                                 f"area {map_area.kind.value}\n")
                rasters.setdefault(key, []).append(out_path(name))

    _write_json(out_path("manifest.json"),
                {"format": MANIFEST_FORMAT, "config": cfg.to_mapping()})

    csv_rows: list[list[str]] = []
    summary_coverage: dict[str, dict] = {}
    summary_maps: dict[str, dict] = {}
    per_scheme_xi: dict[str, float] = {}

    # Unlinked when made, so it is never one of the run's files.
    with tempfile.TemporaryFile(dir=out_dir) as spill:
        totals = scan_totals(evaluator, keys, coverage_area, map_area, cfg.thresholds_db,
                             threshold, spill, cfg.emit_sinr_maps)
        # In scan order, so the level reads run through the spill file once.
        for key, (first, *copies) in rasters.items():
            emit_heatmap(totals.level_blocks(key), totals.map_shape, 255, first)
            for path in copies:
                shutil.copyfile(first, path)

        for scheme, tp, scheme_keys in zip(cfg.schemes, plans, keys):
            per_scheme_xi[scheme.label] = round9(
                spectral_efficiency_from_plan(tp, cfg.plan)
            )

            reports = [totals.reports[key] for key in scheme_keys]
            csv_rows.extend(_coverage_rows(scheme.label, coverage_area, reports))
            summary_coverage[scheme.label] = _coverage_pct(cfg, reports)

            # Integer sums, so each fraction is the float a whole map gives.
            histogram = [0] * (cfg.plan.m_count + 1)
            emit_heatmap(totals.count_blocks(scheme_keys, histogram), totals.map_shape,
                         cfg.plan.m_count, out_path(f"content_counts_{scheme.label}.pgm"))
            n_points = sum(histogram)
            map_doc = {
                "scheme": scheme.label,
                "area": map_area.kind.value,
                "threshold_db": round9(threshold),
                "n_points": n_points,
                "histogram_pct": {
                    str(k): round9(100.0 * (h / n_points)) for k, h in enumerate(histogram)
                },
                "at_least_pct": {
                    str(k): round9(100.0 * (sum(histogram[k:]) / n_points))
                    for k in range(1, cfg.plan.m_count + 1)
                },
                "mean_count": round9(sum(k * h for k, h in enumerate(histogram)) / n_points),
                "pct_global": round9(100.0 * totals.map_fractions[scheme_keys[0]]),
            }
            _write_json(out_path(f"content_counts_{scheme.label}.json"), map_doc)
            summary_maps[scheme.label] = map_doc

    with open(os.path.join(out_dir, "coverage.csv"), "w",
              encoding="utf-8", newline="") as handle:
        files.append("coverage.csv")
        writer = csv.writer(handle)
        writer.writerow(
            ["scheme", "content", "area", "threshold_db", "covered_fraction", "percent"]
        )
        writer.writerows(csv_rows)

    se = se_report(cfg.grid, cfg.plan)
    se_doc = {
        "xi_olsi": round9(se.xi_olsi),
        "xi_ps": round9(se.xi_ps),
        "xi_imo": round9(se.xi_imo),
        "ratio_olsi_ps": str(se.ratio_olsi_ps),
        "ratio_olsi_imo": str(se.ratio_olsi_imo),
        "ratio_ps_imo": str(se.ratio_ps_imo),
        "ratio_olsi_ps_float": round9(float(se.ratio_olsi_ps)),
        "ratio_olsi_imo_float": round9(float(se.ratio_olsi_imo)),
        "ratio_ps_imo_float": round9(float(se.ratio_ps_imo)),
        "per_scheme_xi": per_scheme_xi,
    }
    _write_json(out_path("spectral_efficiency.json"), se_doc)

    summary = {
        "format": SUMMARY_FORMAT,
        "coverage_area": coverage_area.kind.value,
        "map_area": map_area.kind.value,
        "resolution": cfg.resolution,
        "thresholds_db": [round9(t) for t in cfg.thresholds_db],
        "coverage_pct": summary_coverage,
        "content_maps": summary_maps,
        "spectral_efficiency": se_doc,
    }
    _write_json(out_path("summary.json"), summary)

    return tuple(sorted(set(files))), summary
