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
block as it comes (``scan_totals``) and holds, per key, only counts and
bits: its covered point count at each threshold over the coverage area, its
map-area count at ``content_map_threshold_db`` and that map-area mask,
packed eight points to a byte.  With SINR maps on, the scan runs top row
first, in row order, and each block's raster text is appended to the key's
open raster files as it arrives, so no raster level outlives its block.  No
float field and no full-area gain is held.  A scheme's count map is the sum
of its contents' masks, built only while the scheme is written.  Results
carry no scheme or content: the run names them where it writes them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.config import MANIFEST_FORMAT, ExperimentConfig
from sfn_lsi_sim.errors import ConfigValidationError
from sfn_lsi_sim.grid import AreaKind, EvalArea, Grid, lattice_axes, sample_shape
from sfn_lsi_sim.metrics import (
    ContentCountMap,
    CoverageReport,
    se_report,
    spectral_efficiency_from_plan,
)
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
        json.dump(document, handle, sort_keys=True, indent=2)
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


def _pgm_header(shape: tuple[int, int], maxval: int) -> bytes:
    """The P2 header of a (ny, nx) raster of levels 0..``maxval``."""
    ny, nx = shape
    return f"P2\n{nx} {ny}\n{maxval}\n".encode("ascii")


def _pgm_text(rows: np.ndarray, maxval: int):
    """Yields the P2 text of the raster rows ``rows``, in their order, each
    row ended by a newline, at most ``_PGM_BLOCK`` points at a time."""
    nx = rows.shape[1]
    spaced, ended = _token_table(maxval, " "), _token_table(maxval, "\n")
    height, width = max(1, _PGM_BLOCK // nx), min(nx, _PGM_BLOCK)
    for r0 in range(0, rows.shape[0], height):
        for c0 in range(0, nx, width):
            block = rows[r0:r0 + height, c0:c0 + width]
            words = spaced[block]
            if c0 + width >= nx:
                words[:, -1] = ended[block[:, -1]]
            # Tokens hold no NUL, so dropping the padding leaves the text.
            yield words.tobytes().replace(b"\0", b"")


def sinr_levels(values_db: np.ndarray) -> np.ndarray:
    """``SINR_DB_RANGE`` quantized linearly onto uint8 levels 0..255;
    values outside the window clip to its ends."""
    lo, hi = SINR_DB_RANGE
    scaled = (np.clip(values_db, lo, hi) - lo) * (255.0 / (hi - lo))
    return np.rint(scaled).astype(np.uint8)


_SINR_SIDECAR = (f"kind sinr_db\ndb_min {fmt9(SINR_DB_RANGE[0])}\n"
                 f"db_max {fmt9(SINR_DB_RANGE[1])}\nlevels 256\n")
"""The window lines that open every SINR raster's sidecar."""


def emit_heatmap(image: np.ndarray, maxval: int, path: str) -> None:
    """Write ``image`` (row index increasing with y) to ``path`` as a plain
    P2 raster of levels 0..``maxval``."""
    with open(path, "wb") as handle:
        handle.write(_pgm_header(image.shape, maxval))
        # PNM rows run top to bottom; the lattice's first row is the smallest y.
        handle.writelines(_pgm_text(image[::-1], maxval))


_UNPACK_BLOCK = 1 << 16
"""Map points one ``ScanTotals.count_map`` step unpacks: whole rows when a
row fits, else one row."""


@dataclass(frozen=True)
class ScanTotals:
    """What one ``scan_totals`` pass yields.  Per distinct key: its
    ``CoverageReport`` over the coverage area, the fraction of map-area
    points at or above the map threshold and the mask of those points
    packed along rows (``np.packbits``, eight points to a byte).
    ``count_map`` sums a group's masks into its count map on demand.  SINR
    raster levels are not kept: ``scan_totals`` writes them as it goes."""

    reports: dict[tuple, CoverageReport]
    map_fractions: dict[tuple, float]
    masks: dict[tuple, np.ndarray]
    map_shape: tuple[int, int]

    def count_map(self, keys: list[tuple]) -> ContentCountMap:
        """Count map of one group of keys, one per content: per map-area
        point, how many of the keys' masks hold it.  A key listed twice
        counts twice.  Unpacked a block of rows at a time, so the map is the
        only full-size array it makes."""
        ny, nx = self.map_shape
        # The narrowest unsigned type that holds M: uint8 up to 255 contents.
        counts = np.zeros(self.map_shape, dtype=np.min_scalar_type(len(keys)))
        step = max(1, _UNPACK_BLOCK // nx)
        for r0 in range(0, ny, step):
            block = counts[r0:r0 + step]
            for key in keys:
                block += np.unpackbits(self.masks[key][r0:r0 + step], axis=1, count=nx)
        return ContentCountMap(m_count=len(keys), counts=counts.ravel(), shape=self.map_shape)


def scan_totals(evaluator: SinrEvaluator, groups: list[list[tuple]],
                coverage_area: EvalArea, map_area: EvalArea,
                thresholds_db, map_threshold_db: float,
                rasters: dict[tuple, list] | None = None) -> ScanTotals:
    """Reduce one ``evaluator.scan`` of every distinct key in ``groups``
    (one list of ``field_key``s per count map, in content order).

    The scan covers A2 if either area is A2, else A1.  Both lattices step
    by isd/resolution from x = 0, so an A1 point's value is the value at
    the same column of the A2 lattice, and each area reads the left columns
    of every block.  Counts are sums, so the scan's block order does not
    change them.  Each key's map-area mask is packed as its blocks arrive:
    a (ny, ceil(nx / 8)) uint8 array per distinct key.

    ``rasters`` maps every key to the open binary files of its SINR rasters,
    each past its P2 header.  Then the scan runs over the y axis reversed
    and in order, so its rows come top row first, as PGM rows run, and each
    block's raster text is encoded once per key and appended to each of the
    key's files.
    """
    spec = evaluator.grid.spec
    full = map_area if map_area.kind is AreaKind.A2 else coverage_area
    keys = list(dict.fromkeys(key for group in groups for key in group))
    ny_cov, nx_cov = sample_shape(coverage_area, spec)
    map_shape = sample_shape(map_area, spec)
    nx_map = map_shape[1]
    covered = [[0] * len(thresholds_db) for _ in keys]
    map_covered = [0] * len(keys)
    # Every row of every key is written once by the scan.
    masks = [np.empty((map_shape[0], -(-nx_map // 8)), dtype=np.uint8) for _ in keys]

    xs, ys = lattice_axes(full, spec)
    if rasters is None:
        blocks = evaluator.scan(xs, ys, keys, full.resolution)
    else:
        blocks = evaluator.scan(xs, ys[::-1], keys, full.resolution, in_order=True)
    for rows, i, values in blocks:
        # Threshold compares on a column slice cost more than one copy of
        # it and compares on the copy.
        cov = np.ascontiguousarray(values[:, :nx_cov])
        for t, threshold in enumerate(thresholds_db):
            covered[i][t] += int(np.count_nonzero(cov >= threshold))
        mask = values[:, :nx_map] >= map_threshold_db
        map_covered[i] += int(np.count_nonzero(mask))
        if rasters is not None:
            text = b"".join(_pgm_text(sinr_levels(values[:, :nx_map]), 255))
            for handle in rasters[keys[i]]:
                handle.write(text)
            # The scan's rows index ys reversed; masks keep lattice rows.
            rows = ys.size - 1 - rows
        masks[i][rows] = np.packbits(mask, axis=1)

    n_cov = ny_cov * nx_cov
    n_map = map_shape[0] * nx_map
    thresholds = tuple(float(t) for t in thresholds_db)
    return ScanTotals(
        reports={key: CoverageReport(thresholds, tuple(c / n_cov for c in covered[i]))
                 for i, key in enumerate(keys)},
        map_fractions={key: map_covered[i] / n_map for i, key in enumerate(keys)},
        masks=dict(zip(keys, masks)),
        map_shape=map_shape,
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
    which then takes the place of any previous run there.  An existing
    directory holding anything a run does not write is refused with
    ``ConfigValidationError`` before any work is done.
    """
    target = os.path.realpath(cfg.out_dir)
    _check_replaceable(cfg.out_dir, target)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{name}.", suffix=".partial", dir=parent)
    try:
        files, summary = _write_run(cfg, staging)
        os.chmod(staging, 0o777 & ~_umask())
        if os.path.isdir(target):
            retired = staging + ".old"
            os.rename(target, retired)
            os.rename(staging, target)
            shutil.rmtree(retired)
        else:
            os.rename(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
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

    with contextlib.ExitStack() as open_rasters:
        rasters = None
        if cfg.emit_sinr_maps:
            rasters = {}
            header = _pgm_header(sample_shape(map_area, grid.spec), 255)
            for scheme, scheme_keys in zip(cfg.schemes, keys):
                for m, key in zip(contents, scheme_keys):
                    name = f"sinr_{scheme.label}_content{m}.pgm"
                    with open(out_path(f"{name}.hdr.txt"), "w", encoding="ascii",
                              newline="\n") as handle:
                        handle.write(f"{_SINR_SIDECAR}scheme {scheme.label}\ncontent {m}\n"
                                     f"area {map_area.kind.value}\n")
                    raster = open_rasters.enter_context(open(out_path(name), "wb"))
                    raster.write(header)
                    rasters.setdefault(key, []).append(raster)
        totals = scan_totals(evaluator, keys, coverage_area, map_area, cfg.thresholds_db,
                             threshold, rasters)

    _write_json(out_path("manifest.json"),
                {"format": MANIFEST_FORMAT, "config": cfg.to_mapping()})

    csv_rows: list[list[str]] = []
    summary_coverage: dict[str, dict] = {}
    summary_maps: dict[str, dict] = {}
    per_scheme_xi: dict[str, float] = {}

    for scheme, tp, scheme_keys in zip(cfg.schemes, plans, keys):
        per_scheme_xi[scheme.label] = round9(
            spectral_efficiency_from_plan(tp, cfg.plan)
        )

        reports = [totals.reports[key] for key in scheme_keys]
        csv_rows.extend(_coverage_rows(scheme.label, coverage_area, reports))
        summary_coverage[scheme.label] = _coverage_pct(cfg, reports)

        cmap = totals.count_map(scheme_keys)
        histogram = cmap.histogram()
        map_doc = {
            "scheme": scheme.label,
            "area": map_area.kind.value,
            "threshold_db": round9(threshold),
            "n_points": int(cmap.counts.size),
            "histogram_pct": {
                str(k): round9(100.0 * histogram[k]) for k in range(cfg.plan.m_count + 1)
            },
            "at_least_pct": {
                str(k): round9(100.0 * cmap.fraction_at_least(k))
                for k in range(1, cfg.plan.m_count + 1)
            },
            "mean_count": round9(cmap.mean_count()),
            "pct_global": round9(100.0 * totals.map_fractions[scheme_keys[0]]),
        }
        _write_json(out_path(f"content_counts_{scheme.label}.json"), map_doc)
        emit_heatmap(cmap.as_image(), cmap.m_count,
                     out_path(f"content_counts_{scheme.label}.pgm"))
        del cmap  # one scheme's count map at a time
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
