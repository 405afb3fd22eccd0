"""Shared test fixtures that are plain functions."""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan
from sfn_lsi_sim.grid import D_MIN_M, ZONES, Grid, GridSpec
from sfn_lsi_sim.propagation import gain

ROOT = Path(__file__).resolve().parents[1]


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


@dataclass(frozen=True)
class CellRef:
    """One cell of a grid, derived here from the spec alone: the column
    from the row-major index, LSA and buffer zone from the column."""

    index: int
    col: int
    in_lsa1: bool
    zone: str


INTERIOR, LEFT_BUFFER, RIGHT_BUFFER = "interior", "left_buffer", "right_buffer"


def cell_refs(spec: GridSpec) -> list[CellRef]:
    """Every cell of ``spec`` in cell-index order."""
    lb_lo = spec.lsa1_cols - spec.buffer_cols_per_side
    rb_hi = spec.lsa1_cols + spec.buffer_cols_per_side
    cells = []
    for index in range(spec.rows * spec.cols):
        col = index % spec.cols
        if lb_lo <= col < spec.lsa1_cols:
            zone = LEFT_BUFFER
        elif spec.lsa1_cols <= col < rb_hi:
            zone = RIGHT_BUFFER
        else:
            zone = INTERIOR
        cells.append(CellRef(index, col, col < spec.lsa1_cols, zone))
    return cells


def zone_gains(grid: Grid, env, points: np.ndarray) -> np.ndarray:
    """(4, n) zone gains G_z at ``points`` (shape (n, 2)), point by point:
    every tower-to-point distance, its gain, and each zone's cell rows added
    in cell-index order.  The reference the engine's lattice kernel must
    match byte for byte.  Chunks of 16,384 points bound the temporaries;
    every step is elementwise, so they do not change a bit."""
    xs, ys = grid.tower_axes()
    towers = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    bands = grid.bands()
    g = np.zeros((len(ZONES), points.shape[0]))
    for lo in range(0, points.shape[0], 16384):
        hi = lo + 16384
        d = np.hypot(towers[:, 0:1] - points[lo:hi, 0], towers[:, 1:2] - points[lo:hi, 1])
        np.maximum(d, D_MIN_M, out=d)
        cell_gains = gain(env.pathloss, d)
        for z in range(len(ZONES)):
            for c in np.flatnonzero(bands == z):
                g[z, lo:hi] += cell_gains[c]
    return g


def final_mismatches(out: Path) -> list[str]:
    """The files in which the run written to ``out`` differs from
    ``out/final``, the byte-level reference of the paper config at
    resolution 20: every file byte for byte, the manifest's output.dir
    excepted."""
    reference = ROOT / "out" / "final"
    names = sorted(p.name for p in reference.iterdir())
    if sorted(p.name for p in out.iterdir()) != names:
        return ["the file list"]
    differing = []
    for name in names:
        got = (out / name).read_bytes()
        if name == "manifest.json":
            document = json.loads(got)
            if document["config"]["output"]["dir"] != str(out):
                differing.append("manifest.json's output.dir")
            document["config"]["output"]["dir"] = "out/final"
            got = (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()
        if got != (reference / name).read_bytes():
            differing.append(name)
    return differing


def simd_targets() -> tuple[list[str], dict[str, bool]]:
    """numpy's dispatch targets, lowest first, and which CPU features this
    process may use (``NPY_DISABLE_CPU_FEATURES`` switches some off)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return list(umath.__cpu_dispatch__), dict(umath.__cpu_features__)


def oracle_golden(features: dict[str, bool]) -> Path:
    """The recorded ``cli oracle`` output of the paper config on the SIMD
    target ``features`` describe.  numpy's ``power`` and ``log10`` loops
    round the last bits differently with and without AVX-512 (``X86_V4``,
    which numpy 1.x names ``AVX512_SKX``), and the output prints the
    suite's worst relative error, noise near 1e-15.  AVX2 and the x86
    baseline print the same.  Another platform has no golden yet and
    fails, naming the file to record."""
    avx512 = features.get("X86_V4", features.get("AVX512_SKX"))
    if avx512 is None:
        name = f"oracle_paper_{platform.machine().lower()}.txt"
    else:
        name = "oracle_paper.txt" if avx512 else "oracle_paper_no_avx512.txt"
    path = ROOT / "tests" / "data" / name
    assert path.exists(), f"no oracle golden is recorded for this SIMD target: {path}"
    return path
