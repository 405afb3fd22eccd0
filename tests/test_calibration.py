"""The Table 1 calibration scan prints the same bytes as its recorded runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


@pytest.mark.parametrize(
    "slope,golden",
    [("3.0", "calibrate_r10_s3.txt"), ("3.522", "calibrate_r10_hata.txt")],
    ids=["power-law", "hata"],
)
def test_calibrate_r10_output_unchanged(slope, golden, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Run from elsewhere: the scan finds its config from its own location.
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate_table1.py"),
         "--resolution", "10", "--slopes", slope],
        cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True,
    )
    assert result.stdout == (DATA / golden).read_bytes()
