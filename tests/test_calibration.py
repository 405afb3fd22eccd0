"""The Table 1 calibration scan prints the same bytes as its recorded run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "data" / "calibrate_r10_s3.txt"


def test_calibrate_r10_slope3_output_unchanged():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "scripts/calibrate_table1.py", "--resolution", "10",
         "--slopes", "3.0"],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=True,
    )
    assert result.stdout == EXPECTED.read_bytes()
