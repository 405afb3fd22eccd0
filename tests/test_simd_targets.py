"""The reference bytes on every SIMD target this CPU runs below numpy's
default.  numpy rounds the last bits of ``power`` and ``log10`` per
target, so each lower dispatch level runs in a child started with
``NPY_DISABLE_CPU_FEATURES`` naming the targets above it: paper r20 must
still match ``out/final``, and ``cli oracle`` must print the golden of
that child's target."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, final_mismatches, oracle_golden, simd_targets

DISPATCH, FEATURES = simd_targets()

# Runs both commands through the CLI's entry point in one process, then
# prints the child's features and what the oracle printed.
CHILD = """
import contextlib, io, json, sys
from helpers import simd_targets
from sfn_lsi_sim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    ran = main(["run", "--config", "configs/paper_table1.cfg", "--resolution", "20",
                "--out", sys.argv[1]])
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    checked = main(["oracle", "--config", "configs/paper_table1.cfg"])
print(json.dumps({"codes": [ran, checked], "features": simd_targets()[1],
                  "oracle": printed.getvalue()}))
"""


@pytest.mark.parametrize("level", [*DISPATCH, "baseline"])
def test_lower_dispatch_level_keeps_reference_bytes(tmp_path, level):
    if level != "baseline" and not FEATURES.get(level):
        pytest.skip(f"this CPU lacks {level}, or NPY_DISABLE_CPU_FEATURES names it")
    above = DISPATCH[DISPATCH.index(level) + 1:] if level != "baseline" else DISPATCH
    disabled = [target for target in above if FEATURES.get(target)]
    if not disabled:
        pytest.skip(f"{level} is this process's default target, which every other test runs")
    # Add to what this process already disables, which the child inherits.
    inherited = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(inherited + disabled))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "final"
    result = subprocess.run([sys.executable, "-c", CHILD, str(out)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0]
    assert not any(report["features"][target] for target in disabled)
    assert final_mismatches(out) == []
    assert report["oracle"] == oracle_golden(report["features"]).read_text()
