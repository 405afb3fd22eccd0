"""The reference bytes on every SIMD target this CPU runs below numpy's
default.  numpy rounds the last bits of ``power`` and ``log10`` per
target, so each lower dispatch level runs in a child started with
``NPY_DISABLE_CPU_FEATURES`` naming the targets above it: paper r20 must
still match ``out/final``, ``cli oracle`` must print the golden of that
child's target, and smoke r37 with SINR maps on must write the same files
as on this process's own target, its manifest excepted."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from helpers import ROOT, final_mismatches, oracle_golden, simd_targets
from sfn_lsi_sim.config import apply_overrides, parse_config
from sfn_lsi_sim.runner import run_experiment

DISPATCH, FEATURES = simd_targets()

# Runs the three commands through the CLI's entry point in one process,
# then prints the child's features and what the oracle printed.
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
with contextlib.redirect_stdout(io.StringIO()):
    mapped = main(["run", "--config", "configs/smoke_1x2.cfg", "--resolution", "37",
                   "--out", sys.argv[2]])
print(json.dumps({"codes": [ran, checked, mapped], "features": simd_targets()[1],
                  "oracle": printed.getvalue()}))
"""


@pytest.fixture(scope="module")
def smoke_r37(tmp_path_factory):
    """Smoke r37, whose config turns SINR maps on, run on this process's
    own target."""
    out = tmp_path_factory.mktemp("default") / "smoke"
    cfg = parse_config(str(ROOT / "configs" / "smoke_1x2.cfg"))
    run_experiment(apply_overrides(cfg, out_dir=str(out), resolution=37))
    return out


@pytest.mark.parametrize("level", [*DISPATCH, "baseline"])
def test_lower_dispatch_level_keeps_reference_bytes(tmp_path, smoke_r37, level):
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
    out, smoke = tmp_path / "final", tmp_path / "smoke"
    result = subprocess.run([sys.executable, "-c", CHILD, str(out), str(smoke)], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0]
    assert not any(report["features"][target] for target in disabled)
    assert final_mismatches(out) == []
    assert report["oracle"] == oracle_golden(report["features"]).read_text()
    names = sorted(p.name for p in smoke_r37.iterdir())
    assert sorted(p.name for p in smoke.iterdir()) == names
    assert [name for name in names if name != "manifest.json"
            and (smoke / name).read_bytes() != (smoke_r37 / name).read_bytes()] == []
