"""Measure the benchmark's own spread and record a baseline.

    python3 perfbench/baseline.py

Runs ``run.py --trace 0`` once per seed 0-9 on each workload of
``BENCHMARK.json``, one at a time, then ``run.py --trace 1`` once with seed 0.  For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, against a third of the
metric's bound in ``BENCHMARK.json``.  The document it writes to
``perfbench/baseline.json`` also records the machine: CPU count, memory,
Python and numpy versions.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "memory_gib": round(pages / 2 ** 30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    document = {"machine": machine(), "seeds": SEEDS, "seconds": spec["run_seconds"],
                "workloads": {}}
    for spec_entry in spec["workloads"]:
        workload = spec_entry["name"]
        runs = [invoke(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"why": spec_entry["why"], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:16} {name:17} median {median:.6g} spread {spread:.4f} "
                  f"(bound/3 {bound / 3:.4f}) {flag}", flush=True)
        traced = invoke(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        document["workloads"][workload] = entry
        (HERE / "baseline.json").write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
