"""Record the artifact digests the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``:

* ``out_final``: sha256 of every file of the committed ``out/final`` run;
* ``paper_r100``, ``paper_r10``: the paper workload's artifacts at the full
  and the self-test resolution (the seed only reaches the manifest, which
  the check skips);
* ``sweep_hata_maps``: per resolution (``r40``, self-test ``r8``) and per
  seed 0..SWEEP_SEEDS-1, one ``tree_digest`` of the sweep workload's artifacts.

Run it only on a commit whose artifacts are the accepted reference: the
benchmark counts every later mismatch as a failed run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench

SWEEP_SEEDS = 32


def digests_of(directory: Path) -> dict[str, str]:
    return {p.name: bench.sha256(p) for p in sorted(directory.iterdir())}


def record_run(workload: str, seed: int, small: bool, reference: dict) -> Path:
    wl = bench.build_workload(workload, seed, small, reference)
    wl.body.prepare()
    run = bench.run_program(bench.cli_args(wl.body.argv), wl.body.threads,
                            bench.WORK / workload / "child.log")
    if run.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {run.returncode}\n{run.output}")
    return wl.body.out_dir


def main() -> int:
    # build_workload looks the digests up, so start from empty tables.
    reference = {"out_final": digests_of(bench.ROOT / "out" / "final"),
                 "paper_r100": {}, "paper_r10": {},
                 "sweep_hata_maps": {"r40": {}, "r8": {}}}
    reference["paper_r10"] = digests_of(record_run("paper_r100", 0, True, reference))
    reference["paper_r100"] = digests_of(record_run("paper_r100", 0, False, reference))
    for seed in range(SWEEP_SEEDS):
        for small, key in ((True, "r8"), (False, "r40")):
            out_dir = record_run("sweep_hata_maps", seed, small, reference)
            reference["sweep_hata_maps"][key][str(seed)] = bench.tree_digest(out_dir)
        print(f"sweep seed {seed} recorded", file=sys.stderr)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
