"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload with ``--small`` (paper resolution 10, sweep 8) and
checks that each metric of BENCHMARK.json is printed with its unit, that
per-layer figures are the workload's own and every layer is timed on some
workload, that exact counts repeat, that a corrupted artifact or a layer
the tracer cannot find is counted as a failed check, and that the
benchmark refuses a tree without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(capsys, workload: str, trace: int, seed: int = 0) -> tuple[int, dict]:
    code = bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--small"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload):
    code, result = invoke(capsys, workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_per_layer_metrics_are_the_workloads_own(capsys):
    traced = {}
    for workload in bench.WORKLOADS:
        code, result = invoke(capsys, workload, trace=1)
        assert code == 0 and result["correct"]
        assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert result["metrics"]["trace.attributed_frac"]["value"] >= 0.85
        traced[workload] = {name: m["value"] for name, m in result["metrics"].items()}
    for name in (m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"):
        assert any(traced[w][name] > 0 for w in traced), name
    # The lattice runs make no single-point calls, and the oracle no lattice.
    for workload in ("paper_r100", "sweep_hata_maps"):
        assert traced[workload]["sinr.sinr_at.calls"] == 0
        assert traced[workload]["oracle.cases"] == 0
    assert traced["oracle_suite"]["sinr.field.calls"] == 0
    assert traced["oracle_suite"]["oracle.cases"] == 216


def test_exact_counts_repeat(capsys):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "MiB")]
    first = invoke(capsys, "sweep_hata_maps", trace=1)[1]["metrics"]
    second = invoke(capsys, "sweep_hata_maps", trace=1)[1]["metrics"]
    assert ({n: first[n]["value"] for n in counted}
            == {n: second[n]["value"] for n in counted})
    assert first["sinr.field.calls"]["value"] == 2 * 12 * 5  # two areas x schemes x M


def _append_byte(out_dir: Path) -> None:
    with open(out_dir / "coverage.csv", "ab") as handle:
        handle.write(b"x")


def _truncate_summary(out_dir: Path) -> None:
    (out_dir / "summary.json").write_text("{", encoding="utf-8")


@pytest.mark.parametrize("workload, seed, corrupt", [
    ("paper_r100", 0, _append_byte),        # digest check
    ("sweep_hata_maps", 0, _append_byte),   # recorded tree digest
    ("sweep_hata_maps", 999, _truncate_summary),  # no digest: well-formedness
])
def test_corrupted_artifact_counts_as_failed(capsys, monkeypatch, workload, seed, corrupt):
    real = bench.run_program

    def corrupting(args, threads, log):
        run = real(args, threads, log)
        if "--out" in args:
            out_dir = Path(args[args.index("--out") + 1])
            if out_dir.name == "body":
                corrupt(out_dir)
        return run

    monkeypatch.setattr(bench, "run_program", corrupting)
    code, result = invoke(capsys, workload, trace=0, seed=seed)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1
    success = result["metrics"]["success_frac"]["value"]
    assert success == pytest.approx(1 - result["failed"] / result["attempted"])


def test_missing_layer_counts_as_failed(capsys, monkeypatch):
    real = bench.run_program

    def losing_a_layer(args, threads, log):
        run = real(args, threads, log)
        if str(bench.TRACE_RUN) in args and args[args.index("--trace") + 1] == "1":
            result = Path(args[1])
            document = json.loads(result.read_text(encoding="utf-8"))
            document["missing"] = ["sinr.sinr_at"]
            result.write_text(json.dumps(document), encoding="utf-8")
        return run

    monkeypatch.setattr(bench, "run_program", losing_a_layer)
    code, result = invoke(capsys, "oracle_suite", trace=1)
    assert code == 1 and not result["correct"]
    assert result["failed"] >= 1


def test_refuses_tree_without_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", bench.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_subtracts_union_of_concurrent_children():
    spans = [["root", 0.0, 10.0, -1, 1],
             ["a", 1.0, 5.0, 0, 1],
             ["b", 2.0, 6.0, 0, 2],   # overlaps a on another thread
             ["c", 8.0, 9.0, 0, 1]]
    assert bench.self_times(spans) == [10.0 - 5.0 - 1.0, 4.0, 4.0, 1.0]
