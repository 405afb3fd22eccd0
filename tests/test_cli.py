"""CLI tests: subcommands, output text, exit codes."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.cli import main
from sfn_lsi_sim.config import parse_config
from sfn_lsi_sim.grid import Grid
from sfn_lsi_sim.sinr import SinrEvaluator

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
SMOKE = str(CONFIG_DIR / "smoke_1x2.cfg")
TABLE = str(CONFIG_DIR / "paper_table1.cfg")


class TestRun:
    def test_run_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", "--config", SMOKE, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "summary.json" in captured.out
        assert "coverage.csv" in captured.out
        assert f"files to {out}" in captured.out
        assert (out / "summary.json").is_file()

    def test_run_single_scheme_override(self, tmp_path, capsys):
        out = tmp_path / "one"
        code = main([
            "run", "--config", SMOKE, "--out", str(out),
            "--scheme", "ps", "--beta", "0.25", "--resolution", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "content_counts_ps_beta0.25.json" in names
        assert not any("olsi" in n for n in names)
        assert "content_counts_ps_beta0.25.pgm" in captured.out

    def test_foreign_output_directory_refused(self, tmp_path, capsys):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        code = main(["run", "--config", SMOKE, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"config error: output.dir: {out} holds 'notes.txt'" in captured.err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_beta_without_scheme(self, tmp_path, capsys):
        code = main(["run", "--config", SMOKE, "--out", str(tmp_path / "x"),
                     "--beta", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error: --beta requires --scheme" in captured.err

    def test_beta_on_a_scheme_without_one(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["run", "--config", SMOKE, "--out", str(out),
                     "--scheme", "reuse1", "--beta", "0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "config error: --scheme: reuse1 takes no beta (got 'reuse1:0.2')\n")
        assert not out.exists()

    def test_non_finite_value_exits_one(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text(Path(SMOKE).read_text().replace(
            "n0_w_per_hz = 5e-18", "n0_w_per_hz = nan"))
        out = tmp_path / "run"
        code = main(["run", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert ("config error: radio.n0_w_per_hz: not a finite number: 'nan'; "
                "expected positive W/Hz") in captured.err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        code = main(["run", "--config", "/nonexistent/run.cfg"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not found" in captured.err


class TestValidate:
    def test_good_config(self, capsys):
        code = main(["validate", "--config", TABLE])
        captured = capsys.readouterr()
        assert code == 0
        assert "config ok: grid 8x10, M=3" in captured.out
        assert "reuse1" in captured.out

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nrows = 2\n")
        code = main(["validate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error:" in captured.err
        assert "grid.cols" in captured.err

    @pytest.mark.parametrize(
        "name,content,fragment",
        [
            ("section.json", b'{"config": {"grid": 5}}',
             "manifest section 'grid' must be an object"),
            ("list.json", b'{"config": [1]}',
             "manifest 'config' must be an object of sections"),
            ("broken.json", b'{"config": {', "not valid JSON: "),
            ("latin1.cfg", b"[grid]\nrows = 8\xff\n", "not UTF-8 text: "),
            ("dir.json", b'{"config": {"output": {"dir": null}}}',
             "manifest key 'output.dir' is null"),
            ("n0.json", b'{"config": {"radio": {"n0_w_per_hz": null}}}',
             "manifest key 'radio.n0_w_per_hz' is null"),
            ("thresholds.json", b'{"config": {"eval": {"thresholds_db": [10.0, null]}}}',
             "manifest key 'eval.thresholds_db' is null"),
        ],
        ids=["non-object-section", "non-object-config", "invalid-json", "non-utf8-ini",
             "null-dir", "null-number", "null-list-entry"],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, name, content, fragment):
        path = tmp_path / name
        path.write_bytes(content)
        code = main(["validate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"config error: {path}: {fragment}" in captured.err

    @pytest.mark.parametrize("command", ["validate", "oracle"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        config = tmp_path / "seed.cfg"
        config.write_text(Path(SMOKE).read_text().replace("seed = 0", "seed = -1"))
        code = main([command, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("config error: output.seed: must not be negative "
                                "(got -1); expected integer >= 0\n")

    def test_every_error_printed_on_own_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[schemes]\nlist = ps:7\n[eval]\nresolution = 0\n")
        code = main(["validate", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        error_lines = [l for l in captured.err.splitlines()
                       if l.startswith("config error:")]
        assert len(error_lines) >= 3  # missing keys + beta + resolution


class TestSe:
    def test_reference_output(self, capsys):
        code = main(["se", "--config", TABLE])
        captured = capsys.readouterr()
        assert code == 0
        assert "xi_olsi = 2 bits/s/Hz" in captured.out
        assert "xi_ps   = 3 bits/s/Hz" in captured.out
        assert "xi_imo  = 2.8 bits/s/Hz" in captured.out
        assert "olsi/ps  = 2/3" in captured.out
        assert "olsi/imo = 5/7" in captured.out
        assert "ps/imo   = 15/14 = 1.07142857" in captured.out


class TestOracle:
    def test_agreement(self, capsys):
        code = main(["oracle", "--config", SMOKE])
        captured = capsys.readouterr()
        assert code == 0
        assert "max relative error" in captured.out
        assert "worst case" in captured.out


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])


def _traced(tmp_path, *cli_args) -> dict:
    """Run the CLI under perfbench/trace_run.py and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, "perfbench/trace_run.py", str(result), "--trace", "1", "--",
         *cli_args],
        cwd=ROOT, env=env, capture_output=True, timeout=120, check=True,
    )
    return json.loads(result.read_text())


def test_traced_cli_finds_every_benchmark_layer(tmp_path):
    # perfbench/trace_run.py wraps each entry point of its LAYERS table;
    # one the package no longer has is reported in "missing" and fails the
    # benchmark's checks.
    document = _traced(tmp_path, "validate", "--config", "configs/smoke_1x2.cfg")
    assert document["missing"] == []
    assert document["returncode"] == 0


def test_traced_run_feeds_every_engine_counter(tmp_path, monkeypatch):
    # The counters read attributes of the engine's arguments and results;
    # one reading a dropped attribute must raise here rather than only
    # inside the benchmark.  A run feeds the kernel's counter.
    document = _traced(tmp_path, "run", "--config", "configs/smoke_1x2.cfg",
                       "--resolution", "2", "--out", str(tmp_path / "run"))
    assert document["returncode"] == 0
    assert document["missing"] == []
    assert document["counts"]["propagation.gain_evals"] > 0

    # A run reduces through SinrEvaluator.scan and calls neither field nor
    # gains_for, so call those under the same tracer, installed in this
    # process; every attribute it replaces is restored afterwards.
    loader = importlib.util.spec_from_file_location(
        "trace_run", ROOT / "perfbench" / "trace_run.py")
    trace_run = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(trace_run)
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{trace_run.PACKAGE}."):
            for key, value in list(vars(module).items()):
                monkeypatch.setattr(module, key, value)
    for key in ("field", "gains_for"):
        monkeypatch.setattr(SinrEvaluator, key, getattr(SinrEvaluator, key))
    tracer = trace_run.Tracer()
    assert trace_run.install(tracer) == []

    cfg = parse_config(SMOKE)
    grid = Grid.from_spec(cfg.grid)
    evaluator = SinrEvaluator(grid, cfg.env())
    evaluator.field(cfg.map_area(), 2, allocate(grid, cfg.plan, cfg.schemes[0]), cfg.plan)
    evaluator.gains_for(cfg.map_area())
    for name in ("sinr.field_points", "sinr.gain_cache_mb"):
        assert tracer.counts[name] > 0, name
