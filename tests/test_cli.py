"""CLI tests: subcommands, output text, exit codes."""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.cli import main
from sfn_lsi_sim.config import _ROWS, parse_config
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

    def test_reallocation_survives_a_run_of_another_scheme(self, tmp_path, capsys):
        # The IMO reallocation is part of the config, not of the schemes run:
        # a PS-only run's manifest keeps it for a later IMO run.
        config = tmp_path / "none.cfg"
        config.write_text(Path(SMOKE).read_text().replace(
            "imo_buffer_reallocation = global", "imo_buffer_reallocation = none"))
        first, second = tmp_path / "ps", tmp_path / "imo"
        assert main(["run", "--config", str(config), "--out", str(first),
                     "--scheme", "ps:0.5", "--resolution", "1"]) == 0
        manifest = first / "manifest.json"
        written = json.loads(manifest.read_text())["config"]["schemes"]
        assert written == {"list": "ps:0.5", "imo_buffer_reallocation": "none"}
        assert main(["run", "--config", str(manifest), "--out", str(second),
                     "--scheme", "imo:0.5"]) == 0
        [scheme] = parse_config(str(second / "manifest.json")).schemes
        assert (scheme.kind.value, scheme.beta, scheme.buffer_reallocation) == ("imo", 0.5, "none")

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

    @pytest.mark.parametrize("config,name,value,fragment", [
        (SMOKE, "contents.power_w", "1e308",
         "the received power at 20 m over the noise reaches inf"),
        (SMOKE, "contents.bandwidth_hz", "1e-320", "n0*B = 0.0 W is not a normal float"),
        (SMOKE, "contents.t_sym_s", "1e-320", "the spectral efficiency reaches inf bits/s/Hz"),
        (SMOKE, "contents.subcarriers", "1" + "0" * 309,
         "sum(S*log2(mu)) is too large for a float"),
        (TABLE, "grid.isd_m", "1e308", "the grid's diagonal reaches inf m"),
        (TABLE, "grid.isd_m", "3e307", "the grid's diagonal reaches inf m"),
        *[(TABLE, f"grid.{key}", value, f"out of range (got {shown})")
          for key in ("rows", "cols")
          for value, shown in (("1" + "0" * 400, "an integer of 401 digits"),
                               ("100000", "100000"),
                               ("1" + "0" * 30, "an integer of 31 digits"))],
        (TABLE, "radio.n0_w_per_hz", "1e308", "n0*B = inf W is not a normal float"),
        (TABLE, "radio.n0_w_per_hz", "1e-320", "n0*B = 2.399973281e-314 W is not a normal float"),
        (TABLE, "radio.n0_w_per_hz", "5e-324", "n0*B = 1.1857576e-317 W is not a normal float"),
        *[(SMOKE, "contents.count", value, f"out of range (got {shown})")
          for value, shown in (("1" + "0" * 12, "1000000000000"),
                               ("1" + "0" * 20, "100000000000000000000"),
                               ("1" + "0" * 400, "an integer of 401 digits"))],
    ], ids=["power", "bandwidth", "t_sym", "subcarriers", "isd-1e308", "isd-3e307",
            *[f"{key}-{value}" for key in ("rows", "cols") for value in ("1e400", "1e5", "1e30")],
            "n0-1e308", "n0-1e-320", "n0-5e-324", "count-1e12", "count-1e20", "count-1e400"])
    def test_value_that_breaks_the_run_exits_one(self, tmp_path, capsys, config, name,
                                                 value, fragment):
        # Each value once passed validate and broke the run at resolution 4:
        # a huge power and a tiny bandwidth made the SINR non-finite (exit 2),
        # and a tiny symbol time wrote Infinity into the JSON artifacts.  A
        # subcarrier count too large for a float named t_sym_s, and on the
        # 8 x 10 paper grid both spacings ran to exit 0 with 0 % coverage
        # everywhere, as tower offsets or their hypot overflowed to inf.
        # Grid sides once had no cap: 10**400 rows failed validate with exit
        # 2 ("int too large to convert to float"), 100000 columns passed it.
        # A count of 10**12 or 10**20 broadcast the one-value lists into a
        # MemoryError or an OverflowError (exit 2).  The n0*B rule joins two
        # keys and names both, whichever of them was set.
        key = name.split(".")[1]
        text = Path(config).read_text()
        bound = tmp_path / "bound.cfg"
        bound.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                 else line for line in text.splitlines(keepends=True)))
        names = ["contents.bandwidth_hz", "radio.n0_w_per_hz"] if "n0*B" in fragment else [name]
        expected = "".join(f"config error: {n}: {fragment}; expected {_ROWS[n].expect}\n"
                           for n in names)
        out = tmp_path / "run"
        for args in (["validate"], ["run", "--out", str(out), "--resolution", "4"]):
            code = main([args[0], "--config", str(bound), *args[1:]])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == expected
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
        assert captured.err == ("config error: output.seed: out of range "
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


def test_commands_leave_numpy_random_unloaded(tmp_path):
    # Importing numpy.random costs about 6 MiB of resident memory, and
    # neither the engine nor the oracle suite draws from it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = (
        "import sys\n"
        "from sfn_lsi_sim.cli import main\n"
        f"assert main(['oracle', '--config', {SMOKE!r}]) == 0\n"
        f"assert main(['run', '--config', {SMOKE!r}, '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "False"


def test_validate_loads_no_engine():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script = (
        "import sys\n"
        "from sfn_lsi_sim.cli import main\n"
        f"assert main(['validate', '--config', {SMOKE!r}]) == 0\n"
        "print('sfn_lsi_sim.sinr' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("signum,code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
                         ids=["SIGINT", "SIGTERM"])
def test_signal_during_a_run_keeps_the_previous_output(tmp_path, capsys, signum, code):
    # Stop a run once its staging directory appears: the previous output
    # must stay as it was, no staging directory may be left, and the child
    # must exit with 128 + the signal's number after one line on stderr.
    out = tmp_path / "run"
    assert main(["run", "--config", TABLE, "--resolution", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    previous = {p.name: p.read_bytes() for p in out.iterdir()}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # A shell's background job starts with SIGINT ignored, and Python then
    # installs no SIGINT handler: give the child the default disposition.
    child = subprocess.Popen(
        [sys.executable, "-m", "sfn_lsi_sim.cli", "run", "--config", TABLE,
         "--resolution", "200", "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        while not list(tmp_path.glob(".run.*.partial")):
            assert child.poll() is None, "the run ended before it was signalled"
            time.sleep(0.002)
        # Into the scan, past the staging directory's creation.
        time.sleep(0.1)
        child.send_signal(signum)
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, err) == (code, f"stopped by {signal.Signals(signum).name}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == previous


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
