"""End-to-end and per-layer benchmark for the sfn-lsi-sim package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Every program run is a fresh child
process of the package CLI (``python -m sfn_lsi_sim.cli`` with ``src`` on
the path), one at a time, with at most two threads.  Workloads:

* ``paper_r100``      the paper's 8x10 experiment at resolution 100, one thread;
* ``sweep_hata_maps`` a generated 6x12 Hata grid, M=5, twelve schemes with
  beta values drawn from the seed, SINR rasters on, two threads;
* ``oracle_suite``    ``sfn-lsi-sim oracle`` with the config seed set to --seed.

With ``--trace 0`` the benchmark times repeated runs of the workload for
--seconds and prints the end-to-end metrics (see ``measure_end_to_end``).
With ``--trace 1`` it alternates untraced and traced runs of the workload
in ``trace_run.py`` instead and prints per-layer metrics derived from the
traced runs' spans (see ``measure_per_layer``); they are the workload's
own, so a layer the workload does not use reads 0.  Either way it checks
every output, and each invocation also runs a reference gate: the paper
config at resolution 20 must reproduce the committed ``out/final``
(digests in ``reference.json``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PAPER_CFG = Path("configs") / "paper_table1.cfg"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
TRACE_RUN = HERE / "trace_run.py"

WORKLOADS = ("paper_r100", "sweep_hata_maps", "oracle_suite")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 120.0
ORACLE_TOLERANCE = 1e-9

# Point-content SINR values one oracle suite computes: 6 grid shapes x
# M in {2, 3} x 2 path-loss models x 9 schemes x 50 points x M contents.
ORACLE_EVALS = 6 * 2 * 9 * 50 * (2 + 3)

SUMMARY_FORMAT = "sfn-lsi-sim/summary-v1"


# ---- child processes ------------------------------------------------------

@dataclass(frozen=True)
class ProgramRun:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SFN_LSI_THREADS"] = str(threads)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_program(args: list[str], threads: int, log: Path) -> ProgramRun:
    """Run ``python <args>`` from the tree root and wait for it.

    Wall time spans process start to reap; CPU time and peak RSS come from
    the child's own rusage (``wait4``), so other children never mix in.
    """
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(threads),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return ProgramRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, text)


def cli_args(argv: list[str]) -> list[str]:
    return ["-m", "sfn_lsi_sim.cli", *argv]


# ---- output checks ---------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(out_dir: Path, digests: dict[str, str],
                  manifest_dir: str | None = None) -> list[str]:
    """Every file in ``digests`` present, nothing else, and byte-equal.

    The manifest is skipped, or, with ``manifest_dir``, compared after its
    ``output.dir`` is set to that value.
    """
    problems = _file_set_problems(out_dir, set(digests))
    for name, expected in sorted(digests.items()):
        path = out_dir / name
        if not path.is_file():
            continue
        if name == "manifest.json":
            if manifest_dir is None:
                continue
            document = json.loads(path.read_text(encoding="utf-8"))
            document["config"]["output"]["dir"] = manifest_dir
            data = (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()
            got = hashlib.sha256(data).hexdigest()
        else:
            got = sha256(path)
        if got != expected:
            problems.append(f"{name}: sha256 {got[:12]} != reference {expected[:12]}")
    return problems


def tree_digest(out_dir: Path) -> str:
    """One sha256 over every artifact except the manifest, by sorted name."""
    lines = [f"{p.name}\0{sha256(p)}\n" for p in sorted(out_dir.iterdir())
             if p.name != "manifest.json"]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _file_set_problems(out_dir: Path, expected: set[str]) -> list[str]:
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = [f"missing {name}" for name in sorted(expected - present)]
    problems += [f"unexpected {name}" for name in sorted(present - expected)]
    return problems


def scheme_label(entry: str) -> str:
    """Output label of a ``[schemes] list`` entry (olsi, reuse1, ps:b, imo:b)."""
    kind, _, beta = entry.partition(":")
    return f"{kind}_beta{float(beta):g}" if beta else kind


def expected_files(labels: list[str], m_count: int, sinr_maps: bool) -> set[str]:
    names = {"manifest.json", "coverage.csv", "spectral_efficiency.json", "summary.json"}
    for label in labels:
        names |= {f"content_counts_{label}.json", f"content_counts_{label}.pgm"}
        if sinr_maps:
            for m in range(1, m_count + 1):
                names |= {f"sinr_{label}_content{m}.pgm",
                          f"sinr_{label}_content{m}.pgm.hdr.txt"}
    return names


def check_well_formed(out_dir: Path, labels: list[str], m_count: int,
                      resolution: int, sinr_maps: bool) -> list[str]:
    """Check used where no digests are recorded: file set and summary shape."""
    problems = _file_set_problems(out_dir, expected_files(labels, m_count, sinr_maps))
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    if summary.get("format") != SUMMARY_FORMAT or summary.get("resolution") != resolution:
        problems.append("summary.json: wrong format or resolution")
    for key in ("coverage_pct", "content_maps"):
        if sorted(summary.get(key, {})) != sorted(labels):
            problems.append(f"summary.json: {key} does not list every scheme")
    for label, doc in summary.get("content_maps", {}).items():
        total = sum(doc.get("histogram_pct", {}).values())
        if abs(total - 100.0) > 1e-3:
            problems.append(f"summary.json: {label} histogram sums to {total}")
    return problems


def check_oracle(run: ProgramRun) -> list[str]:
    found = re.search(r"max relative error = (\S+)", run.output)
    if found is None:
        return [f"no max relative error in output {run.output[-200:]!r}"]
    if not float(found.group(1)) <= ORACLE_TOLERANCE:
        return [f"oracle max relative error {found.group(1)} > {ORACLE_TOLERANCE}"]
    return []


# ---- workloads -------------------------------------------------------------

@dataclass
class Step:
    """One CLI run and the check of its outputs."""

    name: str
    argv: list[str]  # arguments of sfn-lsi-sim
    threads: int
    out_dir: Path | None
    check: Callable[[ProgramRun], list[str]]

    def prepare(self) -> None:
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def checked(self, run: ProgramRun) -> list[str]:
        if run.returncode != 0:
            return [f"{self.name}: exit {run.returncode}: {run.output[-300:]!r}"]
        return [f"{self.name}: {p}" for p in self.check(run)]


@dataclass
class Workload:
    name: str
    config: Path
    threads: int
    body: Step
    evals_per_run: int
    gate: Step


def _paper_config(seed: int, path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ROOT / PAPER_CFG, encoding="utf-8")
    parser["output"]["seed"] = str(seed)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return parser


def _lattice_evals(parser: configparser.ConfigParser, resolution: int) -> int:
    """SINR values per run: (A1 + A2 lattice points) x M x schemes."""
    rows, cols, lsa1 = (int(parser["grid"][k]) for k in ("rows", "cols", "lsa1_cols"))
    points = rows * (lsa1 + cols) * resolution ** 2
    m_count = int(parser["contents"]["count"])
    n_schemes = len(parser["schemes"]["list"].split(","))
    return points * m_count * n_schemes


def sweep_config_text(seed: int, resolution: int) -> str:
    rng = random.Random(seed)
    betas = [k / 20 for k in range(20)]
    ps = sorted(rng.sample(betas, 5))
    imo = sorted(rng.sample(betas, 5))
    schemes = ", ".join(["olsi", "reuse1"] + [f"ps:{b:g}" for b in ps]
                        + [f"imo:{b:g}" for b in imo])
    return f"""\
[grid]
rows = 6
cols = 12
isd_m = 1200
lsa1_cols = 6
buffer_cols_per_side = 2

[contents]
count = 5
bandwidth_hz = 2.4e6
subcarriers = 1200
mod_order = 256 64 64 16 16
t_sym_s = 1e-3
power_w = 2 1 1 0.5 0.5
power_prime_w = 2 0.5 1 1 0.5

[propagation]
model = hata
f_mhz = 600
hb_m = 50
hm_m = 1.5

[radio]
n0_w_per_hz = 4e-19

[schemes]
list = {schemes}
imo_buffer_reallocation = global

[eval]
resolution = {resolution}
thresholds_db = 0 5 10 15 20 25
coverage_area = a1
map_area = a2
content_map_threshold_db = 10

[output]
dir = out/sweep
emit_sinr_maps = true
seed = {seed}
"""


def build_workload(name: str, seed: int, small: bool, reference: dict) -> Workload:
    """Write the workload's inputs under WORK and describe its runs.

    ``small`` shrinks the lattices (paper resolution 10, sweep 8) for the
    benchmark's self-test; the oracle suite has no size to shrink.
    """
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    body_out = work / "body"
    config = work / "input.cfg"

    if name == "paper_r100":
        parser = _paper_config(seed, config)
        resolution = 10 if small else 100
        digests = reference[f"paper_r{resolution}"]
        body = Step("body", ["run", "--config", str(config), "--resolution",
                              str(resolution), "--out", str(body_out)],
                    1, body_out, lambda run: check_digests(body_out, digests))
        evals = _lattice_evals(parser, resolution)
    elif name == "sweep_hata_maps":
        resolution = 8 if small else 40
        config.write_text(sweep_config_text(seed, resolution), encoding="utf-8")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config, encoding="utf-8")
        entries = [e.strip() for e in parser["schemes"]["list"].split(",")]
        labels = [scheme_label(e) for e in entries]
        m_count = int(parser["contents"]["count"])
        digest = reference["sweep_hata_maps"].get(f"r{resolution}", {}).get(str(seed))

        def check(run: ProgramRun) -> list[str]:
            problems = check_well_formed(body_out, labels, m_count, resolution,
                                         sinr_maps=True)
            if not problems and digest is not None and tree_digest(body_out) != digest:
                problems.append(f"artifacts differ from the reference for seed {seed}")
            return problems

        body = Step("body", ["run", "--config", str(config), "--out", str(body_out)],
                    2, body_out, check)
        evals = _lattice_evals(parser, resolution)
    elif name == "oracle_suite":
        _paper_config(seed, config)
        body = Step("body", ["oracle", "--config", str(config)], 1, None,
                    check_oracle)
        evals = ORACLE_EVALS
    else:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    ref_out = work / "ref_r20"
    gate = Step("ref_r20", ["run", "--config", str(PAPER_CFG), "--resolution", "20",
                            "--out", str(ref_out)],
                1, ref_out,
                lambda run: check_digests(ref_out, reference["out_final"],
                                          manifest_dir="out/final"))
    return Workload(name, config, body.threads, body, evals, gate)


# ---- measurement -----------------------------------------------------------

@dataclass
class Tally:
    """Checked operations: every program run or traced step counts once."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_step(step: Step, tally: Tally, log: Path) -> ProgramRun:
    step.prepare()
    run = run_program(cli_args(step.argv), step.threads, log)
    tally.record(step.checked(run))
    return run


def repeat_for(seconds: float, once: Callable[[], float]) -> None:
    """Call ``once`` (which returns its duration) until the next call would
    likely end after ``seconds``; always at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(once())
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure_end_to_end(wl: Workload, seconds: float, tally: Tally) -> dict:
    """Time the workload body for ``seconds``, one child at a time.

    Every time is the median over the window's runs.  Set-up runs are
    interleaved with the body runs so that, on a shared host whose CPU
    throughput moves in phases of tens of seconds, their median spans the
    same phases.
    """
    log = WORK / wl.name / "child.log"
    validate = Step("validate", ["validate", "--config", str(wl.config)],
                    wl.threads, None,
                    lambda run: [] if run.output.startswith("config ok") else
                    [f"unexpected output {run.output[:200]!r}"])
    run_program(validate.argv, validate.threads, log)  # warm the bytecode cache
    setup = [run_step(validate, tally, log).wall_s for _ in range(SETUP_REPS)]
    runs: list[ProgramRun] = []

    def once() -> float:
        start = time.perf_counter()
        setup.append(run_step(validate, tally, log).wall_s)
        runs.append(run_step(wl.body, tally, log))
        return time.perf_counter() - start

    repeat_for(seconds, once)
    run_step(wl.gate, tally, log)

    walls = [r.wall_s for r in runs]
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s", f"median of {len(runs)} runs, fastest {min(walls):.6g} s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s", "user+sys, median"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MiB",
                        "child ru_maxrss, median"),
        "setup_s": (statistics.median(setup), "s", f"validate, median of {len(setup)}"),
        "sinr_evals_per_s": (wl.evals_per_run / wall, "1/s",
                             f"{wl.evals_per_run} per run / wall_s"),
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals, so
    children running concurrently on two threads are not subtracted twice."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def shares(spans: list[list], own: list[float]) -> dict[str, float]:
    """Self time per span name as a share of the root ``cli.main`` span."""
    root = next(s for s in spans if s[0] == "cli.main" and s[3] < 0)
    duration = root[2] - root[1]
    out: dict[str, float] = {}
    for (name, *_), own_s in zip(spans, own):
        out[name] = out.get(name, 0.0) + own_s / duration
    return out


COUNT_METRICS = (
    ("propagation.gain_evals", "count"),
    ("sinr.gain_cache_mb", "MiB"),
    ("sinr.field_points", "count"),
    ("sinr.field_bytes_read_mb", "MiB"),
    ("runner.bytes_written_mb", "MiB"),
    ("oracle.cases", "count"),
    ("grid.points", "count"),
)

SELF_METRICS = ("sinr.gains_for", "sinr.field", "runner.emit_heatmap",
                "runner.run_experiment", "sinr.sinr_at", "oracle.oracle_sinr",
                "allocation.allocate", "metrics.coverage", "metrics.content_count_map",
                "metrics.se")
TOTAL_METRICS = (("propagation.gain_s", "propagation.gain"),
                 ("config.parse_s", "config.parse_config"),
                 ("grid.sample_points_s", "grid.sample_points"))
CALL_METRICS = ("sinr.field", "sinr.sinr_at", "allocation.allocate")
# Spans whose self time is not attributed to a layer: the entry point and
# the orchestrators, whose own code is what the named layers leave over.
UNATTRIBUTED = ("cli.main", "runner.run_experiment", "oracle.run_oracle_suite")


def layer_metrics(document: dict) -> dict[str, tuple[float, str]]:
    spans = document["spans"]
    own = self_times(spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), own_s in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + own_s
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    counts = document["counts"]
    out: dict[str, tuple[float, str]] = {}
    for metric, name in TOTAL_METRICS:
        out[metric] = (total_s.get(name, 0.0), "s")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, unit in COUNT_METRICS:
        out[name] = (counts.get(name, 0), unit)
    share = shares(spans, own)
    out["trace.attributed_frac"] = (
        1.0 - sum(share.get(name, 0.0) for name in UNATTRIBUTED), "frac")
    return out


def measure_per_layer(wl: Workload, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced in-process runs of the workload body
    for ``seconds``.  Times are medians over the traced runs; counts must
    repeat exactly, and every layer entry point must be found."""
    work = WORK / wl.name
    log = work / "child.log"
    walls: dict[int, list[float]] = {0: [], 1: []}
    traced: list[dict] = []

    def once(trace: int) -> float:
        result = work / f"trace{trace}.json"
        wl.body.prepare()
        result.unlink(missing_ok=True)
        run = run_program([str(TRACE_RUN), str(result), "--trace", str(trace), "--",
                           *wl.body.argv], wl.threads, log)
        if run.returncode != 0 or not result.is_file():
            tally.record([f"trace_run exit {run.returncode}: {run.output[-300:]!r}"])
            return run.wall_s
        document = json.loads(result.read_text(encoding="utf-8"))
        tally.record(wl.body.checked(
            ProgramRun(document["returncode"], 0.0, 0.0, 0.0, document["stdout"])))
        if trace:
            tally.record([f"layer entry point not found: {name}"
                          for name in document["missing"]])
            traced.append(document)
            shutil.copyfile(result, work / "spans.json")
        walls[trace].append(document["wall_s"])
        return run.wall_s

    repeat_for(seconds, lambda: once(0) + once(1))
    run_step(wl.gate, tally, log)
    if not traced or not walls[0]:
        raise SystemExit("no successful traced run")
    if any(doc["counts"] != traced[0]["counts"] for doc in traced):
        tally.record(["exact counts differ between traced runs"])
    per_run = [layer_metrics(doc) for doc in traced]
    metrics = {name: (statistics.median(m[name][0] for m in per_run)
                      if unit in ("s", "frac") else value, unit, "")
               for name, (value, unit) in per_run[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0, "frac",
        f"traced vs untraced body time, {len(walls[1])} pairs")
    spans = traced[-1]["spans"]
    print("self time by span, share of the run (last traced run):")
    for name, share in sorted(shares(spans, self_times(spans)).items(),
                              key=lambda item: -item[1])[:8]:
        print(f"  {name:28} {share:.3f}")
    return metrics


# ---- entry point -----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sfn-lsi-sim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced lattices, for the benchmark's self-test")
    args = parser.parse_args(argv)

    needed = [SRC / "sfn_lsi_sim" / "cli.py", ROOT / PAPER_CFG, REFERENCE]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"benchmark: not a sfn-lsi-sim source tree, missing {absent}",
              file=sys.stderr)
        return 2

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    wl = build_workload(args.workload, args.seed, args.small, reference)
    tally = Tally()
    if args.trace:
        metrics = measure_per_layer(wl, args.seconds, tally)
    else:
        metrics = measure_end_to_end(wl, args.seconds, tally)
        metrics["success_frac"] = (1.0 - tally.failed / tally.attempted, "frac",
                                   f"failed_frac = {tally.failed / tally.attempted:g}, "
                                   f"{tally.failed} of {tally.attempted} failed")

    for problem in tally.problems:
        print(f"check failed: {problem}")
    for name, (value, unit, note) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{wl.name} {name} = {shown} {unit}" + (f"  ({note})" if note else ""))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
