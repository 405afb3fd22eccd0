"""Run one sfn-lsi-sim CLI command in this process, optionally recording layer spans.

    python3 perfbench/trace_run.py RESULT_JSON --trace 0|1 -- CLI_ARGS...

Calls ``sfn_lsi_sim.cli.main(CLI_ARGS)`` once.  RESULT_JSON receives its
exit code, captured standard output and wall time, and with ``--trace 1``
every span and count recorded and the layer entry points that were not
found (``missing``).

Spans are recorded around the public layer functions listed in ``LAYERS``,
from this file: the package source is not modified.  Each span is
``[name, start, end, parent, thread]`` with ``parent`` the index of the
enclosing span, or -1; the ``cli.main`` span encloses all others.  A span
that starts on a worker thread with no open span of its own is parented to
the innermost open span of the main thread, which is the one that handed
the work out.  Spans stay in memory until the command has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import threading
import time
import weakref
from collections import Counter

MIB = float(1 << 20)


class Tracer:
    """In-memory span recorder and exact work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()

    def add(self, key: str, amount: float) -> None:
        with self._count_lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(tracer, args, result)``
        runs after the span closes, so counting is not charged to the layer."""
        spans = self.spans
        main_thread = self._main_thread
        main_stack = self._main_stack
        local = self._local
        get_ident = threading.get_ident
        clock = time.perf_counter

        def traced(*args, **kwargs):
            thread = get_ident()
            if thread == main_thread:
                stack = main_stack
            else:
                stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            record = [name, 0.0, 0.0, parent, thread]
            spans.append(record)
            stack.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def export(self) -> list[list]:
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)], thread]
            for name, start, end, parent, thread in self.spans
        ]


# ---- exact counters -------------------------------------------------------

def _count_gain(tracer, args, result):
    # Elements passed to the gain kernel: one per tower-to-point distance.
    tracer.add("propagation.gain_evals", int(getattr(args[1], "size", 1)))


def _count_points(tracer, args, result):
    tracer.add("grid.points", len(result))


class _DistinctArrays:
    """Sums nbytes of the distinct arrays returned by the gain cache."""

    def __init__(self):
        self.seen: list[weakref.ref] = []

    def __call__(self, tracer, args, result):
        if any(ref() is result for ref in self.seen):
            return
        self.seen.append(weakref.ref(result))
        tracer.add("sinr.gain_cache_mb", result.nbytes / MIB)


def _count_field(tracer, args, result):
    # Computed bytes: each field reads one float64 gain row per cell over
    # every lattice point of the area.
    spec = args[0].grid.spec
    points = int(result.values.size)
    tracer.add("sinr.field_points", points)
    tracer.add("sinr.field_bytes_read_mb", spec.rows * spec.cols * points * 8 / MIB)


def _count_written(tracer, args, result):
    total = sum(os.path.getsize(os.path.join(result.out_dir, name))
                for name in result.files)
    tracer.add("runner.bytes_written_mb", total / MIB)


def _count_cases(tracer, args, result):
    tracer.add("oracle.cases", len(result))


# (span name, module, attribute path, counter factory or None).  One entry
# per layer entry point; one absent from the package is reported in
# ``missing``, and the benchmark counts it as a failed check.
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("config.parse_config", "config", "parse_config", None),
    ("grid.sample_points", "grid", "sample_points", lambda: _count_points),
    ("propagation.gain", "propagation", "gain", lambda: _count_gain),
    ("allocation.allocate", "allocation", "allocate", None),
    ("sinr.gains_for", "sinr", "SinrEvaluator.gains_for", _DistinctArrays),
    ("sinr.field", "sinr", "SinrEvaluator.field", lambda: _count_field),
    ("sinr.sinr_at", "sinr", "sinr_at", None),
    ("metrics.coverage", "metrics", "coverage", None),
    ("metrics.content_count_map", "metrics", "content_count_map", None),
    ("metrics.se", "metrics", "se_report", None),
    ("metrics.se", "metrics", "spectral_efficiency_from_plan", None),
    ("oracle.oracle_sinr", "oracle", "oracle_sinr", None),
    ("oracle.run_oracle_suite", "oracle", "run_oracle_suite", lambda: _count_cases),
    ("runner.run_experiment", "runner", "run_experiment", lambda: _count_written),
    ("runner.emit_heatmap", "runner", "emit_heatmap", None),
)

PACKAGE = "sfn_lsi_sim"


def install(tracer: Tracer) -> list[str]:
    """Wrap every function in LAYERS wherever the package refers to it.

    ``from module import name`` copies the function into the importing
    module, so each package module namespace holding the original object is
    patched too.  Returns the entries that could not be found.
    """
    modules = [importlib.import_module(f"{PACKAGE}.{name}")
               for name in ("cli", "config", "grid", "propagation", "allocation",
                            "sinr", "metrics", "oracle", "runner")]
    missing = []
    for span_name, module_name, path, counter in LAYERS:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(span_name, original, counter() if counter else None)
        setattr(owner, attr, wrapped)
        if not outer:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    tracer = Tracer()
    missing = install(tracer) if args.trace else []
    from sfn_lsi_sim import cli  # after install, so cli.main is the wrapped one

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(cli_args)
    document = {"returncode": code, "stdout": captured.getvalue(),
                "wall_s": time.perf_counter() - start, "missing": missing}
    if args.trace:
        document["spans"] = tracer.export()
        document["counts"] = dict(tracer.counts)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
