"""Command-line interface.

Subcommands:

* ``run``      execute a config and write all artifacts
* ``validate`` parse and validate a config, reporting every problem
* ``se``       print scheme spectral efficiencies and exact ratios
* ``oracle``   compare the engine against brute-force SINR on small grids

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error,
130 on SIGINT and 143 on SIGTERM.  Both signals unwind the same way, so a
stopped run removes its staging directory and prints one line.

Each handler imports the modules only it runs, so ``validate`` loads no
engine and ``oracle`` no artifact writer.
"""

from __future__ import annotations

import argparse
import signal
import sys

from sfn_lsi_sim.config import apply_overrides, parse_config
from sfn_lsi_sim.errors import ConfigValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfn-lsi-sim",
        description="Coverage and spectral-efficiency simulator for local "
                    "service insertion in single frequency networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True, help="INI config or JSON manifest")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--scheme", help="run a single scheme: olsi|reuse1|ps|imo")
    run.add_argument("--beta", type=float, help="buffer power ratio for --scheme")
    run.add_argument("--resolution", type=int, help="override samples per cell edge")

    validate = sub.add_parser("validate", help="check a config and exit")
    validate.add_argument("--config", required=True)

    se = sub.add_parser("se", help="print spectral efficiencies and ratios")
    se.add_argument("--config", required=True)

    oracle = sub.add_parser("oracle", help="brute-force SINR cross-check")
    oracle.add_argument("--config", required=True)
    return parser


def _cmd_run(args) -> int:
    from sfn_lsi_sim.runner import run_experiment

    cfg = apply_overrides(
        parse_config(args.config),
        out_dir=args.out,
        scheme=args.scheme,
        beta=args.beta,
        resolution=args.resolution,
    )
    result = run_experiment(cfg)
    for name in result.files:
        print(name)
    print(f"wrote {len(result.files)} files to {result.out_dir}")
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    labels = ", ".join(s.label for s in cfg.schemes)
    print(
        f"config ok: grid {cfg.grid.rows}x{cfg.grid.cols}, "
        f"M={cfg.plan.m_count}, schemes: {labels}"
    )
    return 0


def _cmd_se(args) -> int:
    from sfn_lsi_sim.metrics import se_report
    from sfn_lsi_sim.runner import fmt9

    cfg = parse_config(args.config)
    report = se_report(cfg.grid, cfg.plan)
    print(f"xi_olsi = {fmt9(report.xi_olsi)} bits/s/Hz")
    print(f"xi_ps   = {fmt9(report.xi_ps)} bits/s/Hz")
    print(f"xi_imo  = {fmt9(report.xi_imo)} bits/s/Hz")
    print(f"olsi/ps  = {report.ratio_olsi_ps} = {fmt9(float(report.ratio_olsi_ps))}")
    print(f"olsi/imo = {report.ratio_olsi_imo} = {fmt9(float(report.ratio_olsi_imo))}")
    print(f"ps/imo   = {report.ratio_ps_imo} = {fmt9(float(report.ratio_ps_imo))}")
    return 0


def _cmd_oracle(args) -> int:
    from sfn_lsi_sim.oracle import run_oracle_suite

    cfg = parse_config(args.config)
    cases = run_oracle_suite(seed=cfg.seed or 20260814)
    worst = max(cases, key=lambda c: c.max_rel_err)
    print(f"oracle: {len(cases)} cases, max relative error = {worst.max_rel_err:.3e}")
    print(
        f"worst case: grid {worst.rows}x{worst.cols} (lsa1={worst.lsa1_cols}), "
        f"M={worst.m_count}, scheme {worst.scheme}, model {worst.model}"
    )
    if not all(case.ok for case in cases):
        print("oracle mismatch: engine disagrees with brute-force reference",
              file=sys.stderr)
        return 2
    return 0


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised where the main thread is, as SIGINT raises its
    ``KeyboardInterrupt``."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "se": _cmd_se,
        "oracle": _cmd_oracle,
    }
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return handlers[args.command](args)
    except ConfigValidationError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        name, code = ("SIGTERM", 143) if isinstance(exc, _Terminated) else ("SIGINT", 130)
        print(f"stopped by {name}", file=sys.stderr)
        return code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
