"""Calibration scan for configs/paper_table1.cfg.

Sweeps path-loss slope and per-content SNR scale, evaluating the five
coverage-table rows (over the config's coverage area) and the content-map
quantifications (over its map area) against their targets, and prints the
feasible region.  Local-content coverage depends only on the slope and the
ratio rho = S_m*g(1km)/(N0*B_m), so the sweep is two-dimensional.

The scan evaluates the shipped config through the engine's public API: one
``SinrEvaluator`` per slope, every content's power set to rho*N0*B/g(1km),
rows from ``metrics.coverage`` and map stats from
``metrics.content_count_map``.

Run:  python3 scripts/calibrate_table1.py [--resolution N] [--slopes S ...]
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from sfn_lsi_sim.allocation import allocate
from sfn_lsi_sim.config import apply_overrides, parse_config
from sfn_lsi_sim.grid import Grid
from sfn_lsi_sim.metrics import content_count_map, coverage
from sfn_lsi_sim.propagation import PathLossKind, gain
from sfn_lsi_sim.sinr import RadioEnv, SinrEvaluator

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "paper_table1.cfg"
SCHEMES = {"reuse1": "reuse1", "ps025": "ps_beta0.25", "imo1": "imo_beta1"}
"""Scan name -> label of the config scheme it evaluates."""
TABLE_THRESHOLDS_DB = (15.0, 20.0)
TARGETS = {  # row -> (pct at 15 dB, pct at 20 dB)
    "imo_c2": (93.5, 60.1),
    "imo_c3": (64.8, 32.4),
    "imo_avg": (79.2, 46.3),
    "ps025": (74.5, 46.6),
    "reuse1": (74.3, 35.7),
}
MAP_TARGETS = {"imo_count3": 65.5, "imo_at_least2": 94.2, "ps_count3": 74.9}


def order_ok(rows: dict[str, float], targets: dict[str, float]) -> bool:
    names = list(targets)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if targets[a] == targets[b]:
                continue
            if (rows[a] - rows[b]) * (targets[a] - targets[b]) <= 0:
                return False
    return True


def evaluate(cfg, evaluator: SinrEvaluator, rho: float, g1km: float):
    """rho: S_m*g(1km)/(N0*B). Returns (table rows, map stats)."""
    plan = cfg.plan
    powers = tuple(rho * cfg.n0 * plan.bandwidth_of(m) / g1km for m in plan.content_ids)
    plan = replace(plan, base_power=powers, base_power_prime=powers)
    schemes = {s.label: s for s in cfg.schemes}
    plans = {name: allocate(evaluator.grid, plan, schemes[label])
             for name, label in SCHEMES.items()}

    def pct(scheme, m):
        field = evaluator.field(cfg.coverage_area(), m, plans[scheme], plan)
        return [100.0 * f for f in coverage(field, TABLE_THRESHOLDS_DB).fractions]

    cov = {(scheme, m): pct(scheme, m) for scheme in SCHEMES for m in (2, 3)}
    rows = {}
    for t_i in range(len(TABLE_THRESHOLDS_DB)):
        rows[t_i] = {
            "imo_c2": cov["imo1", 2][t_i],
            "imo_c3": cov["imo1", 3][t_i],
            "ps025": 0.5 * (cov["ps025", 2][t_i] + cov["ps025", 3][t_i]),
            "reuse1": 0.5 * (cov["reuse1", 2][t_i] + cov["reuse1", 3][t_i]),
        }
        rows[t_i]["imo_avg"] = 0.5 * (rows[t_i]["imo_c2"] + rows[t_i]["imo_c3"])

    tau = cfg.content_map_threshold_db
    maps = {}
    for scheme, key in (("imo1", "imo"), ("ps025", "ps")):
        fields = [evaluator.field(cfg.map_area(), m, plans[scheme], plan)
                  for m in plan.content_ids]
        cmap = content_count_map(fields, tau)
        maps[f"{key}_count3"] = 100.0 * cmap.fraction_with_count(3)
        maps[f"{key}_at_least2"] = 100.0 * cmap.fraction_at_least(2)
        maps[f"{key}_global"] = 100.0 * coverage(fields[0], (tau,)).fractions[0]
        maps[f"{key}_count2"] = 100.0 * cmap.fraction_with_count(2)
    return rows, maps


def map_band(maps: dict[str, float]) -> bool:
    return (
        all(abs(maps[k] - target) <= 5.0 for k, target in MAP_TARGETS.items())
        and maps["ps_count3"] > maps["imo_count3"]
        and maps["imo_global"] == 100.0
        and maps["ps_global"] == 100.0
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=int, default=10)
    ap.add_argument("--slopes", type=float, nargs="*",
                    default=[3.0, 3.25, 3.522, 3.75, 4.0])
    args = ap.parse_args()
    cfg = apply_overrides(parse_config(str(CONFIG)), resolution=args.resolution)
    grid = Grid.from_spec(cfg.grid)

    for slope in args.slopes:
        if abs(slope - 3.522) < 1e-3:
            model = replace(cfg.pathloss, kind=PathLossKind.HATA)  # slope 3.5216/decade
        else:
            model = replace(cfg.pathloss, kind=PathLossKind.POWER_LAW, eta=slope)
        g1km = gain(model, 1000.0)
        evaluator = SinrEvaluator(grid, RadioEnv(n0=cfg.n0, pathloss=model))
        print(f"\n=== slope {slope} (model {model.kind.value}) ===")
        best = None
        for rho_db in np.arange(5.0, 55.1, 0.5):
            rows, maps = evaluate(cfg, evaluator, 10 ** (rho_db / 10.0), g1km)
            t15 = {k: rows[0][k] for k in TARGETS}
            t20 = {k: rows[1][k] for k in TARGETS}
            band15 = all(abs(t15[k] - TARGETS[k][0]) <= 5.0 for k in TARGETS)
            band20 = all(abs(t20[k] - TARGETS[k][1]) <= 5.0 for k in TARGETS)
            ord15 = order_ok(t15, {k: v[0] for k, v in TARGETS.items()})
            ord20 = order_ok(t20, {k: v[1] for k, v in TARGETS.items()})
            maps_ok = map_band(maps)
            score = sum(
                abs(t15[k] - TARGETS[k][0]) + abs(t20[k] - TARGETS[k][1])
                for k in TARGETS
            )
            flags = f"band15={band15} band20={band20} ord15={ord15} ord20={ord20} maps={maps_ok}"
            if band15 and band20 and ord15 and ord20 and maps_ok:
                print(f"rho={rho_db:5.1f} dB  FEASIBLE  score={score:6.2f}  {flags}")
                if best is None or score < best[1]:
                    best = (rho_db, score, t15, t20, maps)
            elif ord15 and ord20:
                print(f"rho={rho_db:5.1f} dB  orders-ok score={score:6.2f}  {flags}")
        if best:
            rho_db, score, t15, t20, maps = best
            print(f"BEST rho={rho_db} score={score:.2f}")
            for k in TARGETS:
                print(f"  {k:8s} 15dB {t15[k]:5.1f} (target {TARGETS[k][0]})   "
                      f"20dB {t20[k]:5.1f} (target {TARGETS[k][1]})")
            for k, v in maps.items():
                print(f"  {k:15s} {v:6.2f}")


if __name__ == "__main__":
    main()
