"""Calibration scan for configs/paper_table1.cfg.

Sweeps path-loss slope and per-content SNR scale, evaluating the five
coverage-table rows (over A1) and the content-map quantifications (over A2)
against their targets, and prints the feasible region.  Local-content
coverage depends only on the slope and the ratio rho = S_m*g(1km)/(N0*B_m),
so the sweep is two-dimensional.

Run from the repo root:  python3 scripts/calibrate_table1.py [--resolution N]
"""

from __future__ import annotations

import argparse

import numpy as np

from sfn_lsi_sim.allocation import ContentPlan, SchemeConfig, SchemeKind, allocate
from sfn_lsi_sim.grid import AreaKind, EvalArea, Grid, GridSpec, lattice_axes, lsa1_of_x
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel, gain
from sfn_lsi_sim.sinr import RadioEnv, SinrEvaluator, _terms

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


def build_sums(model: PathLossModel, resolution: int):
    """own/other linear sums (unit S_m) per scheme, content, area, as
    (ny, nx) lattice images; the global content's other is 0."""
    spec = GridSpec()
    grid = Grid.from_spec(spec)
    plan = ContentPlan.equal_split(3, 3.0, 3 * 2.4e6)
    env = RadioEnv(n0=1.0, pathloss=model)  # gains do not depend on n0
    ev = SinrEvaluator(grid, env)
    schemes = {
        "reuse1": SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0, label="reuse1"),
        "ps025": SchemeConfig(SchemeKind.IMLSI_PS, beta=0.25),
        "imo1": SchemeConfig(SchemeKind.IMLSI_O, beta=1.0),
    }
    sums = {}
    for area_name, kind in (("a1", AreaKind.A1), ("a2", AreaKind.A2)):
        area = EvalArea(kind=kind, resolution=resolution)
        xs, ys = lattice_axes(area, spec)
        g = ev.gains_for(area).reshape(4, ys.size, xs.size)
        for sname, scfg in schemes.items():
            tp = allocate(grid, plan, scfg)
            for m in (1, 2, 3):
                key = ev.field_key(m, tp, plan)
                sums[(area_name, sname, m)] = _terms(g, lsa1_of_x(xs, spec), key)
    return sums


def evaluate(sums, rho: float, g1km: float):
    """rho: S_m*g(1km)/(N0*B). Returns (table rows, map stats)."""
    scale = rho / g1km  # multiply unit-gain sums by this, noise becomes 1

    def lin(area, scheme, m):
        own, other = sums[(area, scheme, m)]
        return scale * own / (scale * other + 1.0)

    def pct(area, scheme, m, t_db):
        return 100.0 * np.mean(lin(area, scheme, m) >= 10 ** (t_db / 10.0))

    rows = {}
    for t_i, t in enumerate((15.0, 20.0)):
        rows[t_i] = {
            "imo_c2": pct("a1", "imo1", 2, t),
            "imo_c3": pct("a1", "imo1", 3, t),
            "ps025": 0.5 * (pct("a1", "ps025", 2, t) + pct("a1", "ps025", 3, t)),
            "reuse1": 0.5 * (pct("a1", "reuse1", 2, t) + pct("a1", "reuse1", 3, t)),
        }
        rows[t_i]["imo_avg"] = 0.5 * (rows[t_i]["imo_c2"] + rows[t_i]["imo_c3"])

    tau = 10 ** (15.0 / 10.0)
    maps = {}
    for scheme, key in (("imo1", "imo"), ("ps025", "ps")):
        ok = [lin("a2", scheme, m) >= tau for m in (1, 2, 3)]
        count = sum(o.astype(int) for o in ok)
        maps[f"{key}_count3"] = 100.0 * np.mean(count == 3)
        maps[f"{key}_at_least2"] = 100.0 * np.mean(count >= 2)
        maps[f"{key}_global"] = 100.0 * np.mean(ok[0])
        maps[f"{key}_count2"] = 100.0 * np.mean(count == 2)
    return rows, maps


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=int, default=10)
    ap.add_argument("--slopes", type=float, nargs="*",
                    default=[3.0, 3.25, 3.522, 3.75, 4.0])
    args = ap.parse_args()

    for slope in args.slopes:
        if abs(slope - 3.522) < 1e-3:
            model = PathLossModel(kind=PathLossKind.HATA)  # slope 3.5216/decade
        else:
            model = PathLossModel(kind=PathLossKind.POWER_LAW, eta=slope)
        g1km = gain(model, 1000.0)
        sums = build_sums(model, args.resolution)
        print(f"\n=== slope {slope} (model {model.kind.value}) ===")
        best = None
        for rho_db in np.arange(5.0, 55.1, 0.5):
            rows, maps = evaluate(sums, 10 ** (rho_db / 10.0), g1km)
            t15 = {k: rows[0][k] for k in TARGETS}
            t20 = {k: rows[1][k] for k in TARGETS}
            band15 = all(abs(t15[k] - TARGETS[k][0]) <= 5.0 for k in TARGETS)
            band20 = all(abs(t20[k] - TARGETS[k][1]) <= 5.0 for k in TARGETS)
            ord15 = order_ok(t15, {k: v[0] for k, v in TARGETS.items()})
            ord20 = order_ok(t20, {k: v[1] for k, v in TARGETS.items()})
            map_band = (
                abs(maps["imo_count3"] - 65.5) <= 5.0
                and abs(maps["imo_at_least2"] - 94.2) <= 5.0
                and abs(maps["ps_count3"] - 74.9) <= 5.0
                and maps["ps_count3"] > maps["imo_count3"]
                and maps["imo_global"] == 100.0
                and maps["ps_global"] == 100.0
            )
            score = sum(
                abs(t15[k] - TARGETS[k][0]) + abs(t20[k] - TARGETS[k][1])
                for k in TARGETS
            )
            flags = f"band15={band15} band20={band20} ord15={ord15} ord20={ord20} maps={map_band}"
            if band15 and band20 and ord15 and ord20 and map_band:
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
