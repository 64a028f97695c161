#!/usr/bin/env python3
"""Regenerate perfbench/reference/gamma.json, the frozen decoherence integrals.

The verdict workload checks every Gamma_r it computes against these values
within 10x the combined error estimate (library estimate + reference
estimate).  The values come from reference.decoherence, which shares no
code with the library; this script needs numpy and scipy only.

  verdict_rows  Gamma at A = 1 for s = 1, 2, 2.5 at the geometry (a r0, a tau0)
                of every point of the 29-point grid 1e2..1e9, a = (n/n0)^(1/3),
                r0 = 0.5, tau0 = 1, n0 = 100, Omega = 10, T = 1.  Rows of any
                coupling are checked against coupling x these values.
  pair_pool     Gamma_0 and Gamma_r for 12 near-field (r <= 4 tau) and 12
                far-field (r >= 200, tau ~ 1) points; a run draws its
                gamma_pair inputs from this pool by its seed.

Usage:  python3 perfbench/make_reference.py   (a few minutes on one core)
"""
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

OMEGA, TEMP = 10.0, 1.0
VERDICT_S = (1.0, 2.0, 2.5)
R0, TAU0, N0, Y = 0.5, 1.0, 100.0, 1.0 / 3.0
POOL_SEED = 20051
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "gamma.json")


def verdict_grid() -> list[float]:
    return [float(v) for v in np.geomspace(1e2, 1e9, 29)]


def pool_points() -> dict:
    rng = np.random.default_rng(POOL_SEED)
    near, far = [], []
    for _ in range(12):
        tau = float(np.exp(rng.uniform(math.log(0.5), math.log(5.0))))
        near.append({"s": float(rng.uniform(0.6, 1.6)),
                     "r": float(rng.uniform(0.1, 1.0) * 4.0 * tau), "tau": tau})
    for _ in range(12):
        far.append({"s": float(rng.uniform(0.6, 1.6)),
                    "r": float(np.exp(rng.uniform(math.log(200.0), math.log(2000.0)))),
                    "tau": float(rng.uniform(0.8, 1.25))})
    return {"near": near, "far": far}


def main() -> int:
    rows = {}
    for s in VERDICT_S:
        entries = []
        for n in verdict_grid():
            a = (n / N0) ** Y
            value, err = reference.decoherence(1.0, s, OMEGA, TEMP, a * R0, a * TAU0)
            entries.append({"n": n, "r": a * R0, "tau": a * TAU0, "value": value, "err": err})
            print(f"s={s} n={n:.4g}: {value!r} +- {err:.2e}", flush=True)
        rows[repr(s)] = entries
    pool = pool_points()
    for kind, pts in pool.items():
        for p in pts:
            p["g0"] = reference.decoherence(1.0, p["s"], OMEGA, TEMP, 0.0, p["tau"])
            p["gr"] = reference.decoherence(1.0, p["s"], OMEGA, TEMP, p["r"], p["tau"])
            print(f"{kind} {p}", flush=True)
    doc = {"generator": "perfbench/make_reference.py", "omega": OMEGA, "temp": TEMP,
           "tolerance": "|library - reference| <= 10 x (library error + reference error)",
           "verdict_rows": rows, "pair_pool": pool}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
