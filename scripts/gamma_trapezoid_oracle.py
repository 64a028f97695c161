#!/usr/bin/env python3
"""Brute-force trapezoid check for the dephasing-rate integral.

Evaluates the s=1, r=0 rate integral on a dense uniform grid with no
adaptive machinery at all, as an independent cross-check of the library
quadrature.  The integrand here is written out from scratch on purpose;
do not refactor it to call into corrqec.

Reference point: A=1, s=1, Omega=10, T=1, r=0, tau=5 (or --tau), integrated
on [0, 40*Omega].  The exact omega -> 0 limit of the integrand is
tau^2 * T (the 1-cos factor cancels one power, coth supplies 2T/omega).
The trapezoid error is about h^2/12 * tau^2 T/Omega (Euler-Maclaurin, from
the slope -tau^2 T/Omega at omega = 0): below 1e-9 relative at the default
points for tau up to 100.
"""

import argparse
import math

import numpy as np

A = 1.0
S = 1.0
OMEGA = 10.0
TEMP = 1.0


def integrand(w: np.ndarray, tau: float) -> np.ndarray:
    # s=1, r=0: A * (1 - cos(w*tau)) / w * coth(w / 2T) * exp(-w / Omega)
    out = np.empty_like(w)
    zero = w == 0.0
    out[zero] = tau * tau * TEMP
    ww = w[~zero]
    out[~zero] = (
        A
        * (1.0 - np.cos(ww * tau))
        / ww
        / np.tanh(ww / (2.0 * TEMP))
        * np.exp(-ww / OMEGA)
    )
    return out


def trapezoid(points: int, upper: float, tau: float) -> float:
    h = upper / (points - 1)
    chunk = 1_000_000
    partial = []
    for start in range(0, points, chunk):
        stop = min(start + chunk, points)
        w = start + np.arange(stop - start, dtype=np.float64)
        w *= h
        vals = integrand(w, tau)
        if start == 0:
            vals[0] *= 0.5
        if stop == points:
            vals[-1] *= 0.5
        partial.append(float(vals.sum()))
    return h * math.fsum(partial)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=10_000_000)
    ap.add_argument("--tau", type=float, default=5.0)
    args = ap.parse_args()

    upper = 40.0 * OMEGA
    value = trapezoid(args.points, upper, args.tau)
    print(f"trapezoid ({args.points} points on [0, {upper:g}], tau={args.tau:g}): {value!r}")

    try:
        from corrqec import BathParams, GeometryParams, gamma
    except ImportError:
        return
    lib = gamma(BathParams(A, S, OMEGA, TEMP), GeometryParams(0.0, args.tau))
    rel = abs(lib - value) / value
    print(f"library quadrature:                             {lib!r}")
    print(f"relative difference: {rel:.3e}  (six significant digits -> < 1e-6)")


if __name__ == "__main__":
    main()
