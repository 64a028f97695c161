#!/usr/bin/env python3
"""Region-quadrature check of the large-n residual asymptote.

The asymptote is the Gaussian mass of the region where the effective
flip probability exceeds the correctable ratio q:

    p(x) = (1 - exp(-(g0 - gr)) * cos 2x) / 2 > q
    <=>  cos 2x < c,   c = (1 - 2q) * exp(g0 - gr)

The region is a union of intervals (k*pi + th/2, (k+1)*pi - th/2) with
th = acos(c), repeated over all integers k.  The library evaluates the
mass of each interval in closed form; here we instead integrate the
Gaussian density piecewise with fixed-order Gauss-Legendre panels, a
genuinely different route.  Every panel contributes a positive amount,
so there is no cancellation even when the total is ~1e-18.

Prints the reference values frozen into the test suite.
"""

import math

import numpy as np

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def interval_mass(a: float, b: float, gr: float) -> float:
    """Integral of exp(-x^2/gr)/sqrt(pi*gr) over [a, b], a >= 0."""
    sigma = math.sqrt(gr)
    b = min(b, a + 45.0 * sigma)  # beyond that the density underflows
    if b <= a:
        return 0.0
    width = 0.25 * sigma
    panels = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * GL_NODES[None, :]
    dens = np.exp(-x * x / gr) / math.sqrt(math.pi * gr)
    return float(math.fsum((half * (dens @ GL_WEIGHTS)).tolist()))


def region_mass(q: float, g0: float, gr: float) -> float:
    c = (1.0 - 2.0 * q) * math.exp(g0 - gr)
    if c >= 1.0:
        return 1.0  # q below every p(x): the region is the whole line
    if c <= -1.0:
        return 0.0  # q above every p(x): the region is empty
    th = math.acos(c)
    total = 0.0
    k = 0
    while True:
        a = k * math.pi + 0.5 * th
        b = (k + 1) * math.pi - 0.5 * th
        m = interval_mass(a, b, gr)
        total += m
        if m == 0.0 or (total > 0.0 and m < 1e-25 * total):
            break
        k += 1
    return 2.0 * total  # x < 0 mirror


def main() -> None:
    q = 0.05
    print("# fixed-q asymptote levels, q = 0.05")
    print("# (g0, gr) -> region-quadrature mass")
    fig_pairs = [(0.01, 0.01), (0.01, 0.005), (0.01, 0.0025), (0.01, 0.00125)]
    grid_pairs = []
    for div in (6.0, 7.5, 10.0, 15.0, 20.0):
        gr = q / div
        grid_pairs.append((gr, gr))
        grid_pairs.append((1.2 * gr, gr))

    try:
        from corrqec import DecoherencePair, asymptotic_residual
    except ImportError:
        asymptotic_residual = None

    for label, pairs in (("decay-curve", fig_pairs), ("erfc-band", grid_pairs)):
        print(f"[{label}]")
        for g0, gr in pairs:
            mass = region_mass(q, g0, gr)
            line = f"  g0={g0!r} gr={gr!r}: {mass!r}"
            if asymptotic_residual is not None:
                lib = asymptotic_residual(q, DecoherencePair(g0, gr)).exact
                rel = abs(lib - mass) / mass if mass else abs(lib)
                line += f"  (library rel diff {rel:.2e})"
            print(line)


if __name__ == "__main__":
    main()
