"""Independent reference routes for the benchmark's correctness checks.

Nothing here imports corrqec: every formula is written out again from the
model's definitions so that a bug in a library route cannot also sit in
the value it is checked against.  Each route names the tolerance its check
uses; DESIGN.md lists them in one table.

  code average     QUADPACK (scipy.integrate.quad) on the Gaussian x binomial
                   tail integrand, split at the crossing points of p_x through
                   (t+1)/(n+1).                     tol: rel 1e-6, abs 1e-12
  independent      binomial survival function scipy.stats.binom.sf
                                                    tol: rel 1e-10
  asymptote        Gaussian mass of the region p_x > q by fixed 40-point
                   Gauss-Legendre panels (the method of
                   scripts/asymptote_region_oracle.py)   tol: rel 1e-9, abs 1e-15
  log beta         dense trapezoid of the log integrand, log-sum-exp
                                                    tol: abs 1e-8 on log beta
  gamma budget     erfc(z) = target solved by Brent's method on scipy erfc
                                                    tol: rel 1e-10
  code distance    brute-force enumeration of the code from its generators
                                                    tol: exact
  decoherence      frozen values from make_reference.py (QUADPACK head with
  integral         the algebraic endpoint weight, dense fixed Gauss-Legendre
                   body, Richardson error estimate) tol: 10x combined error
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

CODE_AVG_REL, CODE_AVG_ABS = 1e-6, 1e-12
INDEPENDENT_REL = 1e-10
ASYMPTOTE_REL, ASYMPTOTE_ABS = 1e-9, 1e-15
LOG_BETA_ABS = 1e-8
BUDGET_REL = 1e-10
GAMMA_ERR_FACTOR = 10.0


def within(value: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= max(abs_, rel * abs(ref))


def flip_weight(g0: float, gr: float, x):
    """p_x = (1 - exp(-(g0 - gr)) cos 2x) / 2, as an all-positive sum."""
    g = g0 - gr
    return 0.5 * (-math.expm1(-g) + 2.0 * math.exp(-g) * np.sin(x) ** 2)


def independent(n: int, t: int, g0: float) -> float:
    """P[more than t of n qubits flip] with the uncorrelated flip weight."""
    return float(stats.binom.sf(t, n, -0.5 * math.expm1(-g0)))


def _crossings(n: int, t: int, g0: float, gr: float, x_max: float) -> list[float]:
    # p_x = (t+1)/(n+1) where cos 2x = c; the solutions repeat with period pi
    c = (1.0 - 2.0 * (t + 1) / (n + 1)) * math.exp(g0 - gr)
    if abs(c) >= 1.0:
        return []
    half = 0.5 * math.acos(c)
    pts = []
    k = 0
    while k * math.pi < x_max:
        pts += [k * math.pi + half, (k + 1) * math.pi - half]
        k += 1
    return sorted(p for p in pts if 0.0 < p < x_max)


def code_average(n: int, t: int, g0: float, gr: float) -> float:
    """Gaussian average over x ~ N(0, gr/2) of I_{p_x}(t+1, n-t)."""
    if gr == 0.0:
        return independent(n, t, g0)
    sigma = math.sqrt(0.5 * gr)
    x_max = 40.0 * sigma
    norm = 2.0 / math.sqrt(math.pi * gr)

    def f(x):
        return norm * math.exp(-x * x / gr) * special.betainc(t + 1, n - t, flip_weight(g0, gr, x))

    knots = _crossings(n, t, g0, gr, x_max)
    edges = [0.0] + knots + [x_max]
    # the tail steps from 0 to 1 over a width ~ 1/sqrt(n) around each knot
    width = 8.0 / math.sqrt(n)
    pieces = []
    for a, b in zip(edges, edges[1:]):
        inner = [p for p in (a + width, b - width) if a < p < b]
        cuts = [a] + sorted(set(inner)) + [b]
        pieces += list(zip(cuts, cuts[1:]))
    total = 0.0
    for a, b in pieces:
        val, _ = integrate.quad(f, a, b, epsabs=1e-17, epsrel=1e-11, limit=400)
        total += val
    return total


_GL40 = np.polynomial.legendre.leggauss(40)


def _gauss_mass(a: float, b: float, gr: float) -> float:
    # integral of exp(-x^2/gr)/sqrt(pi gr) over [a, b] (a >= 0), 40-point panels
    sigma = math.sqrt(gr)
    b = min(b, a + 45.0 * sigma)
    if b <= a:
        return 0.0
    panels = max(1, math.ceil((b - a) / (0.25 * sigma)))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * _GL40[0]
    dens = np.exp(-x * x / gr) / math.sqrt(math.pi * gr)
    return math.fsum((half * (dens @ _GL40[1])).tolist())


def asymptote(q: float, g0: float, gr: float) -> float:
    """Gaussian mass of {x : p_x > q}, summed interval by interval."""
    # p_x > q  <=>  cos 2x < c: the whole line when c >= 1, nowhere when c <= -1
    c = (1.0 - 2.0 * q) * math.exp(g0 - gr)
    if c >= 1.0:
        return 1.0
    if c <= -1.0:
        return 0.0
    th = math.acos(c)
    total = 0.0
    k = 0
    while True:
        m = _gauss_mass(k * math.pi + 0.5 * th, (k + 1) * math.pi - 0.5 * th, gr)
        total += m
        if m == 0.0 or m < 1e-25 * total:
            break
        k += 1
    return min(2.0 * total, 1.0)


def log_beta(n: int, w: int, g0: float, gr: float) -> float:
    """log E_x[p_x^w (1 - p_x)^(n-w)], x ~ N(0, gr/2), by a dense trapezoid.

    The integrand is smooth, so the trapezoid converges spectrally once the
    step resolves the narrowest peak (width ~ 1/sqrt(n)); the step below is
    a tenth of that and never more than sigma/100.  The flip factor is at
    most 1, so beyond |x| = sqrt(gr (80 - P0)), with P0 its log at x = 0,
    the integrand is below e^-80 of its value at the origin.
    """
    g = g0 - gr
    if gr == 0.0:
        po = -0.5 * math.expm1(-g0)
        val = w * math.log(po) if w else 0.0
        return val + (n - w) * math.log1p(-po)
    base = -math.expm1(-g)
    damp = 2.0 * math.exp(-g)

    def logs(x):
        with np.errstate(divide="ignore"):
            return (np.log(0.5 * (base + damp * np.sin(x) ** 2)),
                    np.log(0.5 * (base + damp * np.cos(x) ** 2)))

    lp0, l1p0 = logs(np.zeros(1))
    p0 = (w * lp0[0] if w else 0.0) + ((n - w) * l1p0[0] if w < n else 0.0)
    sigma = math.sqrt(0.5 * gr)
    lim = math.sqrt(gr * (80.0 - p0))
    h = min(0.1 / math.sqrt(n), sigma / 100.0)
    x = np.linspace(-lim, lim, 2 * math.ceil(lim / h) + 1)
    step = x[1] - x[0]
    lp, l1p = logs(x)
    terms = -x * x / gr - 0.5 * math.log(math.pi * gr) + math.log(step)
    if w:
        terms = terms + w * lp
    if w < n:
        terms = terms + (n - w) * l1p
    return float(special.logsumexp(terms))


def budget(n: float, q: float, mu: float, b: float) -> float:
    """Largest gammaR with erfc(sqrt(q/gammaR)) <= b n^-mu; inf if vacuous."""
    target = b * float(n) ** (-mu)
    if target >= 1.0:
        return math.inf
    # erfc is decreasing on z > 0; bracket the root generously
    z = optimize.brentq(lambda v: special.erfc(v) - target, 0.0, 40.0,
                        xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    return q / (z * z)


def min_distance(n: int, rows: list[int]) -> int:
    """Smallest nonzero weight of the span of the given generator rows."""
    words = np.zeros(1, dtype=np.int64)
    for r in rows:
        words = np.concatenate([words, words ^ r])
    weights = np.array([bin(int(v)).count("1") for v in words[1:]])
    return int(weights.min()) if weights.size else n + 1


def dual_rows(n: int, rows: list[int]) -> list[int]:
    """A basis of the dual code, by brute force over all 2^n vectors."""
    vecs = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(vecs.size, dtype=bool)
    for r in rows:
        par = np.array([bin(int(v)).count("1") & 1 for v in (vecs & r)])
        ok &= par == 0
    members = [int(v) for v in vecs[ok] if v]
    basis: list[int] = []
    span = {0}
    for v in members:
        if v not in span:
            basis.append(v)
            span |= {s ^ v for s in span}
    return basis


_GL10 = np.polynomial.legendre.leggauss(10)


def _decoherence_slow(om, A, s, Omega, T, r, tau):
    # A (1 - cos w tau)/w^2 * w coth(w/2T) * sinc(w r) * e^(-w/Omega):
    # the integrand divided by w^(s-1) (by w^s at T = 0), finite at w = 0
    om = np.asarray(om, dtype=float)
    osc = 0.5 * tau * tau * np.sinc(om * tau / (2.0 * np.pi)) ** 2
    val = A * osc * np.sinc(om * r / np.pi) * np.exp(-om / Omega)
    if T > 0.0:
        x = om / (2.0 * T)
        with np.errstate(divide="ignore", invalid="ignore"):
            wcoth = np.where(x < 1e-8, 2.0 * T, om / np.tanh(np.maximum(x, 1e-300)))
        val = val * wcoth
    return val


def decoherence(A: float, s: float, Omega: float, T: float, r: float,
                tau: float) -> tuple[float, float]:
    """Gamma(r, tau) and an error estimate, by a route unlike the library's.

    Head [0, c]: QUADPACK with the algebraic weight w^(s-1) (w^s at T = 0),
    which absorbs the endpoint behaviour.  Body [c, 45 Omega]: fixed
    10-point Gauss-Legendre on uniform panels no wider than a third of the
    fastest oscillation period 2 pi/(r + tau); the error estimate is the
    change when the panel width is doubled plus the QUADPACK estimate and a
    bound for the dropped tail.
    """
    if A == 0.0 or tau == 0.0:
        return 0.0, 0.0
    alpha = s - 1.0 if T > 0.0 else s
    scales = [Omega, 1.0 / tau] + ([T] if T > 0.0 else []) + ([1.0 / r] if r > 0.0 else [])
    c = 0.25 * min(scales)
    head, head_err = integrate.quad(
        lambda om: _decoherence_slow(om, A, s, Omega, T, r, tau),
        0.0, c, weight="alg", wvar=(alpha, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
    upper = 45.0 * Omega
    width = min(c, 2.0 * np.pi / (r + tau) / 3.0, Omega / 4.0)

    def body(panels: int) -> float:
        edges = np.linspace(c, upper, panels + 1)
        parts = []
        for i0 in range(0, panels, 200_000):
            i1 = min(i0 + 200_000, panels)
            lo, hi = edges[i0:i1], edges[i0 + 1:i1 + 1]
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            om = mid[:, None] + half[:, None] * _GL10[0]
            vals = _decoherence_slow(om, A, s, Omega, T, r, tau) * om ** alpha
            parts.append(float((half * (vals @ _GL10[1])).sum()))
        return math.fsum(parts)

    panels = math.ceil((upper - c) / width)
    fine = body(2 * panels)
    coarse = body(panels)
    # |1 - cos| <= 2, |sinc| <= 1, coth <= 1 + 2T/w: tail below this bound
    tail = 2.0 * A * (1.0 + 2.0 * T / upper) * upper ** (s - 2.0) * Omega * math.exp(-upper / Omega) \
        if s <= 2.0 else 2.0 * A * (1.0 + 2.0 * T / upper) * Omega ** (s - 1.0) \
        * special.gamma(s - 1.0) * special.gammaincc(s - 1.0, upper / Omega)
    value = head + fine
    return value, abs(fine - coarse) + head_err + tail + 4e-16 * abs(value)
