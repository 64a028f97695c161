"""Code-averaged residual error at large n.

The central object is the average over random CSS pairs of the residual
error after correcting t dephasing errors: a Gaussian x-average of the
binomial tail T(p_x) = I_{p_x}(t+1, n-t) of the flip weight p_x.  It has
one numerical route, the average taken by parts: the tail at x = 0 plus
an integral of erfc against the Beta density of the tail's derivative, on
adaptive Gauss-Kronrod panels (quadrature.integrate) seeded where p_x
crosses the binomial step, accurate to max(abs_tol, rel_tol * value).  The
tail itself (_binom_tail) is a sum of binomial terms from Loader's
saddle-point form of the largest one, about 1e-13 relative; the
independent limit takes it verbatim, and the n -> inf asymptote sums
math.erfc.  Everything here needs numpy and the math module alone.  The
noise budget and the scalability verdict are in scalability; this module
still resolves their names.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dephasing import DecoherencePair, p_of_x
from .errors import ConvergenceError, DomainError
from .quadrature import integrate

__all__ = [
    "ResidualQuery", "AsymptoticResidual", "code_avg_residual",
    "independent_residual", "asymptotic_residual",
]

# budget and verdict names that moved to scalability; corrqec.residual.<name>
# still resolves them, loading scalability and bath only when asked
_MOVED = ("GammaBudget", "ScalabilityReport", "ScalabilityRow", "ScalingScenario",
          "gamma_budget", "geometric_grid", "scalability_row", "scalability_summary",
          "scalability_verdict")


def __getattr__(name):
    if name in _MOVED:
        return getattr(importlib.import_module(".scalability", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ResidualQuery:
    """(n, t, decoherence pair) with the target ratio q = (t+1)/n."""

    n: int
    t: int
    pair: DecoherencePair

    def __post_init__(self):
        if not 0 <= self.t < self.n:
            raise DomainError(f"need 0 <= t < n, got t={self.t}, n={self.n}")

    @property
    def q(self) -> float:
        return (self.t + 1) / self.n


# Stirling's error log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 0..15 (0 at
# k = 0 by convention), to double precision from 60-digit decimal arithmetic
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(k: int) -> float:
    # Loader (2000): the table up to 15, then the asymptotic series in 1/k
    # cut where its next term falls below double precision
    if k <= 15:
        return _STIRLERR[k]
    kk = float(k) * k
    if k > 500:
        return (1 / 12 - 1 / 360 / kk) / k
    if k > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / kk) / kk) / k
    if k > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / kk) / kk) / kk) / k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(x: float, mean: float) -> float:
    # x log(x/mean) + mean - x without cancellation (Loader 2000): near
    # x = mean a series in v = (x - mean)/(x + mean)
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    s = (x - mean) * v
    ej = 2.0 * x * v
    v *= v
    j = 1
    while True:
        ej *= v
        s1 = s + ej / (2 * j + 1)
        if s1 == s:
            return s
        s = s1
        j += 1


def _binom_pmf(n: int, k: int, p: float, q: float) -> float:
    # P[X = k], X ~ Binomial(n, p), 0 < k <= n, 0 < p, q; Loader's saddle-point
    # form, accurate to a few ulps wherever it does not underflow
    if k == n:
        return math.exp(-_bd0(n, n * p) - n * q) if q < 0.1 else math.exp(n * math.log(p))
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    return math.exp(lc - 0.5 * (_LOG_2PI + math.log(k) + math.log1p(-k / n)))


def _binom_tail(n: int, t: int, p: float, q: float) -> float:
    """P[X > t] for X ~ Binomial(n, p), 0 <= t < n, with q = 1 - p passed apart.

    This is the regularized incomplete beta I_p(t+1, n-t).  The largest term
    with k > t, at k = max(t + 1, floor((n+1) p)), takes Loader's
    saddle-point form; the others follow from it by products of the term
    ratios, upwards to n and downwards to t + 1, each run stopped once a
    term falls below 1e-17 of the sum; the terms only fall away from it.
    Against exact sums the relative error was at most 3.6e-15 for
    n <= 2000, and 3.2e-13 at n = 6.4e5 twelve standard deviations out,
    where the rounding of n p in the largest term dominates.
    """
    if p == 0.0:
        return 0.0
    if q == 0.0:
        return 1.0
    k = min(n, max(t + 1, math.floor((n + 1) * p)))
    peak = _binom_pmf(n, k, p, q)
    if peak == 0.0:
        return 0.0
    odds = p / q
    total = term = 1.0
    for j in range(k + 1, n + 1):
        term *= (n + 1 - j) * odds / j
        total += term
        if term < 1e-17 * total:
            break
    term = 1.0
    for j in range(k, t + 1, -1):
        term *= j / ((n + 1 - j) * odds)
        total += term
        if term < 1e-17 * total:
            break
    # the sum of a probability distribution's terms can round above 1
    return min(peak * total, 1.0)


def _flip_tail(n: int, t: int, g: float) -> float:
    # the binomial tail at the flip weight p = (1 - e^-g)/2, q = (1 + e^-g)/2
    return _binom_tail(n, t, -0.5 * math.expm1(-g), 0.5 + 0.5 * math.exp(-g))


def independent_residual(n: int, t: int, gamma0: float) -> float:
    """Uncorrelated-noise tail: P[more than t of n qubits flip] at p_o.

    p_o = (1 - exp(-Gamma_0))/2; the tail is the regularized incomplete beta
    I_p(t+1, n-t), summed by _binom_tail (about 1e-13 relative at n = 1e6).
    """
    if not 0 <= t < n:
        raise DomainError(f"need 0 <= t < n, got t={t}, n={n}")
    if gamma0 < 0.0:
        raise DomainError("Gamma_0 must be >= 0")
    return _flip_tail(n, t, gamma0)


def _beta_density(n: int, t: int):
    """p -> the Beta(t+1, n-t) density, d/dp of I_p(t+1, n-t), on arrays.

    It is n Binom(t; n-1, p), written about its mode p_hat = t/(n-1) as
    n b(t; n-1, p_hat) (1 + d/p_hat)^t (1 - d/(1 - p_hat))^(n-1-t) with
    d = p - p_hat: the constant takes Loader's form and the rest log1p in
    logs, so the exponent carries an error of about sqrt(t) eps near the
    mode, where the density matters; far from it the density underflows
    to 0.  A power with exponent 0 is left out, so t = 0 at p = 0 and
    n - 1 - t = 0 at p = 1 give the limit, not 0 log 0.
    """
    m = n - 1
    log_c = math.log(n)
    if 0 < t < m:
        log_c += _stirlerr(m) - _stirlerr(t) - _stirlerr(m - t) \
            - 0.5 * (_LOG_2PI + math.log(t) + math.log1p(-t / m))
    p_hat = t / m if m else 0.0

    def density(p):
        d = p - p_hat
        log_f = np.full_like(d, log_c)
        # p = 0 (t > 0) or p = 1 (t < n - 1) gives log1p(-1) = -inf: density 0
        with np.errstate(divide="ignore"):
            if t > 0:
                log_f += t * np.log1p(d * (1.0 / p_hat))
            if t < m:
                log_f += (m - t) * np.log1p(d * (-1.0 / (1.0 - p_hat)))
        return np.exp(log_f, out=log_f)

    return density


def _crossings(pair: DecoherencePair, levels, x_max: float) -> list[list[float]]:
    """x in [0, x_max) where p_x equals each level, one ascending list per
    level, empty where p_x never reaches it.

    The crossing x0 in [0, pi/2] repeats with period pi, mirrored inside
    each period: k pi + x0 and (k+1) pi - x0.  x0 = 0 repeats a knot.
    """
    e = math.exp(pair.gamma0 - pair.gammaR)
    rows = []
    for level in levels:
        c = (1.0 - 2.0 * level) * e
        row = []
        if abs(c) <= 1.0:
            x0 = 0.5 * math.acos(c)
            k = 0
            while k * math.pi + x0 < x_max:
                row.append(k * math.pi + x0)
                upper = (k + 1) * math.pi - x0
                if upper < x_max:
                    row.append(upper)
                k += 1
        rows.append(row)
    return rows


# math.erfc(u) is below 1e-325 from u = 27.3 on, so it rounds to 0
_ERFC_ZERO = 27.3
_erfc = np.frompyfunc(math.erfc, 1, 1)


def code_avg_residual(query: ResidualQuery, *, abs_tol: float = 1e-12,
                      rel_tol: float = 1e-6) -> float:
    """Average residual error over random CSS pairs of length n correcting t.

    The Gaussian x-average of the binomial tail T(p_x) = I_{p_x}(t+1, n-t),
    taken by parts: T(p_0) + int_0^X erfc(x/sqrt(Gamma_r)) f(p_x) p_x' dx
    with X = 40 sqrt(Gamma_r), f the Beta(t+1, n-t) density (_beta_density)
    and p_x' = e^-(Gamma_0 - Gamma_r) sin 2x.  The boundary term is
    _binom_tail; the integral runs on adaptive Gauss-Kronrod panels
    (quadrature.integrate), with erfc evaluated only where f has not
    underflowed to 0 and x < 27.3 sqrt(Gamma_r), beyond which erfc rounds
    to 0.  f is a bump of one binomial standard deviation dp
    where p_x crosses (t+1)/(n+1); panels are seeded at those crossings
    (each piece between them split in 8) and at the crossings of the levels
    2 dp and 8 dp either side, so the error estimate sees it.  The integral
    is within max(abs_tol/2, rel_tol * integral) by that estimate, the
    summed |K15 - G7| panel differences, which overstate the error of the
    returned K15 value; the boundary term adds about 1e-13 relative.  The
    integral is at most the value, since T(p_x) >= T(p_0), so the value is
    within max(abs_tol, rel_tol * value).  ConvergenceError, carrying the
    boundary term plus the best integral, if the panel budget runs out.
    The Gamma_r = 0 limit is the independent-noise formula, taken verbatim
    from independent_residual.
    """
    pair = query.pair
    n, t = query.n, query.t
    if pair.gammaR == 0.0:
        return independent_residual(n, t, pair.gamma0)
    gr = pair.gammaR
    g = pair.gamma0 - gr
    x_max = 40.0 * math.sqrt(gr)
    center = (t + 1) / (n + 1)
    dp = math.sqrt(center * (1.0 - center) / (n + 2))
    mid, *sides = _crossings(pair, [center] + [center + j * dp for j in (-8, -2, 2, 8)], x_max)
    # a repeated knot gives an empty piece, whose edges unique drops
    pieces = np.array([0.0, *mid, x_max])
    # every piece in 8 equal panels at once, as np.linspace(a, b, 9) would
    # space each: a + i (b - a)/8, ending on b exactly
    a, b = pieces[:-1, None], pieces[1:, None]
    split = np.arange(9.0) * ((b - a) / 8.0) + a
    split[:, -1] = pieces[1:]
    edges = np.unique(np.concatenate([split.ravel(), *sides]))
    density = _beta_density(n, t)
    slope = math.exp(-g)
    scale = 1.0 / math.sqrt(gr)

    def f(x):
        val = density(p_of_x(pair, x))
        val *= slope * np.sin(2.0 * x)
        u = x * scale
        live = (val != 0.0) & (u < _ERFC_ZERO)
        val[~live] = 0.0
        val[live] *= _erfc(u[live]).astype(float)
        return val

    head = _flip_tail(n, t, g)
    try:
        value, _ = integrate(f, edges, abs_tol=0.5 * abs_tol, rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), estimate=head + exc.estimate,
                               error_estimate=exc.error_estimate) from exc
    return head + value


class AsymptoticResidual(NamedTuple):
    exact: float
    erfc_approx: float


def asymptotic_residual(q: float, pair: DecoherencePair) -> AsymptoticResidual:
    """n -> infinity limit of the code average at fixed q = (t+1)/n.

    exact: Gaussian mass of the region where the flip weight exceeds q,
    i.e. cos 2x < (1 - 2q) e^(Gamma_0 - Gamma_r), accumulated over every
    period image as differences of erfc values.
    erfc_approx: the one-term shorthand erfc(sqrt(q / Gamma_r)).
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if pair.gammaR == 0.0:
        p_o = -0.5 * math.expm1(-pair.gamma0)
        hit = 1.0 if p_o > q else 0.0
        return AsymptoticResidual(hit, hit)
    approx = math.erfc(math.sqrt(q / pair.gammaR))
    c = (1.0 - 2.0 * q) * math.exp(pair.gamma0 - pair.gammaR)
    if c >= 1.0:
        # threshold below the whole p_x range: the region is the full line
        return AsymptoticResidual(1.0, approx)
    if c <= -1.0:
        # threshold above max p_x: nothing to correct asymptotically
        return AsymptoticResidual(0.0, approx)
    theta = math.acos(c)
    root = math.sqrt(pair.gammaR)
    total = 0.0
    k = 0
    while k < 1_000_000:
        lo = (k * math.pi + 0.5 * theta) / root
        hi = ((k + 1) * math.pi - 0.5 * theta) / root
        term = math.erfc(lo) - math.erfc(hi)
        if k > 0 and total + term == total:
            break
        total += term
        if term == 0.0:
            break
        k += 1
    return AsymptoticResidual(min(total, 1.0), approx)
