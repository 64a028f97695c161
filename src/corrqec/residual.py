"""Code-averaged residual error at large n.

The central object is the average over random CSS pairs of the residual
error after correcting t dephasing errors: a Gaussian x-integral over the
binomial tail of the flip weight p_x.  It has one numerical route:
adaptive Gauss-Kronrod panels (quadrature.integrate) seeded where p_x
crosses the binomial step, accurate to max(abs_tol, rel_tol * value).  The
independent limit and the n -> inf asymptote live here too.  The noise
budget and the scalability verdict, which need no binomial tail and so no
scipy, are in scalability; this module still resolves their names.
"""
from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, erfc

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


def independent_residual(n: int, t: int, gamma0: float) -> float:
    """Uncorrelated-noise tail: P[more than t of n qubits flip] at p_o.

    p_o = (1 - exp(-Gamma_0))/2; the tail is the regularized incomplete beta
    I_p(t+1, n-t), stable out to n of order 10^6.
    """
    if not 0 <= t < n:
        raise DomainError(f"need 0 <= t < n, got t={t}, n={n}")
    if gamma0 < 0.0:
        raise DomainError("Gamma_0 must be >= 0")
    p_o = -0.5 * math.expm1(-gamma0)
    return float(betainc(t + 1, n - t, p_o))


def _tail_at(query: ResidualQuery, x: np.ndarray) -> np.ndarray:
    p = p_of_x(query.pair, x)
    return betainc(query.t + 1, query.n - query.t, p)


def _crossings(query: ResidualQuery, level: float, x_max: float) -> list[float]:
    # x in (0, x_max) where p_x equals level; the crossing repeats with
    # period pi, mirrored inside each period
    c = (1.0 - 2.0 * level) * math.exp(query.pair.gamma0 - query.pair.gammaR)
    if abs(c) > 1.0:
        return []
    x0 = 0.5 * math.acos(c)
    knots = []
    k = 0
    while k * math.pi + x0 < x_max:
        for cand in (k * math.pi + x0, (k + 1) * math.pi - x0):
            if 0.0 < cand < x_max:
                knots.append(cand)
        k += 1
    return sorted(set(knots))


def code_avg_residual(query: ResidualQuery, *, abs_tol: float = 1e-12,
                      rel_tol: float = 1e-6) -> float:
    """Average residual error over random CSS pairs of length n correcting t.

    The Gaussian x-average of the binomial tail I_{p_x}(t+1, n-t), taken on
    adaptive Gauss-Kronrod panels (quadrature.integrate) over
    0 <= x <= 40 sqrt(Gamma_r) and doubled by symmetry.  The tail steps from
    0 to 1 where p_x crosses (t+1)/(n+1), over a width dp of one binomial
    standard deviation; panels are seeded at those crossings (each piece
    between them split in 8) and at the crossings of the levels 2 dp and
    8 dp either side, so the error estimate sees the step.  The returned
    value is within max(abs_tol, rel_tol * value) of the integral by that
    estimate, the summed |K15 - G7| panel differences, which overstate the
    error of the returned K15 value; ConvergenceError if the panel budget
    runs out.  The Gamma_r = 0 limit is the independent-noise formula,
    taken verbatim from independent_residual.
    """
    pair = query.pair
    if pair.gammaR == 0.0:
        return independent_residual(query.n, query.t, pair.gamma0)
    gr = pair.gammaR
    x_max = 40.0 * math.sqrt(gr)
    center = (query.t + 1) / (query.n + 1)
    dp = math.sqrt(center * (1.0 - center) / (query.n + 2))
    pieces = np.array([0.0] + _crossings(query, center, x_max) + [x_max])
    sides = [x for j in (-8, -2, 2, 8) for x in _crossings(query, center + j * dp, x_max)]
    # every piece in 8 equal panels at once, as np.linspace(a, b, 9) would
    # space each: a + i (b - a)/8, ending on b exactly
    a, b = pieces[:-1, None], pieces[1:, None]
    split = np.arange(9.0) * ((b - a) / 8.0) + a
    split[:, -1] = pieces[1:]
    edges = np.unique(np.concatenate([split.ravel(), sides]))
    norm = 1.0 / math.sqrt(math.pi * gr)

    def f(x):
        return norm * np.exp(-x * x / gr) * _tail_at(query, x)

    try:
        value, _ = integrate(f, edges, abs_tol=0.5 * abs_tol, rel_tol=rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), estimate=2.0 * exc.estimate,
                               error_estimate=2.0 * exc.error_estimate) from exc
    return 2.0 * value


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
    approx = float(erfc(math.sqrt(q / pair.gammaR)))
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
        term = float(erfc(lo) - erfc(hi))
        if k > 0 and total + term == total:
            break
        total += term
        if term == 0.0:
            break
        k += 1
    return AsymptoticResidual(min(total, 1.0), approx)
