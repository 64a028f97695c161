"""Code-averaged residual error at large n and the scalability analysis.

The central object is the average over random CSS pairs of the residual
error after correcting t dephasing errors: a Gaussian x-integral over the
binomial tail of the flip weight p_x.  It has one numerical route:
adaptive Gauss-Legendre panels (quadrature.integrate) seeded where p_x
crosses the binomial step, accurate to max(abs_tol, rel_tol * value).  The
independent limit, the n -> inf asymptote, the noise budget from inverting
that asymptote, and the verdict for geometry growing as n^y all live here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import betainc, erfc, erfcinv

from .bath import BathParams, GammaEstimate, GeometryParams, QuadratureConfig, gamma_detailed
from .dephasing import DecoherencePair, p_of_x
from .errors import ConvergenceError, DomainError
from .quadrature import integrate, uniform_edges

__all__ = [
    "ResidualQuery", "ScalingScenario", "GammaBudget", "AsymptoticResidual",
    "ScalabilityRow", "ScalabilityReport", "code_avg_residual",
    "independent_residual", "asymptotic_residual", "gamma_budget",
    "scalability_verdict", "geometric_grid",
]


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
    adaptive Gauss-Legendre panels (quadrature.integrate) over
    0 <= x <= 40 sqrt(Gamma_r) and doubled by symmetry.  The tail steps from
    0 to 1 where p_x crosses (t+1)/(n+1), over a width dp of one binomial
    standard deviation; panels are seeded at those crossings (each piece
    between them split in 8) and at the crossings of the levels 2 dp and
    8 dp either side, so the error estimate sees the step.  The returned
    value is within max(abs_tol, rel_tol * value) of the integral by that
    estimate; ConvergenceError if the panel budget runs out.  The
    Gamma_r = 0 limit is the independent-noise formula, taken verbatim
    from independent_residual.
    """
    pair = query.pair
    if pair.gammaR == 0.0:
        return independent_residual(query.n, query.t, pair.gamma0)
    gr = pair.gammaR
    x_max = 40.0 * math.sqrt(gr)
    center = (query.t + 1) / (query.n + 1)
    dp = math.sqrt(center * (1.0 - center) / (query.n + 2))
    pieces = [0.0] + _crossings(query, center, x_max) + [x_max]
    sides = [x for j in (-8, -2, 2, 8) for x in _crossings(query, center + j * dp, x_max)]
    edges = np.unique(np.concatenate([
        uniform_edges(a, b, max_width=(b - a) / 8.0) for a, b in zip(pieces, pieces[1:])
    ] + [sides]))
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


@dataclass(frozen=True)
class GammaBudget:
    """Largest Gamma_r compatible with residual <= b * n^(-mu) at ratio q.

    gamma_max is the exact erfc inversion; c0 restates it in the form
    q / (c0 + mu ln n).  A vacuous budget (b * n^(-mu) >= 1) is flagged
    unconstrained with gamma_max = inf.
    """

    gamma_max: float
    c0: float
    unconstrained: bool


def gamma_budget(n: float, q: float, mu: float, b: float) -> GammaBudget:
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if mu < 0.0 or b <= 0.0:
        raise DomainError("need mu >= 0 and b > 0")
    target = b * float(n) ** (-mu)
    if target >= 1.0:
        return GammaBudget(math.inf, math.nan, True)
    z = float(erfcinv(target))
    gamma_max = q / (z * z)
    return GammaBudget(gamma_max, z * z - mu * math.log(n), False)


@dataclass(frozen=True)
class ScalingScenario:
    """Geometry growing as (n/n0)^y against an error budget b * n^(-mu).

    The coupling amplitude of the bath enters through `coupling` (the
    prefactor of the spectral function); everything else mirrors the bath
    and budget parameters directly.
    """

    s: float
    y: float
    r0: float
    tau0: float
    n0: float
    T: float
    Omega: float
    q: float
    mu: float
    b: float
    coupling: float = 1.0

    def __post_init__(self):
        if self.y < 1.0 / 3.0 - 1e-12:
            raise DomainError(f"growth exponent must be >= 1/3, got {self.y}")
        if self.mu <= 0.0 or self.b <= 0.0:
            raise DomainError("need mu > 0 and b > 0")
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if self.n0 < 2:
            raise DomainError("base size n0 must be >= 2")

    @property
    def bath(self) -> BathParams:
        return BathParams(self.coupling, self.s, self.Omega, self.T)


@dataclass(frozen=True)
class ScalabilityRow:
    n: float
    a: float
    gamma_r: float
    gamma_err: float
    budget: float
    satisfied: bool


@dataclass(frozen=True)
class ScalabilityReport:
    rows: tuple[ScalabilityRow, ...]
    verdict: str
    crossover_n: float | None


def scalability_row(scen: ScalingScenario, n: float,
                    quad: QuadratureConfig | None = None) -> ScalabilityRow:
    """One grid point: a = (n/n0)^y, Gamma_r at geometry (a r0, a tau0),
    budget from gamma_budget, and the satisfied flag."""
    a = (float(n) / scen.n0) ** scen.y
    if scen.coupling == 0.0:
        est = GammaEstimate(0.0, 0.0)
    else:
        est = gamma_detailed(scen.bath,
                             GeometryParams(a * scen.r0, a * scen.tau0), quad)
    bud = gamma_budget(n, scen.q, scen.mu, scen.b)
    return ScalabilityRow(float(n), a, est.value, est.error_estimate,
                          bud.gamma_max, est.value < bud.gamma_max)


def scalability_summary(scen: ScalingScenario,
                        rows: Sequence[ScalabilityRow]) -> ScalabilityReport:
    """Classify evaluated rows.  The verdict follows the asymptotic law
    (scalable exactly when s > 2, or trivially when the coupling vanishes);
    the grid supplies the first violating n as evidence when s <= 2."""
    ordered = tuple(sorted(rows, key=lambda row: row.n))
    if not ordered:
        raise DomainError("empty n grid")
    crossover = next((row.n for row in ordered if not row.satisfied), None)
    if scen.coupling == 0.0:
        verdict = "scalable (no noise)"
    elif scen.s > 2.0:
        verdict = "scalable"
    else:
        verdict = "not scalable"
    return ScalabilityReport(ordered, verdict, crossover)


def scalability_verdict(scen: ScalingScenario, n_grid: Sequence[float],
                        quad: QuadratureConfig | None = None) -> ScalabilityReport:
    """Evaluate the budget condition along n_grid and classify the scenario."""
    return scalability_summary(
        scen, [scalability_row(scen, nv, quad) for nv in n_grid])


def geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    """Log-spaced grid endpoints included; the usual scan axis for verdicts."""
    if not (lo > 0 and hi > lo and points >= 2):
        raise DomainError("need 0 < lo < hi and points >= 2")
    return [float(v) for v in np.geomspace(lo, hi, points)]
