"""Noise budget and scalability verdict for geometry growing with n.

The budget is the largest Gamma_r whose large-n residual, the one-term
asymptote erfc(sqrt(q / Gamma_r)), stays within b * n^(-mu); inverting it
needs erfc^-1 alone.  The verdict compares that budget with the bath's
Gamma_r at geometry (a r0, a tau0), a = (n/n0)^y, along an n grid.  This
layer needs numpy and the bath only; the binomial tail stays in residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bath import BathParams, GammaEstimate, GeometryParams, _gamma_batch
from .errors import DomainError

__all__ = [
    "ScalingScenario", "GammaBudget", "ScalabilityRow", "ScalabilityReport",
    "gamma_budget", "scalability_verdict", "geometric_grid",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _erfcinv(y: float) -> float:
    """z with erfc(z) = y for 0 < y < 1, by Halley steps on math.erfc.

    At y >= 1/2 it solves erf(z) = 1 - y instead, where 1 - y is exact, so
    that no digits are lost to cancellation as y approaches 1.  Against
    scipy.special.erfcinv the relative difference is at most 5e-16 (4 ulp)
    for y from 1e-15 to 1 - 1e-12, and a median of 1 ulp.
    """
    if y == 0.0:
        return math.inf
    if y >= 0.5:
        goal, fn, sign = 1.0 - y, math.erf, 1.0
        z = 0.5 * math.sqrt(math.pi) * goal
    else:
        goal, fn, sign = y, math.erfc, -1.0
        t = math.sqrt(-math.log(y))
        z = t - math.log(t * math.sqrt(math.pi)) / (2.0 * t)
    for _ in range(50):
        # u = f/f' with f = fn(z) - goal; f''/f' = -2z for erf and erfc alike
        u = (fn(z) - goal) / (sign * _TWO_OVER_SQRT_PI * math.exp(-z * z))
        step = u / (1.0 + z * u)
        z -= step
        if abs(step) <= 4e-16 * z:
            break
    return z


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
    z = _erfcinv(target)
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


def _rows(scen: ScalingScenario, n_grid: Sequence[float]) -> list[ScalabilityRow]:
    """The rows of n_grid, in its order: a = (n/n0)^y, Gamma_r at geometry
    (a r0, a tau0) with all geometries in one closed-form batch, the budget
    from gamma_budget, and the satisfied flag."""
    ns, scales, geoms, budgets = list(n_grid), [], [], []
    for n in ns:
        a = (float(n) / scen.n0) ** scen.y
        if scen.coupling != 0.0:
            geoms.append(GeometryParams(a * scen.r0, a * scen.tau0))
        scales.append(a)
        budgets.append(gamma_budget(n, scen.q, scen.mu, scen.b).gamma_max)
    ests = _gamma_batch(scen.bath, geoms) if geoms else [GammaEstimate(0.0, 0.0)] * len(ns)
    return [ScalabilityRow(float(n), a, est.value, est.error_estimate, budget, est.value < budget)
            for n, a, est, budget in zip(ns, scales, ests, budgets)]


def scalability_row(scen: ScalingScenario, n: float) -> ScalabilityRow:
    """One grid point: a = (n/n0)^y, Gamma_r at geometry (a r0, a tau0),
    budget from gamma_budget, and the satisfied flag."""
    return _rows(scen, [n])[0]


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


def scalability_verdict(scen: ScalingScenario, n_grid: Sequence[float]) -> ScalabilityReport:
    """Evaluate the budget condition along n_grid and classify the scenario.

    The Gamma_r of the whole grid come from one closed-form batch of
    geometries of the scenario's bath (bath module docstring), so a 29-point
    grid costs about a fifth of 29 single calls; each row equals
    scalability_row at its n bit for bit.
    """
    return scalability_summary(scen, _rows(scen, n_grid))


def geometric_grid(lo: float, hi: float, points: int) -> list[float]:
    """Log-spaced grid endpoints included; the usual scan axis for verdicts."""
    if not (lo > 0 and hi > lo and points >= 2):
        raise DomainError("need 0 < lo < hi and points >= 2")
    return [float(v) for v in np.geomspace(lo, hi, points)]
