"""Adaptive Gauss-Legendre panel integration, vectorized across panels.

The integrand is called on flat numpy arrays of abscissae, so a single
refinement step costs one vectorized evaluation regardless of how many
panels are split.  Error per panel is estimated from the difference
between the 15-point and the 7-point Gauss-Legendre rule.  The two are not
nested: leggauss(7) shares only its midpoint with leggauss(15), so a panel
costs 22 integrand calls (21 distinct abscissae), not 15.

QuadratureConfig, the tolerances and budgets of the decoherence integral,
lives here rather than in bath so that a caller can build one without
loading scipy; bath re-exports it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel budget for the body of the decoherence integral.

    abs_tol=None selects the default 1e-12 * A * Omega^(s-1).  The head's
    Gauss-Jacobi rule is fixed at 24 nodes (12 for its error estimate).
    """

    abs_tol: float | None = None
    rel_tol: float = 1e-9
    max_panels: int = 200_000


_HI_X, _HI_W = np.polynomial.legendre.leggauss(15)
_LO_X, _LO_W = np.polynomial.legendre.leggauss(7)


def _eval_panels(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + half[:, None] * _HI_X
    y = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    v_hi = half * (y @ _HI_W)
    xs = mid[:, None] + half[:, None] * _LO_X
    y = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    v_lo = half * (y @ _LO_W)
    return v_hi, np.abs(v_hi - v_lo)


def uniform_edges(a: float, b: float, max_width: float, min_panels: int = 8) -> np.ndarray:
    """Panel edges covering [a, b] with width at most max_width."""
    if b <= a:
        raise ValueError("empty interval")
    count = max(min_panels, int(np.ceil((b - a) / max_width)))
    return np.linspace(a, b, count + 1)


def integrate(f, edges, *, abs_tol: float = 0.0, rel_tol: float = 1e-9,
              max_panels: int = 200_000) -> tuple[float, float]:
    """Integrate f over the panels given by edges; returns (value, error estimate).

    Panels whose error exceeds their equidistributed share of the budget are
    bisected; unsplit panels are never re-evaluated.  Raises ConvergenceError
    (carrying the best estimate) if the panel budget runs out.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi)
    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            return total, err
        m = lo.size
        split = errs > 0.5 * tol / m
        if not split.any():
            split[np.argmax(errs)] = True
        if m + int(split.sum()) > max_panels:
            raise ConvergenceError(
                f"panel budget {max_panels} exhausted at error {err:.3e} (tol {tol:.3e})",
                estimate=total, error_estimate=err)
        keep = ~split
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        child_lo = np.concatenate([slo, smid])
        child_hi = np.concatenate([smid, shi])
        cvals, cerrs = _eval_panels(f, child_lo, child_hi)
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
