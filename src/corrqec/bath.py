"""Bath spectral function and the distance-dependent decoherence integral.

Natural units hbar = c = k_B = 1 throughout, so frequency, temperature and
inverse length/time all share one unit.  The central quantity is

    Gamma(r, tau) = A * int_0^inf dw w^(s-2) (1 - cos w*tau) coth(w/2T)
                                  * sinc(w*r) * exp(-w/Omega)

evaluated by a three-part scheme: a Gauss-Jacobi rule on [0, w_c] that
absorbs the w^(s-1)-type endpoint behaviour exactly, a body on [w_c, W],
and an analytic bound for the tail beyond W that is folded into the
reported error estimate.  The body takes one of three routes, chosen from
the geometry (details and thresholds in gamma_detailed):

- adaptive Gauss-Legendre panels that resolve every oscillation, at small
  geometries where that is cheapest;
- a Filon rule once resolving would be too costly: the oscillating factors
  are written as exact phases and integrated exactly against a per-panel
  Legendre fit of the remaining slow factor.  The three-phase form
  sin(w r) - sin(w (r+tau))/2 - sin(w (r-tau))/2 (1 - cos(w tau) at r = 0)
  has panels whose count does not grow with r or tau, but its phases cancel
  when r << tau or r >> tau.  There, while the slower oscillation is cheap
  to resolve, the fast-phase form keeps it in the slow factor (1 - cos(w tau)
  for r >> tau, sin(w r)/(w r) for r << tau) and integrates the faster one
  alone.

Every route reports an error estimate meant to bound the error; the Filon
estimate includes a bound on its rounding error, which grows with the
cancellation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import quadrature
from .dephasing import DecoherencePair
from .errors import ConvergenceError, DomainError

__all__ = [
    "BathParams", "GeometryParams", "QuadratureConfig", "GammaEstimate",
    "spectral_density", "decoherence_integrand", "gamma", "gamma_detailed",
    "gamma_pair", "scaled_gamma", "scaling_identity_sides",
]


@dataclass(frozen=True)
class BathParams:
    """Spectral and thermal parameters (A, s, Omega, T) of the bosonic bath."""

    A: float
    s: float
    Omega: float
    T: float

    def __post_init__(self):
        if not self.A >= 0.0:
            raise DomainError(f"coupling amplitude must be >= 0, got {self.A}")
        if not 0.0 < self.s < 3.0:
            raise DomainError(f"spectral exponent must lie in (0, 3), got {self.s}")
        if not self.Omega > 0.0:
            raise DomainError(f"cutoff must be > 0, got {self.Omega}")
        if not self.T >= 0.0:
            raise DomainError(f"temperature must be >= 0, got {self.T}")


@dataclass(frozen=True)
class GeometryParams:
    """Inter-qubit distance r and observation time tau."""

    r: float
    tau: float

    def __post_init__(self):
        if not self.r >= 0.0:
            raise DomainError(f"distance must be >= 0, got {self.r}")
        if not self.tau >= 0.0:
            raise DomainError(f"time must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the decoherence integral.

    abs_tol=None selects the default 1e-12 * A * Omega^(s-1).
    """

    abs_tol: float | None = None
    rel_tol: float = 1e-9
    max_panels: int = 200_000
    head_nodes: int = 24


@dataclass(frozen=True)
class GammaEstimate:
    value: float
    error_estimate: float
    singular_flag: bool = False


def spectral_density(bath: BathParams, omega):
    """J(w) = A w^s exp(-w/Omega); scalar in, scalar out (arrays pass through)."""
    om = np.asarray(omega, dtype=float)
    if np.any(om < 0.0):
        raise DomainError("frequency must be >= 0")
    val = bath.A * om ** bath.s * np.exp(-om / bath.Omega)
    return float(val) if np.isscalar(omega) or om.ndim == 0 else val


def _series_threshold(T: float, tau: float) -> float:
    # below this frequency coth is replaced by its Laurent series 2T/w + w/(6T)
    lim = T
    if tau > 0.0:
        lim = min(lim, 1.0 / tau)
    return 1e-4 * lim


def _coth(omega: np.ndarray, T: float, series_below: float) -> np.ndarray:
    out = np.empty_like(omega)
    x = omega / (2.0 * T)
    small = omega < series_below
    big = x >= 20.0
    mid = ~(small | big)
    out[small] = 2.0 * T / omega[small] + omega[small] / (6.0 * T)
    out[big] = 1.0
    out[mid] = 1.0 + 2.0 / np.expm1(2.0 * x[mid])
    return out


_TINY = float(np.finfo(float).tiny)


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x for x >= 0; below the smallest normal it is 1 to the last bit
    x = np.maximum(x, _TINY)
    return np.sin(x) / x


def decoherence_integrand(omega, bath: BathParams, geom: GeometryParams) -> np.ndarray:
    """Stable elementwise evaluation of the Gamma integrand.

    Uses (1-cos w*tau)/w^2 = 2 (sin(w*tau/2)/w)^2, sin(x)/x written out and a
    branched coth, so no 0/0 or inf*0 is formed down to the smallest normal
    w.  w = 0 itself is mapped to the analytic limit.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    zero = om == 0.0
    any_zero = zero.any()
    w = np.where(zero, 1.0, om) if any_zero else om
    # (sin/w)^2 before w^s: apart, w^(s-2) overflows and sin^2 underflows
    half = np.sin(0.5 * geom.tau * w) / w
    val = 2.0 * bath.A * half * half * w ** bath.s * np.exp(-w / bath.Omega)
    if geom.r > 0.0:
        val *= _sinc(w * geom.r)
    if bath.T > 0.0:
        val *= _coth(w, bath.T, _series_threshold(bath.T, geom.tau))
    if any_zero:
        if bath.T == 0.0 or bath.s > 1.0:
            lim = 0.0
        elif bath.s == 1.0:
            lim = bath.A * geom.tau ** 2 * bath.T
        else:
            lim = np.inf
        val[zero] = lim
    return val


@functools.lru_cache(maxsize=32)
def _jacobi_rule(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    # read-only, because every caller with the same (m, beta) shares the arrays
    x, w = special.roots_jacobi(m, 0.0, beta)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _head_integral(bath: BathParams, geom: GeometryParams, wc: float,
                   nodes: int) -> tuple[float, float]:
    """Gauss-Jacobi evaluation of [0, wc]; the w^(s-1) (or w^s at T=0)
    endpoint factor is the Jacobi weight, the remainder is analytic."""
    thr = _series_threshold(bath.T, geom.tau) if bath.T > 0.0 else 0.0

    def smooth(om):
        # Jacobi nodes are interior, so om > 0 and the quotients are safe
        half = np.sin(0.5 * geom.tau * om) / om
        g = 2.0 * half * half * np.exp(-om / bath.Omega)
        if geom.r > 0.0:
            g *= _sinc(om * geom.r)
        if bath.T > 0.0:
            wcoth = np.where(om < thr,
                             2.0 * bath.T + om ** 2 / (6.0 * bath.T),
                             om * (1.0 + 2.0 / np.expm1(
                                 np.minimum(om / bath.T, 50.0))))
            g = g * wcoth
        return g

    if bath.T > 0.0:
        beta = bath.s - 1.0
        prefac = bath.A * (0.5 * wc) ** bath.s
    else:
        beta = bath.s
        prefac = bath.A * (0.5 * wc) ** (bath.s + 1.0)

    vals = []
    for m in (nodes // 2, nodes):
        x, w = _jacobi_rule(m, beta)
        om = 0.5 * wc * (x + 1.0)
        vals.append(prefac * float(w @ smooth(om)))
    return vals[1], abs(vals[1] - vals[0])


def _tail_bound(bath: BathParams, W: float) -> float:
    # |1-cos| <= 2, |sinc| <= 1, coth(w/2T) <= 1 + 2T/w <= 1 + 2T/W
    factor = 2.0 * bath.A
    if bath.T > 0.0:
        factor *= 1.0 + 2.0 * bath.T / W
    if bath.s <= 2.0:
        integ = W ** (bath.s - 2.0) * bath.Omega * math.exp(-W / bath.Omega)
    else:
        integ = bath.Omega ** (bath.s - 1.0) * math.gamma(bath.s - 1.0) \
            * special.gammaincc(bath.s - 1.0, W / bath.Omega)
    return factor * integ


# Filon body: per-panel Legendre fit of a slow factor, exact phase moments.
_FILON_DEG = 15
_EPS = float(np.finfo(float).eps)
_B_FILON = None


def _filon_matrix():
    global _B_FILON
    if _B_FILON is None:
        x, w = np.polynomial.legendre.leggauss(_FILON_DEG)
        V = np.polynomial.legendre.legvander(x, _FILON_DEG - 1)
        n = np.arange(_FILON_DEG)
        _B_FILON = ((n + 0.5)[:, None] * (V.T * w), x)
    return _B_FILON


def _filon_pass(F, mid: np.ndarray, h: np.ndarray, phases) -> tuple[float, float]:
    """sum of weight * int F(w) trig(k w) dw over the panels mid +- h, and a
    bound on its rounding error.

    phases holds (weight, k >= 0, cosine) triples; trig is cos when cosine is
    true and sin otherwise.  F is replaced on each panel by its Legendre
    interpolant at the Gauss nodes, whose moments against e^(ikw) are exact:
    2h i^n j_n(k h) e^(ik mid).  The Bessel values depend on k h only, so
    they are taken once per distinct half-width.  The rounding bound is eps
    times the absolute panel terms, each weighted by 1 + k mid for the error
    of the rounded phase; it covers the cancellation between phases.
    """
    B, xg = _filon_matrix()
    xs = mid[:, None] + h[:, None] * xg
    coef = F(xs.ravel()).reshape(xs.shape) @ B.T
    widths, which = np.unique(h, return_inverse=True)
    ks = np.array([k for _, k, _ in phases])
    jn = special.spherical_jn(np.arange(_FILON_DEG),
                              (ks[:, None] * widths)[:, :, None])
    total = rounding = 0.0
    for (weight, k, cosine), j in zip(phases, jn):
        cj = coef * j[which]
        # i^n cycles through 1, i, -1, -i: split the orders by n mod 4
        even = cj[:, 0::4].sum(axis=1) - cj[:, 2::4].sum(axis=1)
        odd = cj[:, 1::4].sum(axis=1) - cj[:, 3::4].sum(axis=1)
        phase = k * mid
        sin_p, cos_p = np.sin(phase), np.cos(phase)
        if cosine:
            terms = 2.0 * h * (even * cos_p - odd * sin_p)
        else:
            terms = 2.0 * h * (even * sin_p + odd * cos_p)
        total += weight * float(terms.sum())
        rounding += abs(weight) * float(np.abs(terms) @ (1.0 + phase))
    return total, _EPS * rounding


def _filon_integral(F, panels, phases, abs_tol: float, rel_tol: float,
                    max_panels: int) -> tuple[float, float]:
    """Filon passes on panels halved until two successive ones agree to
    max(abs_tol, rel_tol |value|); the estimate adds the rounding bound."""
    mid, h = panels
    (cur, rounding), err = _filon_pass(F, mid, h, phases), math.inf
    while 2 * mid.size <= max_panels:
        prev = cur
        mid = np.concatenate([mid - 0.5 * h, mid + 0.5 * h])
        h = np.concatenate([0.5 * h, 0.5 * h])
        cur, rounding = _filon_pass(F, mid, h, phases)
        err = abs(cur - prev)
        if err <= max(abs_tol, rel_tol * abs(cur)):
            return cur, err + rounding
    raise ConvergenceError(
        f"oscillatory quadrature did not settle within {max_panels} panels",
        estimate=cur, error_estimate=err + rounding)


def _filon_panels(wc: float, W: float, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """(mid, half-width) of panels covering [wc, W]: [x, 2x] from x = wc while
    x < cap, then equal widths no wider than cap.

    The widths are wc times powers of two plus one shared width, so a Filon
    pass meets only a few distinct half-widths.
    """
    starts = []
    x = wc
    while x < cap and 2.0 * x < W:
        starts.append(x)
        x *= 2.0
    geo = np.asarray(starts)
    count = math.ceil((W - x) / cap)
    h = 0.5 * (W - x) / count
    mid = np.concatenate([1.5 * geo, x + h * (2.0 * np.arange(count) + 1.0)])
    return mid, np.concatenate([0.5 * geo, np.full(count, h)])


def _fast_phase_factor(bath: BathParams, geom: GeometryParams):
    """Slow factor and exact phases with the slower of the two oscillations
    kept in the slow factor.

    r > tau: sin(w r) against 2A w^(s-3) sin(w tau/2)^2 coth(w/2T) e^(-w/Omega) / r.
    r < tau: 1 - cos(w tau) against A w^(s-2) sinc(w r) coth(w/2T) e^(-w/Omega).
    """
    r, tau = geom.r, geom.tau
    thr = _series_threshold(bath.T, tau) if bath.T > 0.0 else 0.0
    if r > tau:
        phases = ((1.0, r, False),)

        def slow(om):
            half = np.sin(0.5 * tau * om)
            return 2.0 * bath.A / r * om ** (bath.s - 3.0) * half * half
    else:
        phases = ((1.0, 0.0, True), (-1.0, tau, True))

        def slow(om):
            return bath.A * om ** (bath.s - 2.0) * _sinc(om * r)

    def F(om):
        v = slow(om) * np.exp(-om / bath.Omega)
        if bath.T > 0.0:
            v = v * _coth(om, bath.T, thr)
        return v

    return F, phases


def _three_phase_factor(bath: BathParams, geom: GeometryParams):
    """Slow factor and exact phases of the integrand.

    r > 0: (1 - cos w tau) sin(w r) = sin(w r) - sin(w (r + tau))/2
    - sin(w (r - tau))/2 against A w^(s-3) coth(w/2T) e^(-w/Omega) / r.
    r = 0: 1 - cos(w tau) against A w^(s-2) coth(w/2T) e^(-w/Omega).
    """
    r, tau = geom.r, geom.tau
    thr = _series_threshold(bath.T, tau) if bath.T > 0.0 else 0.0
    if r > 0.0:
        amp, power = bath.A / r, bath.s - 3.0
        # sin(w (r - tau)) = -sin(w (tau - r)): keep every k >= 0
        phases = ((1.0, r, False), (-0.5, r + tau, False),
                  (-0.5 if r >= tau else 0.5, abs(r - tau), False))
    else:
        amp, power = bath.A, bath.s - 2.0
        phases = ((1.0, 0.0, True), (-1.0, tau, True))

    def F(om):
        v = amp * om ** power * np.exp(-om / bath.Omega)
        if bath.T > 0.0:
            v = v * _coth(om, bath.T, thr)
        return v

    return F, phases


# Below r = tau / _CANCEL_RATIO the three phases cancel like tau/r.
_CANCEL_RATIO = 100.0


def gamma_detailed(bath: BathParams, geom: GeometryParams,
                   quad: QuadratureConfig | None = None) -> GammaEstimate:
    """Decoherence integral with an explicit error estimate.

    A Gauss-Jacobi head covers [0, wc]; the body [wc, W] takes one of three
    routes, chosen from the geometry.  Let N be the number of quarter-period
    panels that resolve every oscillation.  The three-phase form below
    cancels where r > 4 max(tau, 1/Omega) (like (r/tau)^2) or
    0 < r < tau/100 (like tau/r); call such geometries cancelling.

    - Adaptive Gauss-Legendre while N <= 1,000, or N <= 30,000 for
      cancelling geometries.
    - Fast-phase Filon beyond that for cancelling geometries whose slower
      oscillation, at min(r, tau), alone needs at most 30,000 quarter
      panels: that oscillation stays in the slow factor and the faster one
      is integrated exactly (sin(w r) for large r, 1 - cos(w tau) for small
      r).  Against a dense reference (tau = 215 and 2000), its error at r
      from tau/1e8 to tau/100 was below 6e-14 relative.
    - Three-phase Filon everywhere else: the slow factor against the exact
      phases r, r + tau and |r - tau| (cosine phases 0 and tau at r = 0),
      on panels capped by Omega, so its cost does not grow with r or tau.
      On cancelling geometries its rounding grows with the cancellation:
      against a dense reference the error was 6e-14 relative at r = 10 tau
      and 5e-11 at r = 100 tau, and 5e-13 at r = tau/1e4, each time below
      a third of the estimate.  It runs there only when the slower
      oscillation is fast too: min(r, tau) beyond 30,000 pi/(2W), about
      118 at Omega = 10.

    Error contract: the estimate is the head's 12- vs 24-node difference,
    plus the body's (adaptive: summed 15- vs 7-point panel differences;
    Filon: the change under the last halving of every panel, which is the
    error of the coarser pass and overstates that of the returned one,
    plus a bound on the rounding error), plus a bound on the tail beyond
    W, and at least 2e-16 |value|.  The body is refined until its
    truncation part is within max(abs_tol/2, rel_tol |body|); when
    quad.max_panels runs out first, a ConvergenceError carries the best
    estimate.  The Filon rounding bound is eps times the cancellation
    factor and cannot be refined, so where the phases cancel strongly the
    estimate can exceed rel_tol |value| (about 1e-5 relative at r = 1e8,
    tau = 1e3, Omega = 10); it is still returned.

    The singular_flag marks the qualitative 2 <= s < 3 regime where the
    integral develops a kink across r = tau; the value is still returned.
    """
    quad = quad or QuadratureConfig()
    s, Om, T = bath.s, bath.Omega, bath.T
    r, tau = geom.r, geom.tau
    flag = s >= 2.0 and tau > 0.0 and abs(r - tau) < 1e-3 * tau
    if bath.A == 0.0 or tau == 0.0:
        return GammaEstimate(0.0, 0.0, flag)

    abs_tol = quad.abs_tol if quad.abs_tol is not None \
        else 1e-12 * bath.A * Om ** (s - 1.0)
    W = Om * max(40.0, 10.0 * s)
    scales = [Om]
    if T > 0.0:
        scales.append(T)
    scales.append(1.0 / tau)
    if r > 0.0:
        scales.append(1.0 / r)
    wc = 0.5 * min(scales)

    head, head_err = _head_integral(bath, geom, wc, quad.head_nodes)
    tail = _tail_bound(bath, W)

    full_cap = 0.5 * np.pi / max(r, tau, 1.0 / Om)
    slow_cap = 0.5 * np.pi / max(min(r, tau), 1.0 / Om)
    # the three phases cancel like tau/r for r << tau and (r/tau)^2 for r >> tau
    cancels = r > 4.0 * max(tau, 1.0 / Om) or 0.0 < r * _CANCEL_RATIO < tau
    tols = dict(abs_tol=0.5 * abs_tol, rel_tol=quad.rel_tol, max_panels=quad.max_panels)
    try:
        if (W - wc) / full_cap <= (30_000 if cancels else 1_000):
            edges = quadrature.uniform_edges(wc, W, full_cap)
            body, body_err = quadrature.integrate(
                lambda om: decoherence_integrand(om, bath, geom), edges, **tols)
        elif cancels and (W - wc) / slow_cap <= 30_000:
            F, phases = _fast_phase_factor(bath, geom)
            body, body_err = _filon_integral(F, _filon_panels(wc, W, slow_cap), phases, **tols)
        else:
            F, phases = _three_phase_factor(bath, geom)
            body, body_err = _filon_integral(F, _filon_panels(wc, W, Om), phases, **tols)
    except ConvergenceError as exc:
        raise ConvergenceError(
            str(exc), estimate=head + exc.estimate,
            error_estimate=head_err + exc.error_estimate + tail) from None

    value = head + body
    err = head_err + body_err + tail
    err = max(err, 2e-16 * abs(value))
    return GammaEstimate(value, err, flag)


def gamma(bath: BathParams, geom: GeometryParams,
          quad: QuadratureConfig | None = None) -> float:
    return gamma_detailed(bath, geom, quad).value


def gamma_pair(bath: BathParams, r: float, tau: float,
               quad: QuadratureConfig | None = None) -> DecoherencePair:
    """(Gamma_0, Gamma_r) with consistency clamps of quadrature roundoff.

    A Gamma_0 or Gamma_r below zero, or a Gamma_r above Gamma_0, is clamped
    when the excess is within the slack: both error estimates plus
    1e-12 Gamma_0.  Beyond it, a negative Gamma_r means the monotone regime
    is left (2 <= s < 3 can drive Gamma_r negative), where the two-parameter
    channel does not apply, and a DomainError is raised instead of silently
    truncating; the other two raise ConvergenceError.  On the Filon routes
    the estimates are conservative (up to about 1e-10 relative where the
    values agree to 1e-14, and wider where the phases cancel, see
    gamma_detailed), so the slack there is that wide.
    """
    g0 = gamma_detailed(bath, GeometryParams(0.0, tau), quad)
    gr = g0 if r == 0.0 else gamma_detailed(bath, GeometryParams(r, tau), quad)
    slack = g0.error_estimate + gr.error_estimate + 1e-12 * abs(g0.value) + 1e-300
    v0, vr = g0.value, gr.value
    if v0 < 0.0:
        if v0 < -slack:
            raise ConvergenceError("gamma(0) computed negative",
                                   estimate=v0, error_estimate=slack)
        v0 = 0.0
    if vr < 0.0:
        if vr < -slack:
            raise DomainError(
                f"cross decoherence is negative ({vr:.6e}) at s={bath.s}; "
                "the (Gamma_0, Gamma_r) channel covers only the monotone regime")
        vr = 0.0
    if vr > v0:
        if vr - v0 > slack:
            raise ConvergenceError("gamma(r) exceeded gamma(0) beyond tolerance",
                                   estimate=vr, error_estimate=vr - v0)
        vr = v0
    return DecoherencePair(v0, vr)


def scaled_gamma(bath: BathParams, base: GeometryParams, a: float,
                 quad: QuadratureConfig | None = None) -> float:
    """Gamma evaluated at geometry (a*r0, a*tau0) with the bath unchanged."""
    if not a > 0.0:
        raise DomainError(f"scale factor must be > 0, got {a}")
    return gamma(bath, GeometryParams(base.r * a, base.tau * a), quad)


def scaling_identity_sides(bath: BathParams, base: GeometryParams, a: float,
                           quad: QuadratureConfig | None = None
                           ) -> tuple[GammaEstimate, GammaEstimate]:
    """Both sides of Gamma(s, a r0, a tau0, T, Omega) = a^(1-s) Gamma(s, r0, tau0, aT, aOmega).

    Returned as detailed estimates so equality can be asserted against the
    combined quadrature errors.
    """
    if not a > 0.0:
        raise DomainError(f"scale factor must be > 0, got {a}")
    lhs = gamma_detailed(bath, GeometryParams(base.r * a, base.tau * a), quad)
    scaled_bath = BathParams(bath.A, bath.s, bath.Omega * a, bath.T * a)
    rd = gamma_detailed(scaled_bath, base, quad)
    fac = a ** (1.0 - bath.s)
    rhs = GammaEstimate(fac * rd.value, fac * rd.error_estimate, rd.singular_flag)
    return lhs, rhs
