"""Bath spectral function and the distance-dependent decoherence integral.

Natural units hbar = c = k_B = 1 throughout, so frequency, temperature and
inverse length/time all share one unit.  The central quantity is

    Gamma(r, tau) = A * int_0^inf dw w^(s-2) (1 - cos w*tau) coth(w/2T)
                                  * sinc(w*r) * exp(-w/Omega)

evaluated by a three-part scheme: a 24-node Gauss-Jacobi rule on [0, w_c]
that absorbs the w^(s-1)-type endpoint behaviour exactly, a body on
[w_c, W], and an analytic bound for the tail beyond W that is folded into
the reported error estimate.  The cutoff-and-thermal factor
exp(-w/Omega) coth(w/2T) is formed in one place (_damping) and shared by
the integrand, the head and the Filon slow factors.  The body takes one of
three routes, chosen from the geometry (details and thresholds in
gamma_detailed):

- adaptive Gauss-Kronrod panels (15-point Kronrod values, errors against
  the embedded 7-point Gauss rule) that resolve every oscillation, at small
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

from . import quadrature
from .dephasing import DecoherencePair
from .errors import ConvergenceError, DomainError
from .quadrature import QuadratureConfig

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


def _damping(bath: BathParams, tau: float):
    """w -> exp(-w/Omega) coth(w/2T) for w > 0 (exp(-w/Omega) alone at T = 0).

    Below 1e-4 min(T, 1/tau) coth takes its Laurent series 2T/w + w/(6T);
    from w = 40 T on it is 1 to double precision.
    """
    Om, T = bath.Omega, bath.T
    if T == 0.0:
        return lambda om: np.exp(-om / Om)
    series_below = 1e-4 * (min(T, 1.0 / tau) if tau > 0.0 else T)

    def damp(om):
        coth = np.empty_like(om)
        x = om / (2.0 * T)
        small = om < series_below
        big = x >= 20.0
        mid = ~(small | big)
        coth[small] = 2.0 * T / om[small] + om[small] / (6.0 * T)
        coth[big] = 1.0
        coth[mid] = 1.0 + 2.0 / np.expm1(2.0 * x[mid])
        return np.exp(-om / Om) * coth

    return damp


_TINY = float(np.finfo(float).tiny)


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x for x >= 0; below the smallest normal it is 1 to the last bit
    x = np.maximum(x, _TINY)
    return np.sin(x) / x


def decoherence_integrand(omega, bath: BathParams, geom: GeometryParams) -> np.ndarray:
    """Stable elementwise evaluation of the Gamma integrand.

    Uses (1-cos w*tau)/w^2 = 2 (sin(w*tau/2)/w)^2, sin(x)/x written out and
    the branched coth of _damping, so no 0/0 or inf*0 is formed down to the
    smallest normal w.  w = 0 itself is mapped to the analytic limit.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    zero = om == 0.0
    any_zero = zero.any()
    w = np.where(zero, 1.0, om) if any_zero else om
    # (sin/w)^2 before w^s: apart, w^(s-2) overflows and sin^2 underflows
    half = np.sin(0.5 * geom.tau * w) / w
    val = 2.0 * bath.A * half * half * w ** bath.s * _damping(bath, geom.tau)(w)
    if geom.r > 0.0:
        val *= _sinc(w * geom.r)
    if any_zero:
        if bath.T == 0.0 or bath.s > 1.0:
            lim = 0.0
        elif bath.s == 1.0:
            lim = bath.A * geom.tau ** 2 * bath.T
        else:
            lim = np.inf
        val[zero] = lim
    return val


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    # P_n(x) by the recurrence of scipy's eval_legendre for integer n and
    # |x| >= 1e-5, in its operation order; the even-m rules of the head have
    # no node inside |x| < 1e-5, where scipy sums a series instead
    if n == 0:
        return np.ones_like(x)
    d = x - 1.0
    p = x.copy()
    for kk in range(n - 1):
        k = kk + 1.0
        d = (2.0 * k + 1.0) / (k + 1.0) * (x - 1.0) * p + k / (k + 1.0) * d
        p = d + p
    return p


def _jacobi(n: int, alpha: int, beta: float, x: np.ndarray) -> np.ndarray:
    # P_n^(alpha, beta)(x) for integer alpha >= 0 by the recurrence of scipy's
    # eval_jacobi for integer n, in its operation order; binom(n + alpha, n)
    # is an integer there, so math.comb gives the same double
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return 0.5 * (2.0 * (alpha + 1) + (alpha + beta + 2.0) * (x - 1.0))
    d = (alpha + beta + 2.0) * (x - 1.0) / (2.0 * (alpha + 1))
    p = d + 1.0
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2.0 * k + alpha + beta
        d = (t * (t + 1.0) * (t + 2.0) * (x - 1.0) * p
             + 2.0 * k * (k + beta) * (t + 2.0) * d) \
            / (2.0 * (k + alpha + 1.0) * (k + alpha + beta + 1.0) * t)
        p = d + p
    return math.comb(n + alpha, n) * p


@functools.lru_cache(maxsize=32)
def _jacobi_rule(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """m-node Gauss rule for the weight (1 + x)^beta on [-1, 1].

    The algorithm of scipy.special.roots_jacobi(m, 0, beta), step for step:
    Golub-Welsch eigenvalues of the Jacobi matrix, one Newton step, weights
    from log-normalised P_(m-1) and P_m', scaled to the total mass.
    numpy's eigvalsh replaces scipy.linalg, and the polynomials take
    scipy's three-term recurrences (_legendre, _jacobi), so no scipy module
    loads.  The nodes are bit-equal to scipy's for even m, and so are the
    weights at beta = 0, which takes the Legendre recurrence and
    symmetrises the rule, as scipy does.  For beta != 0 the mass is the
    exact 2^(beta+1)/(beta+1), where scipy forms 2^(beta+1) B(1, beta+1),
    and the weights differ from scipy's by at most 2 ulp.
    """
    k = np.arange(1, m, dtype=float)
    if beta == 0.0:
        diag = np.zeros(m)
        off = k * np.sqrt(1.0 / (4 * k * k - 1))
        mu0 = 2.0
        p = _legendre

        def dp(n, x):
            return (-n * x * p(n, x) + n * p(n - 1, x)) / (1 - x ** 2)
    else:
        b = beta
        diag = np.empty(m)
        diag[0] = b / (2 + b)
        diag[1:] = b * b / ((2.0 * k + b) * (2.0 * k + b + 2))
        off = (2.0 / (2.0 * k + b) * np.sqrt(k * (k + b) / (2 * k + b + 1))
               * np.where(k == 1, 1.0, np.sqrt(k * (k + b) / (2.0 * k + b - 1))))
        mu0 = 2.0 ** (b + 1) / (b + 1)

        def p(n, x):
            return _jacobi(n, 0, b, x)

        def dp(n, x):
            return 0.5 * (n + b + 1) * _jacobi(n - 1, 1, b + 1, x)

    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    dy = dp(m, x)
    x -= p(m, x) / dy
    fm = p(m - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if beta == 0.0:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    # read-only, because every caller with the same (m, beta) shares the arrays
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


_HEAD_NODES = 24


def _head_integral(bath: BathParams, geom: GeometryParams, wc: float) -> tuple[float, float]:
    """Gauss-Jacobi evaluation of [0, wc]; the w^(s-1) (or w^s at T=0)
    endpoint factor is the Jacobi weight, the remainder is analytic."""
    damp = _damping(bath, geom.tau)

    def smooth(om):
        # Jacobi nodes are interior, so om > 0 and the quotients are safe
        half = np.sin(0.5 * geom.tau * om) / om
        g = 2.0 * half * half * damp(om)
        if geom.r > 0.0:
            g *= _sinc(om * geom.r)
        if bath.T > 0.0:
            g *= om  # w coth(w/2T) -> 2T at w = 0
        return g

    if bath.T > 0.0:
        beta = bath.s - 1.0
        prefac = bath.A * (0.5 * wc) ** bath.s
    else:
        beta = bath.s
        prefac = bath.A * (0.5 * wc) ** (bath.s + 1.0)

    vals = []
    for m in (_HEAD_NODES // 2, _HEAD_NODES):
        x, w = _jacobi_rule(m, beta)
        om = 0.5 * wc * (x + 1.0)
        vals.append(prefac * float(w @ smooth(om)))
    return vals[1], abs(vals[1] - vals[0])


def _upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x), the upper incomplete gamma function, for x > a + 1.

    Legendre's continued fraction, summed by the modified Lentz method
    until a factor is within eps of 1; for x > a + 1 its denominators stay
    positive.  At x = 40 and 1 < a < 2 it takes 5 or 6 steps.
    """
    b = x + 1.0 - a
    c = math.inf
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(a * math.log(x) - x) * h


def _tail_bound(bath: BathParams, W: float) -> float:
    """Bound on the integrand's integral over [W, inf).

    |1-cos| <= 2, |sinc| <= 1, coth(w/2T) <= 1 + 2T/w <= 1 + 2T/W, so it is
    at most the factor times int_W^inf w^(s-2) e^(-w/Omega) dw, which for
    s <= 2 is at most W^(s-2) Omega e^(-W/Omega) and for s > 2 is
    Omega^(s-1) Gamma(s-1, W/Omega), with W/Omega >= 40 > s.
    """
    factor = 2.0 * bath.A
    if bath.T > 0.0:
        factor *= 1.0 + 2.0 * bath.T / W
    if bath.s <= 2.0:
        integ = W ** (bath.s - 2.0) * bath.Omega * math.exp(-W / bath.Omega)
    else:
        integ = bath.Omega ** (bath.s - 1.0) * _upper_gamma(bath.s - 1.0, W / bath.Omega)
    return factor * integ


# Filon body: per-panel Legendre fit of a slow factor, exact phase moments.
_FILON_DEG = 15
_EPS = float(np.finfo(float).eps)


# the non-negative nodes and their weights of numpy.polynomial.legendre
# leggauss(15), as repr prints them, so numpy.polynomial need not load
_GL15_X = (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
           0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854)
_GL15_W = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
           0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203)


@functools.cache
def _filon_matrix() -> tuple[np.ndarray, np.ndarray]:
    # Gauss values -> Legendre coefficients of the interpolant, and the nodes;
    # read-only, because every pass shares them
    x = np.array([*(-v for v in _GL15_X[:0:-1]), *_GL15_X])
    w = np.array([*_GL15_W[:0:-1], *_GL15_W])
    # P_i(x) by the recurrence of numpy's legvander, in its operation order
    V = [np.ones_like(x), x]
    for i in range(2, _FILON_DEG):
        V.append((V[-1] * x * (2 * i - 1) - V[-2] * (i - 1)) / i)
    n = np.arange(_FILON_DEG)
    B = (n + 0.5)[:, None] * (np.array(V) * w)
    B.flags.writeable = x.flags.writeable = False
    return B, x


# j_n(z) for z < 15 by Miller's downward recurrence from this order
_MILLER_START = 40
_ODD = 2.0 * np.arange(_MILLER_START + 1) + 1.0  # 2n + 1


def _spherical_jn(z: np.ndarray) -> np.ndarray:
    """Spherical Bessel j_n(z), n < _FILON_DEG, for z >= 0; shape z.shape + (n,).

    z >= 15 > n: upward recurrence from j_0 and j_1, as scipy.special
    spherical_jn takes it there.  1e-4 <= z < 15: Miller's downward
    recurrence from order 40, normalised to the larger of |j_0| and |j_1|.
    0 < z < 1e-4: two terms of the power series.  z = 0: exact.  Every
    element is computed on its own, so a value does not depend on the
    other arguments of the call.  Against scipy the absolute difference is
    below 1.7e-15; against 40-digit mpmath, below 2.3e-16.
    """
    out = np.zeros(z.shape + (_FILON_DEG,))
    out[z == 0.0, 0] = 1.0
    tiny = (z > 0.0) & (z < 1e-4)
    up = z >= 15.0
    down = (z >= 1e-4) & ~up
    if tiny.any():
        x = z[tiny][:, None]
        # (2n+1)!! up to 29!! is an exact double
        out[tiny] = x ** np.arange(_FILON_DEG) / np.cumprod(_ODD[:_FILON_DEG]) \
            * (1.0 - x * x / (2.0 * _ODD[1:_FILON_DEG + 1]))
    if up.any():
        x = z[up]
        j = [np.sin(x) / x]
        j.append((j[0] - np.cos(x)) / x)
        for order in range(1, _FILON_DEG - 1):
            j.append(_ODD[order] * j[-1] / x - j[-2])
        out[up] = np.stack(j, axis=-1)
    if down.any():
        x = z[down]
        ratio = np.divide.outer(_ODD, x)
        # from order 40 down to 0 the values grow by at most 1e221 (x = 1e-4)
        ahead, f = np.zeros_like(x), np.full_like(x, 1e-250)
        j = []
        for order in range(_MILLER_START, 0, -1):
            ahead, f = f, ratio[order] * f - ahead
            if order <= _FILON_DEG:
                j.append(f)
        j = np.stack(j[::-1], axis=-1)
        j0 = np.sin(x) / x
        j1 = (j0 - np.cos(x)) / x
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / j[:, 0], j1 / j[:, 1])
        out[down] = j * scale[:, None]
    return out


def _rotation(turns, trig):
    """cos and sin of the sum of turn * angle, turns in {-1, 0, 1}, by angle
    addition from trig, the (cos, sin) of each angle."""
    rot = None
    for turn, (cos_b, sin_b) in zip(turns, trig):
        if not turn:
            continue
        if turn < 0:
            sin_b = -sin_b
        if rot is None:
            rot = cos_b, sin_b
        else:
            cos_p, sin_p = rot
            rot = cos_p * cos_b - sin_p * sin_b, sin_p * cos_b + cos_p * sin_b
    return (1.0, 0.0) if rot is None else rot


def _filon_pass(F, mid: np.ndarray, h: np.ndarray, phases, geom: GeometryParams,
                bessel) -> tuple[float, float]:
    """sum of weight * int F(w) trig(k w) dw over the panels mid +- h, and a
    bound on its rounding error.

    phases holds (weight, a, b, cosine) for the frequency k = a r + b tau
    >= 0, a and b in {-1, 0, 1}; trig is cos when cosine is true and sin
    otherwise.  F is replaced on each panel by its Legendre interpolant at
    the Gauss nodes, whose moments against e^(ikw) are exact:
    2h i^n j_n(k h) e^(ik mid).  bessel(widths) gives j_n(k h) for every
    phase at the distinct half-widths.  e^(ik mid) is built by angle
    addition from cos and sin of r mid and tau mid, each formed once, so the
    phases share the rounding of those two angles and it cancels where they
    do.  The rounding bound is eps times the absolute panel terms, each
    weighted by 1 + (|a| r + |b| tau) mid for the error of the rounded
    angles; it covers the cancellation between phases.
    """
    B, xg = _filon_matrix()
    xs = mid[:, None] + h[:, None] * xg
    coef = F(xs.ravel()).reshape(xs.shape) @ B.T
    widths, which = np.unique(h, return_inverse=True)
    rates = (geom.r, geom.tau)
    trig = [(np.cos(rate * mid), np.sin(rate * mid)) for rate in rates]
    two_h = 2.0 * h
    total = rounding = 0.0
    for (weight, a, b, cosine), j in zip(phases, bessel(widths)):
        cj = coef * j[which]
        # i^n cycles through 1, i, -1, -i: split the orders by n mod 4
        even = cj[:, 0::4].sum(axis=1) - cj[:, 2::4].sum(axis=1)
        odd = cj[:, 1::4].sum(axis=1) - cj[:, 3::4].sum(axis=1)
        cos_p, sin_p = _rotation((a, b), trig)
        if cosine:
            terms = two_h * (even * cos_p - odd * sin_p)
        else:
            terms = two_h * (even * sin_p + odd * cos_p)
        total += weight * float(terms.sum())
        reach = abs(a) * rates[0] + abs(b) * rates[1]
        rounding += abs(weight) * float(np.abs(terms) @ (1.0 + reach * mid))
    return total, _EPS * rounding


def _filon_integral(F, panels, phases, geom: GeometryParams, abs_tol: float,
                    rel_tol: float, max_panels: int) -> tuple[float, float]:
    """Filon passes on panels halved until two successive ones agree to
    max(abs_tol, rel_tol |value|); the estimate adds the rounding bound.

    Halving maps most half-widths onto ones the previous pass had, so the
    Bessel values are kept per half-width.  A pass that meets new widths
    takes their halves in the same call, because the next pass will need
    them and a call costs about as much for a few values as for a hundred.
    """
    ks = np.array([a * geom.r + b * geom.tau for _, a, b, _ in phases])
    known = {}

    def bessel(widths):
        missing = [w for w in widths.tolist() if w not in known]
        if missing:
            batch = [w for w in dict.fromkeys(missing + [0.5 * w for w in missing])
                     if w not in known]
            jn = _spherical_jn(np.multiply.outer(ks, batch))
            for i, w in enumerate(batch):
                known[w] = jn[:, i]
        return np.stack([known[w] for w in widths.tolist()], axis=1)

    mid, h = panels
    (cur, rounding), err = _filon_pass(F, mid, h, phases, geom, bessel), math.inf
    while 2 * mid.size <= max_panels:
        prev = cur
        mid = np.concatenate([mid - 0.5 * h, mid + 0.5 * h])
        h = np.concatenate([0.5 * h, 0.5 * h])
        cur, rounding = _filon_pass(F, mid, h, phases, geom, bessel)
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


def _filon_factor(bath: BathParams, geom: GeometryParams, fast: bool):
    """Slow factor F and exact phases (weight, a, b, cosine) of the
    integrand, the frequency being k = a r + b tau.

    fast keeps the slower of the two oscillations in F:
    r > tau: sin(w r) against 2A w^(s-3) sin(w tau/2)^2 D(w) / r;
    r < tau: 1 - cos(w tau) against A w^(s-2) sinc(w r) D(w).
    Otherwise both are exact phases, (1 - cos w tau) sin(w r) = sin(w r)
    - sin(w (r + tau))/2 - sin(w (r - tau))/2 against A w^(s-3) D(w) / r,
    which at r = 0 is the r < tau form with sinc(0) = 1.
    D(w) = exp(-w/Omega) coth(w/2T) is _damping.
    """
    A, s = bath.A, bath.s
    r, tau = geom.r, geom.tau
    damp = _damping(bath, tau)
    if fast and r > tau:
        phases = ((1.0, 1, 0, False),)

        def F(om):
            half = np.sin(0.5 * tau * om)
            return 2.0 * A / r * om ** (s - 3.0) * half * half * damp(om)
    elif fast or r == 0.0:
        phases = ((1.0, 0, 0, True), (-1.0, 0, 1, True))

        def F(om):
            return A * om ** (s - 2.0) * _sinc(om * r) * damp(om)
    else:
        # sin(w (r - tau)) = -sin(w (tau - r)): keep every k >= 0
        phases = ((1.0, 1, 0, False), (-0.5, 1, 1, False),
                  (-0.5, 1, -1, False) if r >= tau else (0.5, -1, 1, False))

        def F(om):
            return A / r * om ** (s - 3.0) * damp(om)

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

    - Adaptive Gauss-Kronrod while N <= 1,000, or N <= 30,000 for
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
    plus the body's (adaptive: summed |K15 - G7| panel differences, the
    error of the embedded 7-point Gauss rule, which overstates that of the
    returned 15-point Kronrod value; Filon: the change under the last
    halving of every panel, which is the error of the coarser pass and
    overstates that of the returned one, plus a bound on the rounding
    error), plus a bound on the tail beyond
    W, and at least 1e-15 |value|, about 4.5 eps: the adaptive body sums
    some 10^4 integrand values, each rounded by a few ulps, and on smooth
    geometries its truncation estimate falls below that (at s = 2, T = 1,
    Omega = 10, tau = 2, r = 0.001 the error is 3.5e-16 |value|).  The
    body is refined until its truncation part is within
    max(abs_tol/2, rel_tol |body|); when quad.max_panels runs out first, a
    ConvergenceError carries the best estimate.  The Filon rounding bound
    is eps times the cancellation factor and cannot be refined, so where
    the phases cancel strongly the estimate can exceed rel_tol |value|
    (about 1e-5 relative at r = 1e8, tau = 1e3, Omega = 10); it is still
    returned.

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

    head, head_err = _head_integral(bath, geom, wc)
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
        else:
            fast = cancels and (W - wc) / slow_cap <= 30_000
            F, phases = _filon_factor(bath, geom, fast)
            panels = _filon_panels(wc, W, slow_cap if fast else Om)
            body, body_err = _filon_integral(F, panels, phases, geom, **tols)
    except ConvergenceError as exc:
        raise ConvergenceError(
            str(exc), estimate=head + exc.estimate,
            error_estimate=head_err + exc.error_estimate + tail) from None

    value = head + body
    err = head_err + body_err + tail
    err = max(err, 1e-15 * abs(value))
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
