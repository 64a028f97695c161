"""Bath spectral function and the distance-dependent decoherence integral.

Natural units hbar = c = k_B = 1 throughout, so frequency, temperature and
inverse length/time all share one unit.  The central quantity is

    Gamma(r, tau) = A * int_0^inf dw w^(s-2) (1 - cos w*tau) coth(w/2T)
                                  * sinc(w*r) * exp(-w/Omega)

evaluated in closed form.  coth(w/2T) = 1 + 2 sum_(m>=1) exp(-m w/T) turns
it into a Matsubara series Gamma = A sum_m c_m F_e(a_m), with c_0 = 1,
c_m = 2 and a_m = 1/Omega + m/T (m = 0 alone at T = 0), and each term is an
elementary Laplace transform (Gradshteyn & Ryzhik 3.944):

    r = 0:  F_x(a) = Gamma(x) Re[a^-x - (a - i tau)^-x],                 e = s - 1
    r > 0:  F_x(a) = Gamma(x)/r Im[z^-x - (z - i tau)^-x/2 - (z + i tau)^-x/2],
            z = a - i r,                                                  e = s - 2

Since dF_x/da = -F_(x+1) and int_a^inf F_x = F_(x-1), the terms from m = 24
on are summed by the Euler-Maclaurin formula, itself in closed form.  Where
the phases nearly cancel, a term takes the series in u = i tau/z (r >> tau,
or tau << a) or the polar difference of the two tau phases (r << tau); else
the powers themselves, in real arithmetic.  Gamma(x) has poles at s = 1
and s = 2, the CLI's default bath and the kink; the combinations cancel
them, and near them the pole is taken out analytically.  Every form bounds
its rounding error, so the estimate of gamma_detailed bounds the error of
the value.  decoherence_integrand writes the integrand out for checks; the
closed form does not use it.

The points a_m, their weights and everything the forms read of them alone
(Gamma(x), the pole coefficients, the series' Gamma ratios) are built once
per bath and kept in a cache.  The forms take r and tau as arrays aligned
with the points, so one call evaluates a batch of geometries of one bath:
gamma_detailed is the batch of one, gamma_pair a batch of two, and the
scalability verdict one batch per n grid.  Every geometry keeps its own
sums, and its value and estimate are the same bits in any batch.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dephasing import DecoherencePair
from .errors import ConvergenceError, DomainError

__all__ = [
    "BathParams", "GeometryParams", "GammaEstimate",
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


def _damping(bath: BathParams, om: np.ndarray) -> np.ndarray:
    """exp(-w/Omega) coth(w/2T) for w > 0 (exp(-w/Omega) alone at T = 0).

    coth = 1 + 2/expm1(w/T) keeps its relative accuracy down to the smallest
    normal w, and is 1 where expm1 overflows.
    """
    damp = np.exp(-om / bath.Omega)
    if bath.T > 0.0:
        with np.errstate(over="ignore"):
            damp = damp * (1.0 + 2.0 / np.expm1(om / bath.T))
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
    val = 2.0 * bath.A * half * half * w ** bath.s * _damping(bath, w)
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


# ---------------------------------------------------------------- closed form
#
# Each form takes one bath's _Points, the indices i of the points it
# evaluates and the rows (r, tau, (tau - r)^2) of their geometries, aligned
# with i; it returns F_x(a) a^x (the caller applies a^-x with its weight)
# and a bound on the rounding error of that value.  Every form works in
# zeta = z/a = 1 - i q, q = (phase)/a.

_MATSUBARA = 24  # Matsubara terms m < 24 are summed one by one
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730])  # B_2 .. B_12
_EM_ORDERS = 2.0 * np.arange(1, _BERNOULLI.size + 1)  # 2k
_EM_COEF = 2.0 * _BERNOULLI / np.array([math.factorial(int(v)) for v in _EM_ORDERS])
_EM_SHIFT = np.concatenate([[-1.0, 0.0], _EM_ORDERS - 1.0])  # x - e at a_24
# the series in u serves |u| up to 1/4, where 24 terms leave less
# than 1e-16 for every exponent up to 13
_SERIES = 0.25
_TWO_J = 2.0 * np.arange(1, 25)
_ALTERNATE = np.where(np.arange(1, 25) % 2 == 1, 1.0, -1.0)  # (-1)^(j+1)
_POLAR = 0.125  # r < tau/8 takes the polar difference
_EPS = float(np.finfo(float).eps)
_COND = 8.0  # rounding of one term in eps, before its exponent's share
_BLOCK = 1 << 16  # elements of a block's widest array, its points x 24 series terms


class _Points(NamedTuple):
    """One bath's Matsubara points (_matsubara) and what the forms read of
    them at every geometry: Gamma = A sum w F_x(a) a^x, x = s + k.

    gamma is Gamma(x) (nan at a pole, where only the pole form is taken),
    coef the pole coefficient Gamma(x)(x + n) at n = -round(x) where
    0 <= n <= 2 (nan elsewhere), and ratios the series' rows
    Gamma(b + 2j)/(2j)!, b = x at r = 0 and x + 1 at r > 0.  Each comes from
    the scalar arithmetic of _gamma_of, _pole_coef and _gamma_ratios.
    """

    s: float
    cross: bool  # r > 0: exponents e = s - 2, three phases
    a: np.ndarray
    k: np.ndarray
    w: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    coef: np.ndarray
    ratios: np.ndarray


def _gamma_of(s: float, k: float) -> float:
    """Gamma(s + k) for an integer k: below k = 0 by Gamma(s)/(s - 1)...(s + k),
    each factor s + i rounded once, so that no rounding of s + k meets the
    pole nearby (s -> 0, where Gamma(s - 2) ~ 1/s); nan at the pole itself."""
    g = math.gamma(s + k) if k >= 0 else math.gamma(s)
    for i in range(int(k), 0):
        if s + i == 0.0:
            return math.nan
        g /= s + i
    return g


def _expm1_ratio(w: np.ndarray) -> np.ndarray:
    """expm1(w)/w for real or complex w, 1 at w = 0."""
    return np.divide(np.expm1(w), w, out=np.ones_like(w), where=w != 0.0)


def _pole(s: float, k: np.ndarray, top: int, spread: np.ndarray):
    """(n, delta, mask) for the removable pole of Gamma(x), x = s + k, at
    x = -n, n <= top; delta = s + (k + n) is rounded once.

    The pole form is taken where |delta| spread <= 1/2, spread being
    ln max|zeta|: the direct form loses about 1/|delta| there, the pole form
    about |zeta|^|delta|.  Outside the mask n is 0.
    """
    n = -np.round(s + k)
    d = s + (k + n)
    mask = (n >= 0.0) & (n <= top) & (np.abs(d) * spread <= 0.5)
    return np.where(mask, n, 0.0), d, mask


def _pole_coef(x: float, n: float) -> float:
    """Gamma(x) (x + n) = Gamma(x + n + 1)/(x ... (x + n - 1)), n in {0, 1, 2},
    finite at x = -n."""
    return math.gamma(x + n + 1.0) / (1.0 if n == 0.0 else x if n == 1.0 else x * (x + 1.0))


def _phases(pts, i, ln_mod, theta, w, n, d, pole, real: bool):
    """sum_j w_j Gamma(x) P zeta_j^-x, zeta_j = |zeta_j| e^(-i theta_j), P = Re
    (real) or Im, in real arithmetic: rows are phases, columns points.

    P zeta^-x = |zeta|^-x cos or sin of x theta.  Near a pole x = -n the
    polynomial parts P sum_j w_j zeta_j^n cancel exactly (n <= 1 at r = 0,
    n <= 2 at r > 0), which leaves -Gamma(x) (x + n) P sum_j w_j q_j with
    q = zeta^n (zeta^-d - 1)/(-d), d = x + n, and P q = |zeta|^n [ln|zeta|
    E(-d ln|zeta|) cos((n - d) theta) - theta sin((n - d/2) theta)
    sinc(d theta/2)] (Re) or |zeta|^n [-ln|zeta| E(-d ln|zeta|)
    sin((n - d) theta) - theta cos((n - d/2) theta) sinc(d theta/2)] (Im),
    E(w) = expm1(w)/w.  Every piece keeps its relative accuracy when theta
    is small, and so does its error bound.
    """
    x = pts.x[i]
    trig, turn_trig = (np.cos, np.sin) if real else (np.sin, np.cos)
    val = err = 0.0
    if not pole.all():
        mod = w * np.exp(-x * ln_mod)
        t = trig(x * theta)
        g = pts.gamma[i]  # nan at a pole, whose points np.where replaces
        val = g * (mod * t).sum(axis=0)
        err = np.abs(g) * (np.abs(mod) * (np.abs(t) * (_COND + np.abs(x * ln_mod))
                                          + np.abs(x * theta))).sum(axis=0)
    if pole.any():
        half = 0.5 * d * theta
        size = w * np.exp(n * ln_mod)
        fall = ln_mod * _expm1_ratio(-d * ln_mod) * trig((n - d) * theta)
        turn = theta * turn_trig((n - 0.5 * d) * theta) * np.divide(
            np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
        q = size * (fall - turn if real else -fall - turn)
        c = pts.coef[i]
        val = np.where(pole, -c * q.sum(axis=0), val)
        err = np.where(pole, np.abs(c) * (np.abs(size) * (np.abs(fall) * (_COND + np.abs(d * ln_mod))
                                                           + _COND * np.abs(turn))).sum(axis=0), err)
    return val, _EPS * err


_W_ZERO = np.array([[1.0], [-1.0]])  # phases (0, tau) at r = 0
_W_CROSS = np.array([[1.0], [-0.5], [-0.5]])  # phases (r, r + tau, r - tau)


def _direct(pts, i, geo):
    """F_x from its phases p_j: r = 0: p = (0, tau), w = (1, -1), P = Re;
    r > 0: p = (r, r + tau, r - tau), w = (1, -1/2, -1/2), P = Im / r."""
    r, tau, _ = geo
    if pts.cross:
        p, w, top = np.array([r, r + tau, r - tau]), _W_CROSS, 2
    else:
        p, w, top = np.array([np.zeros_like(tau), tau]), _W_ZERO, 1
    q = p / pts.a[i]
    ln_mod = 0.5 * np.log1p(q * q)
    n, d, pole = _pole(pts.s, pts.k[i], top, ln_mod.max(axis=0))
    val, err = _phases(pts, i, ln_mod, np.arctan(q), w, n, d, pole, not pts.cross)
    return (val / r, err / r) if pts.cross else (val, err)


def _gamma_ratios(s: float, k: np.ndarray) -> np.ndarray:
    """Gamma(b + 2j)/(2j)! for j = 1 .. 24, b = s + k, one row per b, by
    recurrence; b + 2j is rounded once from s."""
    y = s + (k[:, None] + _TWO_J[:-1])
    step = y * (y + 1.0) / ((_TWO_J[:-1] + 1.0) * (_TWO_J[:-1] + 2.0))
    first = np.array([_gamma_of(s, v) for v in (k + 2.0).tolist()]) / 2.0
    return np.cumprod(np.concatenate([first[:, None], step], axis=1), axis=1)


def _series(pts, i, geo):
    """F_x as the series in u = i tau/z, |u| <= 1/4, free of the cancellation
    between the phases: sum_(j>=1) (-1)^(j+1) Gamma(y)/(2j)! v^(2j) P zeta^-y,
    y = x + 2j, v = tau/a, zeta = 1 - i r/a, P zeta^-y = 1 at r = 0 (y > 0
    there) and Im zeta^-y / r at r > 0.  Gamma(y) Im zeta^-y = Gamma(y + 1)
    |zeta|^-y theta sinc(y theta), theta = arctan(r/a), so no pole forms at
    y = x + 2 = 0 (s = 1 in the Euler-Maclaurin integral), and a small angle
    r << a keeps its relative accuracy."""
    r, tau, _ = geo
    a = pts.a[i]
    powers = np.log(tau / a)[:, None] * _TWO_J  # ln v^(2j)
    if not pts.cross:
        size = t = pts.ratios[i] * np.exp(powers)
        bound = np.abs(size) * (_COND + _TWO_J)
    else:
        y = pts.s + (pts.k[i][:, None] + _TWO_J)
        rho = r / a
        theta = np.arctan(rho)[:, None]
        half_log = 0.5 * np.log1p(rho * rho)[:, None]  # ln |zeta|
        size = pts.ratios[i] * np.exp(powers - y * half_log) * (theta / r[:, None])
        ang = y * theta
        sinc = np.divide(np.sin(ang), ang, out=np.ones_like(ang), where=ang != 0.0)
        t = size * sinc
        bound = np.abs(size) * (np.abs(sinc) * (_COND + _TWO_J + np.abs(y * half_log)) + 2.0)
    return (_ALTERNATE * t).sum(axis=1), _EPS * bound.sum(axis=1) + np.abs(size[:, -1])


def _polar(pts, i, geo):
    """F_x where r < tau/8 and tau > |z|/4, by the polar difference of the tau phases.

    -(z1^-x + conj(z2)^-x)/2 with z1 = a - i(tau + r), z2 = a - i(tau - r)
    has imaginary part -Im[z2^-x expm1(-x Lam)]/2, Lam = log z1 - log z2 =
    ln|z1/z2| - i (arg difference), both formed without cancellation.  Near a
    pole the same difference of zeta^n log(zeta) E(-d log zeta) is
    z2^n [log z2 E(-d log z2) expm1(-x Lam) + e^(n Lam) Lam E(-d Lam)].
    The phase r itself takes _phases.
    """
    r, tau, gap2 = geo
    a, x = pts.a[i], pts.x[i]
    qr, q2 = r / a, (tau - r) / a
    ln_r = 0.5 * np.log1p(qr * qr)
    l2 = 0.5 * np.log1p(q2 * q2) - 1j * np.arctan(q2)  # log zeta2, without numpy's slow complex log
    lam = (0.5 * np.log1p(4.0 * tau * r / (a * a + gap2))
           - 1j * np.arctan2(2.0 * a * r, a * a + tau * tau - r * r))
    n, d, pole = _pole(pts.s, pts.k[i], 2, np.maximum(ln_r, l2.real + lam.real))
    val, err = _phases(pts, i, ln_r[None], np.arctan(qr)[None], 1.0, n, d, pole, False)
    grow = np.expm1(-x * lam)
    pair = pair_err = 0.0
    if not pole.all():
        g = pts.gamma[i]
        p = np.exp(-x * l2) * grow
        pair = -0.5 * g * p.imag
        pair_err = 0.5 * np.abs(g * p) * (_COND + np.abs(x * l2) + np.abs(x * lam))
    if pole.any():
        grow = l2 * _expm1_ratio(-d * l2) * grow
        turn = np.exp(n * lam) * lam * _expm1_ratio(-d * lam)
        z2n = (1.0 - 1j * q2) ** n
        c = pts.coef[i]
        pair = np.where(pole, 0.5 * c * (z2n * (grow + turn)).imag, pair)
        pair_err = np.where(pole, 0.5 * np.abs(c * z2n) * (
            np.abs(grow) * (_COND + np.abs(d * l2) + np.abs(x * lam))
            + np.abs(turn) * (_COND + np.abs(d * lam))), pair_err)
    return (val + pair) / r, (err + _EPS * pair_err) / r


def _transform(pts, rs, taus):
    """F_x(a) a^x and its rounding bound at every point of every geometry
    (rs, taus), one row per geometry, each point in the form free of
    cancellation there: the series where tau <= |z|/4 (r >> tau, or
    tau << a); else at r > 0 the polar difference where r < tau/8; else the
    phases themselves."""
    size = pts.a.size
    # (tau - r)^2 once per geometry by Python's pow, which every published
    # value was computed with; numpy's x * x rounds 1 case in 1,000 apart
    geo = np.repeat(np.array([rs, taus, [(t - r) ** 2 for r, t in zip(rs, taus)]]), size, axis=1)
    i = np.arange(geo.shape[1]) % size
    r, tau, _ = geo
    series = tau <= _SERIES * np.hypot(pts.a[i], r)
    polar = ~series & (0.0 < r) & (r < _POLAR * tau)
    val, err = np.empty(i.size), np.empty(i.size)
    for sel, form in ((series, _series), (polar, _polar), (~(series | polar), _direct)):
        if sel.any():
            val[sel], err[sel] = form(pts, i[sel], geo[:, sel])
    return val.reshape(-1, size), err.reshape(-1, size)


@functools.lru_cache(maxsize=64)
def _matsubara(s: float, Om: float, T: float, cross: bool) -> _Points:
    """The points a, exponent offsets k and weights w of Gamma = A sum w F_x(a) a^x,
    x = s + k, e = s - 1 at r = 0 and s - 2 at r > 0 (cross), with the
    constants the forms read of them (_Points).

    At T = 0 the single point a = 1/Omega; else a_m, m < 24, and the
    Euler-Maclaurin terms at a_24: 2 T F_(e-1)(a_24) is
    2 T a_24 a_24^-e (F_(e-1) a^(e-1)), and so on.  The arrays are read-only,
    because every call with the same bath shares them.
    """
    offset = -2.0 if cross else -1.0
    if T == 0.0:
        a, k, w = np.array([1.0 / Om]), np.array([offset]), np.ones(1)
    else:
        a_M = 1.0 / Om + _MATSUBARA / T
        scaled = T * a_M  # T/Omega + 24
        a = np.concatenate([1.0 / Om + np.arange(_MATSUBARA) / T, np.full(_EM_SHIFT.size, a_M)])
        k = offset + np.concatenate([np.zeros(_MATSUBARA), _EM_SHIFT])
        w = np.concatenate([[1.0], np.full(_MATSUBARA - 1, 2.0), [2.0 * scaled, 1.0],
                            _EM_COEF * scaled ** (1.0 - _EM_ORDERS)])
    w = w * a ** -(s + offset)
    kinds = np.array(sorted(set(k.tolist())))  # eight exponents at most
    at = np.searchsorted(kinds, k)
    xs = s + kinds
    gamma = np.array([_gamma_of(s, v) for v in kinds.tolist()])
    coef = np.array([_pole_coef(v, n) if 0.0 <= n <= 2.0 else math.nan
                     for v, n in zip(xs.tolist(), (-np.round(xs)).tolist())])
    ratios = _gamma_ratios(s, kinds + 1.0 if cross else kinds)
    pts = _Points(s, cross, a, k, w, s + k, gamma[at], coef[at], ratios[at])
    for arr in pts[2:]:
        arr.flags.writeable = False
    return pts


def _gamma_batch(bath: BathParams, geoms: Sequence[GeometryParams]) -> list[GammaEstimate]:
    """gamma_detailed at every geometry of geoms, one bath, in its order.

    The geometries at r = 0 and at r > 0 each share one set of points, so
    every form runs once per block of geometries on all their points; each
    geometry keeps its own fsum, error sum and Euler-Maclaurin bound.
    """
    s, Om, T = bath.s, bath.Omega, bath.T
    out = [None] * len(geoms)
    groups = ([], [])  # geometries evaluated at r = 0, and at r > 0
    for j, geom in enumerate(geoms):
        r, tau = geom.r, geom.tau
        flag = s >= 2.0 and tau > 0.0 and abs(r - tau) < 1e-3 * tau
        if bath.A == 0.0 or tau == 0.0:
            out[j] = GammaEstimate(0.0, 0.0, flag)
        else:
            # below r Omega = 1e-150 the sinc(w r) correction, (r Omega)^2
            # relative at most, is far below rounding, while r/a nears the
            # subnormal range where r > 0 loses digits: r is taken as 0
            groups[r * Om >= 1e-150].append((j, r, tau, flag))
    for cross, members in enumerate(groups):
        if not members:
            continue
        pts = _matsubara(s, Om, T, bool(cross))
        size, a_M = pts.a.size, float(pts.a[-1])
        weight = np.abs(pts.w)
        per = max(1, _BLOCK // (size * _TWO_J.size))
        for b0 in range(0, len(members), per):
            block = members[b0:b0 + per]
            rs = [r if cross else 0.0 for _, r, _, _ in block]
            taus = [tau for _, _, tau, _ in block]
            vals, errs = _transform(pts, rs, taus)
            terms = pts.w * vals
            sums = np.abs(terms).sum(axis=1).tolist()
            for (j, _, tau, flag), r, row, row_err, total in zip(block, rs, terms.tolist(), errs, sums):
                rest = 0.0 if T == 0.0 else _em_remainder(s, r, tau, a_M, T * a_M)
                # a weight carries a few roundings, its product one more, fsum a last one
                err = float(weight @ row_err) + 4.0 * _EPS * total + rest
                out[j] = GammaEstimate(bath.A * math.fsum(row), bath.A * err, flag)
    return out


def gamma_detailed(bath: BathParams, geom: GeometryParams) -> GammaEstimate:
    """Decoherence integral in closed form, with a bound on its error.

    Gamma = A sum_m c_m F_e(a_m) (module docstring).  The terms m < 24 are
    summed one by one; the rest is 2 [T F_(e-1) + F_e/2 + sum_(k=1..6)
    B_2k/(2k)! T^(1-2k) F_(e+2k-1)] at a_24, the Euler-Maclaurin formula
    with its integral and derivatives in closed form.  At T = 0 only m = 0
    remains.  Each F is evaluated in the form that is free of cancellation
    at its point (_transform).

    Error contract: the estimate is the sum of
    - eps times the absolute terms of every form, each weighted by its own
      condition (8, plus |exponent| |log zeta| for a complex power);
    - the truncation of the series in u (its last term);
    - the Euler-Maclaurin remainder 4 zeta(12)/(2 pi)^12 int |f^(12)|, with
      |f^(12)| bounded through |sinc| <= min(1, 1/(w r)) and
      1 - cos <= min(2, (w tau)^2/2);
    - 4 eps times the absolute sum of the terms (weights, products, fsum).

    The singular_flag marks the qualitative 2 <= s < 3 regime where the
    integral develops a kink across r = tau; the value is still returned.
    """
    return _gamma_batch(bath, [geom])[0]


def _em_remainder(s: float, r: float, tau: float, a_M: float, scaled: float) -> float:
    """Bound on the Euler-Maclaurin remainder 2 zeta(2p)/(2 pi)^2p int_24^inf |f^(2p)|.

    f(m) = 2 F_e(a_m), so f^(2p) = 2 T^-2p F_(e+2p).  |F_(e+2p)(a)| is at most
    R_y(a) = int w^(y-1) (1 - cos w tau) e^(-a w) dw with y = s - 1 + 2p
    (|sinc| <= 1), and at r > 0 also R_(y-1)(a)/r (|sinc| <= 1/(w r));
    int_(a_M)^inf R_y is at most 2 Gamma(y-1) a_M^(1-y) (1 - cos <= 2) and
    tau^2/2 Gamma(y+1) a_M^(-y-1) (1 - cos <= (w tau)^2/2).  The least bound
    is taken, in units of T^(1-2p) = scaled^(1-2p) a_M^(2p-1), where nothing
    overflows.
    """
    p = _BERNOULLI.size
    y = s - 1.0 + 2.0 * p
    bounds = [2.0 * math.gamma(y - 1.0) * a_M ** (1.0 - s),
              0.5 * tau * tau * math.gamma(y + 1.0) * a_M ** (-1.0 - s)]
    if r > 0.0:
        bounds += [2.0 * math.gamma(y - 2.0) * a_M ** (2.0 - s) / r,
                   0.5 * tau * tau * math.gamma(y) * a_M ** (-s) / r]
    return 4.0 * 1.001 / (2.0 * np.pi) ** (2 * p) * scaled ** (1.0 - 2.0 * p) * min(bounds)


def gamma(bath: BathParams, geom: GeometryParams) -> float:
    return gamma_detailed(bath, geom).value


def gamma_pair(bath: BathParams, r: float, tau: float) -> DecoherencePair:
    """(Gamma_0, Gamma_r) with consistency clamps of rounding.

    A Gamma_0 or Gamma_r below zero, or a Gamma_r above Gamma_0, is clamped
    when the excess is within the slack, the sum of the two error
    estimates, each a bound on its value's error.  Beyond it, a negative
    Gamma_r means the monotone regime is left (2 <= s < 3 can drive Gamma_r
    negative), where the two-parameter channel does not apply, and a
    DomainError is raised instead of silently truncating; the other two
    raise ConvergenceError.
    """
    geoms = [GeometryParams(0.0, tau)] + ([GeometryParams(r, tau)] if r != 0.0 else [])
    ests = _gamma_batch(bath, geoms)
    g0, gr = ests[0], ests[-1]
    slack = g0.error_estimate + gr.error_estimate + 1e-300
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
            raise ConvergenceError("gamma(r) exceeded gamma(0) beyond its error estimates",
                                   estimate=vr, error_estimate=vr - v0)
        vr = v0
    return DecoherencePair(v0, vr)


def scaled_gamma(bath: BathParams, base: GeometryParams, a: float) -> float:
    """Gamma evaluated at geometry (a*r0, a*tau0) with the bath unchanged."""
    if not a > 0.0:
        raise DomainError(f"scale factor must be > 0, got {a}")
    return gamma(bath, GeometryParams(base.r * a, base.tau * a))


def scaling_identity_sides(bath: BathParams, base: GeometryParams, a: float
                           ) -> tuple[GammaEstimate, GammaEstimate]:
    """Both sides of Gamma(s, a r0, a tau0, T, Omega) = a^(1-s) Gamma(s, r0, tau0, aT, aOmega).

    Returned as detailed estimates so equality can be asserted against the
    combined error estimates.
    """
    if not a > 0.0:
        raise DomainError(f"scale factor must be > 0, got {a}")
    lhs = gamma_detailed(bath, GeometryParams(base.r * a, base.tau * a))
    scaled_bath = BathParams(bath.A, bath.s, bath.Omega * a, bath.T * a)
    rd = gamma_detailed(scaled_bath, base)
    fac = a ** (1.0 - bath.s)
    rhs = GammaEstimate(fac * rd.value, fac * rd.error_estimate, rd.singular_flag)
    return lhs, rhs
