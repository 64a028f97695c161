import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from corrqec import bath as bath_module
from corrqec import (
    BathParams,
    GammaEstimate,
    GeometryParams,
    decoherence_integrand,
    gamma,
    gamma_detailed,
    gamma_pair,
    scaled_gamma,
    scaling_identity_sides,
    spectral_density,
)
from corrqec.errors import ConvergenceError, DomainError

# Output of scripts/gamma_trapezoid_oracle.py: 10^7-point trapezoid rule on
# [0, 40*Omega] for A=1, s=1, Omega=10, T=1, r=0, tau=5.
TRAPEZOID_ORACLE = 15.750356381959127
# The same with --tau 100.  Its Euler-Maclaurin bias, h^2/12 * tau^2 T/Omega,
# is 4.3e-10 relative.
TRAPEZOID_ORACLE_TAU100 = 313.6031928991671

OHMIC = BathParams(1.0, 1.0, 10.0, 1.0)


def test_matches_independent_trapezoid_grid():
    val = gamma(OHMIC, GeometryParams(0.0, 5.0))
    assert val == pytest.approx(TRAPEZOID_ORACLE, rel=1e-6)


def test_long_time_matches_independent_trapezoid_grid():
    val = gamma(OHMIC, GeometryParams(0.0, 100.0))
    assert val == pytest.approx(TRAPEZOID_ORACLE_TAU100, rel=1e-9)


_GL_FINE = np.polynomial.legendre.leggauss(24)
_GL_COARSE = np.polynomial.legendre.leggauss(20)


def _dense_slow(w, s, r, tau, omega, temp):
    # Gamma integrand over w^(s-1), finite at w = 0:
    # (1 - cos w tau)/w^2 * w coth(w/2T) * sin(w r)/(w r) * e^(-w/Omega)
    w = np.asarray(w, dtype=float)
    val = 0.5 * tau * tau * np.sinc(w * tau / (2.0 * np.pi)) ** 2 \
        * np.sinc(w * r / np.pi) * np.exp(-w / omega)
    if temp == 0.0:
        return val * w
    x = w / (2.0 * temp)
    with np.errstate(divide="ignore", invalid="ignore"):
        wcoth = np.where(x < 1e-8, 2.0 * temp, w / np.tanh(x))
    return val * wcoth


def dense_gamma(s, r, tau, omega=10.0, temp=1.0):
    """Gamma at A = 1 and an error estimate, written apart from corrqec.

    QUADPACK with the weight w^(s-1) on [0, c]; above c, fixed 24-point
    Gauss-Legendre panels, graded [c, 2c], [2c, 4c], ... until they are two
    periods of the fastest phase r + tau wide, then of that width up to
    50 Omega (the tail beyond is below 1e-20).  The estimate is the head's
    QUADPACK estimate plus the change from the 20-point rule plus 1e-15
    relative for the rounding of about 10^6 terms.
    """
    scales = [omega, 1.0 / tau] + ([temp] if temp > 0.0 else []) + ([1.0 / r] if r > 0.0 else [])
    c = 0.25 * min(scales)
    head, head_err = integrate.quad(
        _dense_slow, 0.0, c, args=(s, r, tau, omega, temp), weight="alg",
        wvar=(s - 1.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
    upper = 50.0 * omega
    width = 4.0 * np.pi / (r + tau)
    graded = c * 2.0 ** np.arange(math.floor(math.log2(width / c)) + 1)
    uniform = np.linspace(graded[-1], upper, math.ceil((upper - graded[-1]) / width) + 1)
    edges = np.concatenate([graded[:-1], uniform])
    panels = edges.size - 1
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    sums = []
    for x, wts in (_GL_FINE, _GL_COARSE):
        total = 0.0
        for lo in range(0, panels, 20_000):
            sl = slice(lo, lo + 20_000)
            w = mid[sl, None] + half[sl, None] * x
            vals = _dense_slow(w, s, r, tau, omega, temp) * w ** (s - 1.0)
            total += float(half[sl] @ (vals @ wts))
        sums.append(total)
    value = head + sums[0]
    return value, head_err + abs(sums[0] - sums[1]) + 1e-15 * abs(value)


# r in units of tau: 0, r << tau (polar difference), 0.5 (the verdict
# geometry), 1 (the r - tau phase has k = 0) and 4
@pytest.mark.parametrize("tau", [20.0, 215.0])
@pytest.mark.parametrize("s", [0.6, 1.0, 2.0, 2.5])
def test_large_geometry_matches_dense_reference(s, tau):
    bath = BathParams(1.0, s, 10.0, 1.0)
    for ratio in (0.0, 0.0099, 0.0101, 0.5, 1.0, 4.0):
        r = ratio * tau
        est = gamma_detailed(bath, GeometryParams(r, tau))
        ref, ref_err = dense_gamma(s, r, tau)
        assert abs(est.value - ref) <= 10.0 * (est.error_estimate + ref_err), (r, tau)


# Geometries whose three phases cancel: r = tau/1e6 (polar difference and
# u-series), r = 200 tau (u-series), r = 5 tau (direct and u-series).
@pytest.mark.parametrize(
    "s,r,tau",
    [(s, r, tau) for s in (0.6, 1.0, 2.0, 2.5)
     for r, tau in ((2.15e-4, 215.0), (400.0, 2.0), (750.0, 150.0))]
    + [(1.5, 5000.0, 1000.0)],
)
def test_cancelling_geometry_matches_dense_reference(s, r, tau):
    est = gamma_detailed(BathParams(1.0, s, 10.0, 1.0), GeometryParams(r, tau))
    ref, ref_err = dense_gamma(s, r, tau)
    assert abs(est.value - ref) <= 10.0 * (est.error_estimate + ref_err)


# Both sides of every switch between forms at a = 1/Omega = 0.1, the only
# Matsubara point at T = 0: r = 0 with tau/a just under and over 1/4; the
# u-series edge tau = |a - i r|/4 at r = 1; the polar edge r = tau/8 at
# tau = 1; and r = a/4 at tau = 1, where the polar form meets a small angle
# r/a.  At T = 1 the same geometries spread their Matsubara terms over
# several forms.
SWITCHES = ((0.0, 0.024), (0.0, 0.026), (1.0, 0.2505), (1.0, 0.252),
            (0.0249, 1.0), (0.0251, 1.0), (0.1245, 1.0), (0.1255, 1.0))


@pytest.mark.parametrize("temp", [0.0, 1.0])
@pytest.mark.parametrize("s", [1.0 - 1e-8, 1.0, 1.0 + 1e-8, 2.0 - 1e-8, 2.0, 2.0 + 1e-8])
def test_poles_and_form_switches_match_dense_reference(s, temp):
    bath = BathParams(1.0, s, 10.0, temp)
    for r, tau in SWITCHES:
        est = gamma_detailed(bath, GeometryParams(r, tau))
        ref, ref_err = dense_gamma(s, r, tau, temp=temp)
        assert abs(est.value - ref) <= 10.0 * (est.error_estimate + ref_err), (r, tau)


# ------------------------------------------------ Gauss-Jacobi term reference
# A second reference, apart from corrqec and from scipy, for each Matsubara
# term on its own: F_x(a) a^x = int_0^inf t^(x-1) (1 - cos(t tau/a)) S e^-t dt,
# S = 1 at r = 0 and sin(t r/a)/r at r > 0 (w = t/a).  The endpoint factor
# t^beta, beta = x + 1 (r = 0) or x + 2, is the weight of a Gauss-Jacobi head
# on [0, c]; fixed 24-point Gauss-Legendre panels cover [c, W], and the upper
# incomplete gamma function bounds the tail beyond W.


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


def jacobi_rule(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """m-node Gauss rule for the weight (1 + x)^beta on [-1, 1].

    The algorithm of scipy.special.roots_jacobi(m, 0, beta), step for step:
    Golub-Welsch eigenvalues of the Jacobi matrix, one Newton step, weights
    from log-normalised P_(m-1) and P_m', scaled to the total mass.
    numpy's eigvalsh replaces scipy.linalg, and the polynomials take
    scipy's three-term recurrences (_legendre, _jacobi), so the rule shares
    no code with scipy.  The nodes are bit-equal to scipy's for even m, and
    so are the weights at beta = 0, which takes the Legendre recurrence and
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
    return x, w


def upper_gamma(a: float, x: float) -> float:
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
        if abs(delta - 1.0) <= np.finfo(float).eps:
            return math.exp(a * math.log(x) - x) * h


def _term_smooth(t, q, rho, a, r):
    # the integrand over t^beta: 2 (sin(q t/2)/t)^2 e^-t, times sinc(rho t)/a at r > 0
    half = np.sin(0.5 * q * t) / t
    val = 2.0 * half * half * np.exp(-t)
    if r > 0.0:
        val *= np.sinc(rho * t / np.pi) / a
    return val


def jacobi_term(x, a, r, tau):
    """F_x(a) a^x and an error estimate: the 24-node head (c = min(1, 1/(q +
    rho)), q = tau/a, rho = r/a) and its change from 12 nodes, the panels of
    at most two periods of the fastest phase up to W = 60 + 3 max(x, 0) and
    their change from 20 points, the tail bound 2 Gamma(x, W) (r = 0) or
    2 Gamma(x + 1, W)/a (|sin(t r/a)/r| <= t/a), and 1e-15 relative to the
    absolute integral for rounding."""
    q, rho = tau / a, r / a
    beta = x + (2.0 if r > 0.0 else 1.0)
    c = min(1.0, 1.0 / (q + rho))
    heads = []
    for m in (12, 24):
        u, w = jacobi_rule(m, beta)
        heads.append((0.5 * c) ** (beta + 1.0)
                     * float(w @ _term_smooth(0.5 * c * (u + 1.0), q, rho, a, r)))
    upper = 60.0 + 3.0 * max(x, 0.0)
    width = min(2.0, 4.0 * np.pi / (q + rho))
    graded = c * 2.0 ** np.arange(math.floor(math.log2(width / c)) + 1)
    uniform = np.linspace(graded[-1], upper, math.ceil((upper - graded[-1]) / width) + 1)
    edges = np.concatenate([graded[:-1], uniform])
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    sums = []
    for u, wts in (_GL_FINE, _GL_COARSE):
        t = mid[:, None] + half[:, None] * u
        vals = _term_smooth(t, q, rho, a, r) * t ** beta
        sums.append(float(half @ (vals @ wts)))
    size = abs(heads[1]) + float(half @ (np.abs(vals) @ wts))  # |integrand|, 20-point rule
    tail = 2.0 * (upper_gamma(x + 1.0, upper) / a if r > 0.0 else upper_gamma(x, upper))
    value = heads[1] + sums[0]
    return value, abs(heads[1] - heads[0]) + abs(sums[0] - sums[1]) + tail + 1e-15 * size


# Every Matsubara term of Gamma at Omega = 10, T = 1 (points a_m, m < 24,
# and the Euler-Maclaurin exponents at a_24), each in the form _transform
# picks there, on both sides of the poles and of every switch between forms.
@pytest.mark.parametrize("s", [1.0 - 1e-8, 1.0, 1.0 + 1e-8, 2.0 - 1e-8, 2.0, 2.0 + 1e-8])
def test_terms_match_gauss_jacobi_reference(s):
    for r, tau in SWITCHES:
        a, k, _ = bath_module._matsubara(s, 10.0, 1.0, -1.0 if r == 0.0 else -2.0)
        vals, errs = bath_module._transform(np.array(a), s, np.array(k), r, tau)
        for ai, ki, val, err in zip(a.tolist(), k.tolist(), vals, errs):
            ref, ref_err = jacobi_term(s + ki, ai, r, tau)
            assert abs(val - ref) <= 10.0 * (err + ref_err), (r, tau, ai, ki)


# 30-digit mpmath values of Gamma at A = 1, s = 2, T = 1, Omega = 10, tau = 2:
# mpmath.quad at 40 digits over the periods of 1 - cos(2w) up to 100 Omega
# and a last interval to infinity.  Rounding dominates the error there.
SMOOTH_MPMATH = {
    0.001: Fraction("12.2784948302036192486480851399"),
    0.5: Fraction("4.86670457164923724278646780531"),
}


@pytest.mark.parametrize("r", sorted(SMOOTH_MPMATH))
def test_estimate_bounds_the_error_on_smooth_geometries(r):
    est = gamma_detailed(BathParams(1.0, 2.0, 10.0, 1.0), GeometryParams(r, 2.0))
    assert abs(Fraction(est.value) - SMOOTH_MPMATH[r]) <= Fraction(est.error_estimate)


@pytest.mark.parametrize("a", [1e5, 1e7])
@pytest.mark.parametrize("s", [1.5, 2.0, 2.5])
def test_scaling_identity_at_large_scale(s, a):
    bath = BathParams(1.0, s, 10.0, 1.0)
    for base in (GeometryParams(0.5, 1.0), GeometryParams(1.0, 1.0)):
        lhs, rhs = scaling_identity_sides(bath, base, a)
        assert abs(lhs.value - rhs.value) <= 10.0 * (
            lhs.error_estimate + rhs.error_estimate
        )


def test_integrand_zero_frequency_limits():
    geom = GeometryParams(0.7, 2.0)
    w = np.array([0.0, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ohmic = decoherence_integrand(w, OHMIC, geom)
        sub = decoherence_integrand(w, BathParams(1.0, 0.5, 10.0, 1.0), geom)
        sup = decoherence_integrand(w, BathParams(1.0, 1.5, 10.0, 1.0), geom)
        cold = decoherence_integrand(w, BathParams(1.0, 1.0, 10.0, 0.0), geom)
    assert ohmic[0] == 4.0 and np.isinf(sub[0]) and sup[0] == 0.0 and cold[0] == 0.0
    # away from w = 0: the integrand as written in the module docstring
    x = 0.3
    direct = x ** -1.0 * (1.0 - math.cos(2.0 * x)) / math.tanh(x / 2.0) \
        * math.sin(0.7 * x) / (0.7 * x) * math.exp(-x / 10.0)
    assert ohmic[1] == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_integrand_tiny_frequency_is_finite():
    # near w = 0 the integrand is A tau^2 T w^(s-1); here w r underflows too
    w = np.array([1e-250])
    bath = BathParams(1.0, 0.5, 10.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.7, 1e-100):
            val = decoherence_integrand(w, bath, GeometryParams(r, 1.0))
            assert val[0] == pytest.approx(1e125, rel=1e-12, abs=0.0), r


def test_pair_clamps_within_the_error_estimates(monkeypatch):
    # slack = both estimates = 2e-10 here
    def pair(g0, gr):
        fake = {0.0: GammaEstimate(g0, 1e-10), 1.0: GammaEstimate(gr, 1e-10)}
        monkeypatch.setattr(bath_module, "gamma_detailed", lambda b, g, q=None: fake[g.r])
        out = gamma_pair(OHMIC, 1.0, 1.0)
        return out.gamma0, out.gammaR

    assert pair(1.0, 1.0 + 1.5e-10) == (1.0, 1.0)
    assert pair(1.0, -1.5e-10) == (1.0, 0.0)
    assert pair(-1.5e-10, -1.5e-10) == (0.0, 0.0)
    with pytest.raises(ConvergenceError):
        pair(1.0, 1.0 + 2.5e-10)
    with pytest.raises(DomainError):
        pair(1.0, -2.5e-10)
    with pytest.raises(ConvergenceError):
        pair(-2.5e-10, 0.0)


# head rules of the term reference take beta = x + 1 or x + 2, s in (0, 3)
JACOBI_BETAS = (-0.9, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.75, 3.5)


@pytest.mark.parametrize("m", [12, 24])
@pytest.mark.parametrize("beta", JACOBI_BETAS)
def test_jacobi_rule_bit_equal_to_scipy(m, beta):
    # the nodes are scipy's to the bit; so are the weights at beta = 0, while
    # for beta != 0 they are scaled to the exact mass 2^(beta+1)/(beta+1)
    # where scipy takes 2^(beta+1) B(1, beta+1), which moves them by at most
    # 2 ulp (measured: 2 ulp in 10 of the 22 cases, 0 in the rest)
    from scipy.special import roots_jacobi
    x, w = jacobi_rule(m, beta)
    x_ref, w_ref = roots_jacobi(m, 0.0, beta)
    assert np.array_equal(x, x_ref)
    if beta == 0.0:
        assert np.array_equal(w, w_ref)
    else:
        assert np.all(np.abs(w - w_ref) <= 2 * np.spacing(w_ref))
        mass = 2.0 ** (beta + 1) / (beta + 1)
        assert abs(w.sum() - mass) <= np.spacing(mass)


@pytest.mark.parametrize("a", [1.001, 1.25, 1.5, 1.75, 1.999])
def test_upper_gamma_matches_scipy(a):
    # the term reference's tail bound takes Gamma(a, W) at W >= 60 > a + 1;
    # checked here on 1 < a < 2, 40 <= x <= 60;
    # measured: 4.1e-15 relative against scipy, 4.6e-15 against 40-digit
    # mpmath (scipy's gammaincc * gamma is itself 8.5e-15 off)
    from scipy.special import gamma, gammaincc
    for x in np.linspace(40.0, 60.0, 9):
        ref = gammaincc(a, x) * gamma(a)
        assert upper_gamma(a, float(x)) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [12, 24])
@pytest.mark.parametrize("beta", JACOBI_BETAS)
def test_jacobi_rule_integrates_beta_moments(m, beta):
    # int_-1^1 (1-x)^j (1+x)^beta dx = 2^(j+beta+1) B(j+1, beta+1), exact to
    # degree 2m-1; every term is positive, so no cancellation hides an error.
    # Worst measured: 1.0e-12 relative at beta = -0.9, m = 24, j = 47, where
    # the weights next to the singular endpoint carry it; 5e-14 for beta >= 0.
    x, w = jacobi_rule(m, beta)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for j in range(2 * m):
        exact = 2.0 ** (j + beta + 1) * math.gamma(j + 1) * math.gamma(beta + 1) \
            / math.gamma(j + beta + 2)
        assert float(w @ (1.0 - x) ** j) == pytest.approx(exact, rel=2e-12, abs=0.0)


def test_jacobi_rule_legendre_case_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (12, 24):
            x, w = jacobi_rule(m, 0.0)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_spectral_density_points():
    assert spectral_density(BathParams(0.0, 1.0, 1.0, 1.0), 2.3) == 0.0
    assert spectral_density(BathParams(1.0, 1.0, 1.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15, abs=0.0
    )
    assert spectral_density(BathParams(2.0, 2.0, 5.0, 1.0), 3.0) == pytest.approx(
        2.0 * 9.0 * math.exp(-0.6), rel=1e-15, abs=0.0
    )


def test_spectral_density_zero_frequency():
    for s in (0.5, 1.0, 2.5):
        assert spectral_density(BathParams(1.0, s, 1.0, 1.0), 0.0) == 0.0


def test_spectral_density_rejects_negative_frequency():
    with pytest.raises(DomainError):
        spectral_density(OHMIC, -0.1)


@pytest.mark.parametrize(
    "args",
    [
        (-1.0, 1.0, 1.0, 1.0),  # A < 0
        (1.0, 0.0, 1.0, 1.0),  # s at lower edge
        (1.0, 3.0, 1.0, 1.0),  # s at upper edge
        (1.0, 1.0, 0.0, 1.0),  # Omega <= 0
        (1.0, 1.0, 1.0, -0.5),  # T < 0
    ],
)
def test_bath_params_validation(args):
    with pytest.raises(DomainError):
        BathParams(*args)


def test_geometry_validation():
    with pytest.raises(DomainError):
        GeometryParams(-1.0, 1.0)
    with pytest.raises(DomainError):
        GeometryParams(1.0, -1.0)


def test_gamma_zero_coupling():
    assert gamma(BathParams(0.0, 1.0, 10.0, 1.0), GeometryParams(1.0, 2.0)) == 0.0


def test_gamma_zero_time():
    assert gamma(OHMIC, GeometryParams(1.0, 0.0)) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_gamma_monotone_in_distance_below_s2(s):
    bath = BathParams(1.0, s, 10.0, 1.0)
    vals = [gamma(bath, GeometryParams(r, 1.0)) for r in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-10


def test_gamma_continuous_at_zero_distance():
    g0 = gamma(OHMIC, GeometryParams(0.0, 1.0))
    g_eps = gamma(OHMIC, GeometryParams(1e-8, 1.0))
    assert g_eps == pytest.approx(g0, rel=1e-6, abs=0.0)


def test_gamma0_linear_growth_at_high_temperature():
    # coth kernel ~ 2T/omega at small omega makes Gamma_0 grow ~ tau
    tau = 100.0
    r1 = gamma(OHMIC, GeometryParams(0.0, 2.0 * tau))
    r0 = gamma(OHMIC, GeometryParams(0.0, tau))
    assert r1 / r0 == pytest.approx(2.0, rel=0.05, abs=0.0)


def test_far_field_correlations_negligible():
    pair = gamma_pair(OHMIC, 1e6, 1.0)
    assert pair.gammaR < 1e-4 * pair.gamma0


def test_ohmic_pair_strictly_ordered():
    pair = gamma_pair(OHMIC, 2.0, 1.0)
    assert pair.gamma0 > pair.gammaR > 0.0


@settings(max_examples=10)
@given(
    s=st.floats(0.2, 1.9),
    r=st.floats(0.0, 5.0),
    tau=st.floats(0.1, 5.0),
)
def test_pair_ordering_property_below_s2(s, r, tau):
    pair = gamma_pair(BathParams(1.0, s, 10.0, 1.0), r, tau)
    assert pair.gamma0 >= pair.gammaR >= 0.0


def test_zero_temperature_branch():
    cold = gamma(BathParams(1.0, 1.0, 10.0, 0.0), GeometryParams(0.0, 5.0))
    warm = gamma(OHMIC, GeometryParams(0.0, 5.0))
    assert 0.0 < cold < warm


def test_scaled_gamma_identity_scale_one():
    geom = GeometryParams(0.7, 1.3)
    assert scaled_gamma(OHMIC, geom, 1.0) == pytest.approx(
        gamma(OHMIC, geom), rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("s,a", [(1.0, 2.0), (0.5, 4.0), (2.0, 3.0)])
def test_scaled_gamma_identity_examples(s, a):
    bath = BathParams(1.0, s, 10.0, 1.0)
    lhs, rhs = scaling_identity_sides(bath, GeometryParams(0.7, 1.3), a)
    assert abs(lhs.value - rhs.value) <= 10.0 * (
        lhs.error_estimate + rhs.error_estimate
    )
    # both sides come from one closed form; each also meets the dense
    # reference at its own (Omega, T)
    ref, ref_err = dense_gamma(s, 0.7 * a, 1.3 * a)
    assert abs(lhs.value - ref) <= 10.0 * (lhs.error_estimate + ref_err)
    ref, ref_err = dense_gamma(s, 0.7, 1.3, omega=10.0 * a, temp=a)
    fac = a ** (1.0 - s)
    assert abs(rhs.value - fac * ref) <= 10.0 * (rhs.error_estimate + fac * ref_err)


@settings(max_examples=5)
@given(s=st.floats(0.3, 2.7), a=st.floats(0.5, 4.0))
def test_scaling_identity_property(s, a):
    bath = BathParams(1.0, s, 5.0, 1.0)
    lhs, rhs = scaling_identity_sides(bath, GeometryParams(0.6, 1.1), a)
    assert abs(lhs.value - rhs.value) <= 10.0 * (
        lhs.error_estimate + rhs.error_estimate
    )


def test_singular_flag_near_equal_distance_and_time():
    bath = BathParams(1.0, 2.5, 10.0, 1.0)
    assert gamma_detailed(bath, GeometryParams(1.0, 1.0)).singular_flag
    assert gamma_detailed(bath, GeometryParams(1.0005, 1.0)).singular_flag
    assert not gamma_detailed(bath, GeometryParams(1.1, 1.0)).singular_flag
    # the flag is specific to the 2 <= s < 3 regime
    assert not gamma_detailed(OHMIC, GeometryParams(1.0, 1.0)).singular_flag


def test_negative_correlation_value_rejected_as_pair():
    # super-Ohmic oscillatory regime: the raw integral goes negative, which
    # cannot be represented as a decoherence pair
    bath = BathParams(1.0, 2.8, 100.0, 1.0)
    assert gamma(bath, GeometryParams(0.5, 0.2)) < 0.0
    with pytest.raises(DomainError):
        gamma_pair(bath, 0.5, 0.2)
