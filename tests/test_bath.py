import math
import warnings

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
    QuadratureConfig,
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
# is 4.3e-10 relative; at tau = 100 the library takes the Filon cosine route.
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
    scales = [omega, temp, 1.0 / tau] + ([1.0 / r] if r > 0.0 else [])
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


# r in units of tau: 0 (cosine phases), both sides of the cancellation
# boundary r = tau/100, 0.5 (the verdict geometry), 1 (the r - tau phase has
# k = 0) and 4 (the last geometry that is not far)
@pytest.mark.parametrize("tau", [20.0, 215.0])
@pytest.mark.parametrize("s", [0.6, 1.0, 2.0, 2.5])
def test_large_geometry_matches_dense_reference(s, tau):
    bath = BathParams(1.0, s, 10.0, 1.0)
    for ratio in (0.0, 0.0099, 0.0101, 0.5, 1.0, 4.0):
        r = ratio * tau
        est = gamma_detailed(bath, GeometryParams(r, tau))
        ref, ref_err = dense_gamma(s, r, tau)
        assert abs(est.value - ref) <= 10.0 * (est.error_estimate + ref_err), (r, tau)


# Geometries whose three phases cancel, too large for the adaptive body:
# r = tau/1e6 and r = 200 tau take the fast-phase route, r = 5 tau at
# tau = 150 and 1000 the three-phase one.
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


def test_body_route_choice(monkeypatch):
    routes = []
    for name in ("_fast_phase_factor", "_three_phase_factor"):
        factor = getattr(bath_module, name)
        monkeypatch.setattr(bath_module, name,
                            lambda *a, _f=factor, _n=name: routes.append(_n) or _f(*a))
    fast, three = ["_fast_phase_factor"], ["_three_phase_factor"]
    expect = {
        (0.5, 1.0): [],             # small: adaptive
        (0.0, 20.0): three,
        (0.198, 20.0): [],          # r < tau/100, 5,100 quarter panels: adaptive
        (0.202, 20.0): three,
        (10.0, 20.0): three,
        (80.0, 20.0): three,        # r = 4 tau, the last geometry that is not far
        (100.0, 2.0): [],           # far, 25,500 quarter panels: adaptive
        (400.0, 2.0): fast,
        (2e-3, 2000.0): fast,
        (5000.0, 1000.0): three,    # far, but the tau oscillation needs 255,000
        (200.0, 4e4): three,        # r < tau/100, the r oscillation needs 51,000
    }
    bath = BathParams(1.0, 1.5, 10.0, 1.0)
    for (r, tau), route in expect.items():
        routes.clear()
        gamma_detailed(bath, GeometryParams(r, tau))
        assert routes == route, (r, tau)


def test_filon_body_meets_tolerance_or_raises():
    bath = BathParams(1.0, 2.5, 10.0, 1.0)
    geom = GeometryParams(100.0, 200.0)
    tight = gamma_detailed(bath, geom, QuadratureConfig(abs_tol=1e-300, rel_tol=1e-13))
    assert tight.error_estimate <= 1e-13 * tight.value
    # too few panels to halve even once: the best estimate, head included
    with pytest.raises(ConvergenceError) as exc:
        gamma_detailed(bath, geom, QuadratureConfig(max_panels=40))
    assert exc.value.estimate == pytest.approx(tight.value, rel=1e-9)


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
    assert ohmic[1] == pytest.approx(direct, rel=1e-13)


def test_integrand_tiny_frequency_is_finite():
    # near w = 0 the integrand is A tau^2 T w^(s-1); here w r underflows too
    w = np.array([1e-250])
    bath = BathParams(1.0, 0.5, 10.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.0, 0.7, 1e-100):
            val = decoherence_integrand(w, bath, GeometryParams(r, 1.0))
            assert val[0] == pytest.approx(1e125, rel=1e-12), r


def test_pair_clamps_within_the_error_estimates(monkeypatch):
    # slack = both estimates + 1e-12 Gamma_0 = 2.01e-10 here
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


def test_head_rule_cache_keeps_results_bit_identical():
    geom = GeometryParams(0.5, 1.0)
    bath_module._jacobi_rule.cache_clear()
    cold = gamma_detailed(OHMIC, geom)
    warm = gamma_detailed(OHMIC, geom)
    assert cold == warm
    x, _ = bath_module._jacobi_rule(24, 0.0)
    assert not x.flags.writeable


def test_spectral_density_points():
    assert spectral_density(BathParams(0.0, 1.0, 1.0, 1.0), 2.3) == 0.0
    assert spectral_density(BathParams(1.0, 1.0, 1.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert spectral_density(BathParams(2.0, 2.0, 5.0, 1.0), 3.0) == pytest.approx(
        2.0 * 9.0 * math.exp(-0.6), rel=1e-15
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
    assert g_eps == pytest.approx(g0, rel=1e-6)


def test_gamma0_linear_growth_at_high_temperature():
    # coth kernel ~ 2T/omega at small omega makes Gamma_0 grow ~ tau
    tau = 100.0
    r1 = gamma(OHMIC, GeometryParams(0.0, 2.0 * tau))
    r0 = gamma(OHMIC, GeometryParams(0.0, tau))
    assert r1 / r0 == pytest.approx(2.0, rel=0.05)


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


def test_tolerance_halving_stability():
    geom = GeometryParams(1.5, 2.5)
    loose = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    tight = QuadratureConfig(abs_tol=5e-9, rel_tol=5e-8)
    est = gamma_detailed(OHMIC, geom, loose)
    refined = gamma_detailed(OHMIC, geom, tight)
    assert abs(est.value - refined.value) <= est.error_estimate + 1e-18


def test_zero_temperature_branch():
    cold = gamma(BathParams(1.0, 1.0, 10.0, 0.0), GeometryParams(0.0, 5.0))
    warm = gamma(OHMIC, GeometryParams(0.0, 5.0))
    assert 0.0 < cold < warm


def test_scaled_gamma_identity_scale_one():
    geom = GeometryParams(0.7, 1.3)
    assert scaled_gamma(OHMIC, geom, 1.0) == pytest.approx(
        gamma(OHMIC, geom), rel=1e-12
    )


@pytest.mark.parametrize("s,a", [(1.0, 2.0), (0.5, 4.0)])
def test_scaled_gamma_identity_examples(s, a):
    bath = BathParams(1.0, s, 10.0, 1.0)
    lhs, rhs = scaling_identity_sides(bath, GeometryParams(0.7, 1.3), a)
    assert abs(lhs.value - rhs.value) <= 10.0 * (
        lhs.error_estimate + rhs.error_estimate
    )


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
