import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betainc

from corrqec import (
    DecoherencePair,
    ResidualQuery,
    ScalingScenario,
    asymptotic_residual,
    beta,
    code_avg_residual,
    gamma_budget,
    geometric_grid,
    independent_residual,
    scalability_verdict,
)
from corrqec import residual as residual_module
from corrqec.bath import GeometryParams, gamma_detailed
from corrqec.scalability import scalability_row, scalability_summary
from corrqec.errors import DomainError
from corrqec.quadrature import integrate

# Output of scripts/asymptote_region_oracle.py (piecewise Gauss-Legendre mass
# of the failure region), q = 0.05, gamma0 = 0.01.
REGION_ORACLE = {
    0.01: 0.00142646816069975,
    0.005: 1.0547176885527378e-05,
    0.0025: 7.507505879470959e-10,
    0.00125: 5.125926335277108e-18,
}

FIG_PAIR = DecoherencePair(0.01, 0.01)


def test_query_validation():
    pair = DecoherencePair(0.01, 0.0)
    with pytest.raises(DomainError):
        ResidualQuery(10, 10, pair)
    with pytest.raises(DomainError):
        ResidualQuery(10, -1, pair)
    assert ResidualQuery(20, 0, pair).q == pytest.approx(0.05)


def test_independent_zero_gamma_is_zero():
    assert independent_residual(100, 3, 0.0) == 0.0


def test_independent_matches_exact_binomial_sum():
    # explicit tail sum in rational arithmetic on p_o = (1 - e^-g0)/2, with
    # 1 - e^-x from its alternating series on the exact double g0 (30 terms
    # leave a remainder below x^31/31!)
    n, t, g0 = 20, 1, 0.01
    x = Fraction(g0)
    p = sum((-1) ** (k + 1) * x**k / math.factorial(k) for k in range(1, 31)) / 2
    tail = sum(
        Fraction(math.comb(n, w)) * p**w * (1 - p) ** (n - w)
        for w in range(t + 1, n + 1)
    )
    assert independent_residual(n, t, g0) == pytest.approx(float(tail), rel=1e-14, abs=0.0)


def exact_tail(n: int, t: int, p: float) -> Fraction:
    """P[X > t], X ~ Binomial(n, p), in exact arithmetic on the double p.

    With p = a/d, the tail is sum_k C(n, k) a^k (d - a)^(n-k) / d^n; each
    integer term follows from the last by an exact division.
    """
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    term = math.comb(n, t + 1) * a ** (t + 1) * b ** (n - t - 1)
    total = 0
    for k in range(t + 1, n + 1):
        total += term
        if k < n:
            term = term * (n - k) * a // ((k + 1) * b)
    return Fraction(total, d ** n)


@pytest.mark.parametrize("n,t,p", [
    (1, 0, 0.3), (2, 0, 0.5), (7, 3, 0.2), (50, 10, 0.1),
    (100, 4, 0.005),      # deep tail, a few terms above t
    (300, 150, 0.5),      # t at the mode: both runs are long
    (500, 24, 0.05), (1000, 99, 0.02),
    (2000, 40, 0.03),     # mode above t + 1: the run down stops at t + 1
    (2000, 1990, 0.999),  # q small: the largest term is near n
    (1500, 700, 0.3),     # a tail of about 1e-60
])
def test_binom_tail_matches_exact_sum(n, t, p):
    got = residual_module._binom_tail(n, t, p, 1.0 - p)
    assert got == pytest.approx(float(exact_tail(n, t, p)), rel=1e-13, abs=0.0)


def test_binom_tail_matches_betainc_grid():
    # n log-spaced 2..1e6, nine p, t from 12 standard deviations below the
    # mean to 12 above.  Measured: 1.6e-12 relative at worst (n = 636,039,
    # p = 0.504, a tail of 3e-14), where 40-digit sums put this tail 3.2e-13
    # and betainc 1.3e-12 off the exact value
    from scipy.special import betainc

    rng = np.random.default_rng(2024)
    for n in np.unique(np.round(np.geomspace(2, 1e6, 30)).astype(int)).tolist():
        for p0 in (1e-4, 0.003, 0.02, 0.05, 0.1, 0.3, 0.5, 0.75, 0.97):
            p = float(p0 * rng.uniform(0.99, 1.01))
            q = 1.0 - p
            mean, sd = n * p, math.sqrt(n * p * q)
            for t in {min(n - 1, max(0, round(mean + z * sd))) for z in np.linspace(-12, 12, 17)}:
                ref = float(betainc(t + 1, n - t, p))
                assert residual_module._binom_tail(n, t, p, q) == pytest.approx(ref, rel=3e-12, abs=0.0)


@pytest.mark.parametrize("n,t,p_a,p_b", [
    (1, 0, 0.2, 0.7),          # Beta(1, 1): the density is 1
    (200, 0, 0.0, 0.02),       # t = 0 from p = 0
    (50, 49, 0.9, 1.0),        # n - 1 - t = 0 up to p = 1
    (1000, 49, 0.03, 0.07),
    (100000, 4999, 0.048, 0.052),
])
def test_beta_density_integrates_to_the_tail(n, t, p_a, p_b):
    density = residual_module._beta_density(n, t)
    value, _ = integrate(density, np.linspace(p_a, p_b, 17), rel_tol=1e-13)
    tail = residual_module._binom_tail
    expect = tail(n, t, p_b, 1.0 - p_b) - tail(n, t, p_a, 1.0 - p_a)
    assert value == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_beta_density_endpoints():
    # a power with exponent 0 stays 1 at its zero; the others reach 0
    # without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = np.array([0.0, 1.0])
        assert np.array_equal(residual_module._beta_density(1, 0)(ends), [1.0, 1.0])
        assert residual_module._beta_density(40, 0)(ends) == pytest.approx([40.0, 0.0], rel=1e-15, abs=0.0)
        assert residual_module._beta_density(40, 39)(ends) == pytest.approx([0.0, 40.0], rel=1e-15, abs=0.0)
        assert np.array_equal(residual_module._beta_density(40, 5)(ends), [0.0, 0.0])


@pytest.mark.parametrize("g0,gr", [(0.01, 0.01), (0.3, 0.1), (0.02, 1e-4)])
def test_code_avg_single_qubit_closed_form(g0, gr):
    # n = 1, t = 0: the tail is p_x itself, whose Gaussian average is
    # (1 - e^-(G0-Gr) e^-Gr)/2 = (1 - e^-G0)/2; at G0 = Gr, p_0 = 0
    got = code_avg_residual(ResidualQuery(1, 0, DecoherencePair(g0, gr)))
    assert got == pytest.approx(-0.5 * math.expm1(-g0), rel=1e-12, abs=0.0)


def test_independent_log_linear_decay():
    # Chernoff regime p_o < q: halving points fall on a line in log space
    g0 = 0.01
    ns = [200, 400, 800, 1600]
    logs = [math.log(independent_residual(n, round(0.05 * n) - 1, g0)) for n in ns]
    slopes = [(b - a) / (m - k) for a, b, k, m in zip(logs, logs[1:], ns, ns[1:])]
    mean = sum(slopes) / len(slopes)
    assert max(abs(s / mean - 1.0) for s in slopes) < 0.02


def test_code_avg_zero_pair():
    pair = DecoherencePair(0.0, 0.0)
    for t in (0, 3, 9):
        assert code_avg_residual(ResidualQuery(10, t, pair)) == 0.0


def test_code_avg_single_term_edge():
    pair = DecoherencePair(0.05, 0.01)
    val = code_avg_residual(ResidualQuery(10, 9, pair))
    p_max = (1.0 + math.exp(-(pair.gamma0 - pair.gammaR))) / 2.0
    assert 0.0 <= val <= p_max**10


def test_code_avg_equals_beta_sum():
    n, t = 10, 2
    pair = DecoherencePair(0.01, 0.005)
    direct = sum(math.comb(n, w) * beta(n, w, pair) for w in range(t + 1, n + 1))
    assert abs(code_avg_residual(ResidualQuery(n, t, pair)) - direct) < 1e-12


def test_code_avg_gamma_r_zero_same_code_path():
    pair = DecoherencePair(0.01, 0.0)
    for n, t in [(200, 9), (1600, 79)]:
        assert code_avg_residual(ResidualQuery(n, t, pair)) == independent_residual(
            n, t, 0.01
        )


@pytest.mark.parametrize("n,t", [(100, 4), (1000, 49)])
def test_code_avg_tiny_gamma_r_continuity(n, t):
    narrow = code_avg_residual(ResidualQuery(n, t, DecoherencePair(0.01, 1e-12)))
    indep = independent_residual(n, t, 0.01)
    assert narrow == pytest.approx(indep, rel=1e-6, abs=0.0)


def test_code_avg_ordering_in_gamma_r():
    n, t = 1000, 49
    vals = [
        code_avg_residual(ResidualQuery(n, t, DecoherencePair(0.01, gr)))
        for gr in (0.0, 0.00125, 0.0025, 0.005, 0.01)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b >= a * (1.0 - 1e-9)


def test_code_avg_monotone_tail_in_t():
    pair = DecoherencePair(0.01, 0.005)
    vals = [code_avg_residual(ResidualQuery(200, t, pair)) for t in (5, 7, 9, 11)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a


def test_code_avg_deviation_from_asymptote_shrinks():
    asym = asymptotic_residual(0.05, FIG_PAIR).exact
    devs = []
    for n in (250, 500, 1000, 2000, 4000):
        t = round(0.05 * n) - 1
        devs.append(abs(code_avg_residual(ResidualQuery(n, t, FIG_PAIR)) - asym))
    for a, b in zip(devs, devs[1:]):
        assert b < a


def trapezoid_code_avg(n: int, t: int, g0: float, gr: float) -> float:
    """Gaussian average of I_{p_x}(t+1, n-t) by a dense uniform trapezoid.

    The integrand is even and entire, so the trapezoid over [0, 8 sqrt(gr)]
    with half weight at 0 converges geometrically once the step resolves
    the Gaussian and the binomial step, whose width in x is at least
    dp e^(g0 - gr) with dp one binomial standard deviation of p.
    """
    g = g0 - gr
    center = (t + 1) / (n + 1)
    dp = math.sqrt(center * (1.0 - center) / (n + 2))
    lim = 8.0 * math.sqrt(gr)
    m = math.ceil(lim / min(math.sqrt(gr) / 40.0, dp * math.exp(g) / 20.0, 0.01))
    x = np.linspace(0.0, lim, m + 1)
    p = 0.5 * (-math.expm1(-g) + 2.0 * math.exp(-g) * np.sin(x) ** 2)
    f = np.exp(-x * x / gr) * betainc(t + 1, n - t, p)
    f[0] *= 0.5
    return float(2.0 * (x[1] - x[0]) * f.sum() / math.sqrt(math.pi * gr))


def sweep_draws(count: int, seed: int) -> list[tuple[int, int, float, float]]:
    """(n, t, gamma0, gammaR) over the code average's working range.

    n log-uniform in 1e2..1e6, gammaR log-uniform in 1e-4..0.5, gamma0 =
    gammaR (1 + U(0, 1)) or, with probability 0.1, gamma0 = gammaR; q in
    {0.02, 0.05, 0.1} and t = round(q n) - 1.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        n = round(10.0 ** rng.uniform(2.0, 6.0))
        gr = 10.0 ** rng.uniform(-4.0, math.log10(0.5))
        g0 = gr if rng.random() < 0.1 else gr * (1.0 + rng.uniform())
        t = round(float(rng.choice([0.02, 0.05, 0.1])) * n) - 1
        draws.append((n, t, g0, gr))
    return draws


@pytest.mark.parametrize("n,t,g0,gr", [
    (1000000, 19999, 0.0856448, 0.0436722),
    (26008, 2600, 0.19356779456090945, 0.10519023730649839),
    # p_x never reaches (t+1)/(n+1), but the tail dips near x = k pi
    (1718, 33, 0.18135660867605868, 0.11626814333774495),
    (4000, 199, 0.01, 0.01),
    # t = 0 at G0 = Gr: the boundary term T(p_0) has p_0 = 0
    (50, 0, 0.01, 0.01),
] + sweep_draws(30, seed=4101))
def test_code_avg_matches_dense_trapezoid(n, t, g0, gr):
    got = code_avg_residual(ResidualQuery(n, t, DecoherencePair(g0, gr)))
    assert got == pytest.approx(trapezoid_code_avg(n, t, g0, gr), rel=1e-6, abs=1e-12)


def load_region_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "asymptote_region_oracle.py"
    spec = importlib.util.spec_from_file_location("asymptote_region_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q,expect", [(0.01, 1.0), (0.05, None), (0.9, 0.0)])
def test_region_script_matches_asymptote(q, expect):
    # q = 0.01 lies below every p_x (whole line), q = 0.9 above every p_x
    pair = DecoherencePair(0.5, 0.1)
    mass = load_region_script().region_mass(q, pair.gamma0, pair.gammaR)
    lib = asymptotic_residual(q, pair).exact
    assert mass == pytest.approx(lib, rel=1e-9, abs=0.0)
    if expect is not None:
        assert mass == expect


def test_asymptote_matches_region_oracle():
    for gr, expect in REGION_ORACLE.items():
        got = asymptotic_residual(0.05, DecoherencePair(0.01, gr)).exact
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_asymptote_empty_region():
    # max p_x = (1 + exp(-(g0 - gr))) / 2 = 0.99875 here, so q = 0.999
    # puts the threshold above every achievable flip probability
    res = asymptotic_residual(0.999, DecoherencePair(0.01, 0.005))
    assert res.exact == 0.0


def test_asymptote_full_region():
    # min p_x = (1 - exp(-0.01)) / 2 ~ 0.004975; any smaller q fails everywhere
    res = asymptotic_residual(0.004, DecoherencePair(0.06, 0.05))
    assert res.exact == 1.0


def test_asymptote_gamma_r_zero_indicator():
    pair = DecoherencePair(0.01, 0.0)
    above = asymptotic_residual(0.001, pair)
    below = asymptotic_residual(0.05, pair)
    assert above.exact == above.erfc_approx == 1.0
    assert below.exact == below.erfc_approx == 0.0


def test_asymptote_narrow_band_point():
    res = asymptotic_residual(0.05, DecoherencePair(0.01, 0.00125))
    assert res.erfc_approx == pytest.approx(math.erfc(math.sqrt(40.0)), rel=1e-13, abs=0.0)
    assert res.exact == pytest.approx(REGION_ORACLE[0.00125], rel=1e-12, abs=0.0)
    # the erfc form ignores gamma0, which costs an order of magnitude here
    ratio = res.exact / res.erfc_approx
    assert 13.0 < ratio < 14.5


def test_budget_closed_form_consistency():
    bud = gamma_budget(1000, 0.05, 1.0, 1.0)
    assert not bud.unconstrained
    assert bud.gamma_max == pytest.approx(
        0.05 / (bud.c0 + math.log(1000)), rel=1e-12, abs=0.0
    )


def test_budget_unconstrained_sentinel():
    bud = gamma_budget(100, 0.05, 0.0, 1.0)
    assert bud.unconstrained
    assert math.isinf(bud.gamma_max)


def test_budget_decreasing_in_n():
    prev = math.inf
    for n in (10, 100, 1000, 10**6):
        cur = gamma_budget(n, 0.05, 1.0, 1.0).gamma_max
        assert cur < prev
        prev = cur


def test_budget_inverse_log_scaling():
    small = gamma_budget(10**3, 0.05, 1.0, 1.0)
    large = gamma_budget(10**6, 0.05, 1.0, 1.0)
    predicted = (small.c0 + math.log(10**6)) / (small.c0 + math.log(10**3))
    assert small.gamma_max / large.gamma_max == pytest.approx(predicted, rel=0.05, abs=0.0)


def test_erfc_inverse_matches_scipy():
    from scipy.special import erfcinv

    from corrqec.scalability import _erfcinv
    targets = np.concatenate([np.geomspace(1e-15, 0.5, 4001),
                              1.0 - np.geomspace(1e-12, 0.5, 4001)])
    ours = np.array([_erfcinv(float(y)) for y in targets])
    ref = erfcinv(targets)
    # measured: 5.0e-16 relative (4 ulp)
    assert np.all(np.abs(ours - ref) <= 1e-15 * ref)


def test_budget_validation():
    with pytest.raises(DomainError):
        gamma_budget(1, 0.05, 1.0, 1.0)
    with pytest.raises(DomainError):
        gamma_budget(10, 1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        gamma_budget(10, 0.05, -0.5, 1.0)
    with pytest.raises(DomainError):
        gamma_budget(10, 0.05, 1.0, 0.0)


def scenario(s: float, coupling: float = 0.002) -> ScalingScenario:
    return ScalingScenario(
        s=s,
        y=1.0 / 3.0,
        r0=0.5,
        tau0=1.0,
        n0=100.0,
        T=1.0,
        Omega=10.0,
        q=0.05,
        mu=1.0,
        b=1.0,
        coupling=coupling,
    )


def test_scenario_validation():
    with pytest.raises(DomainError):
        scenario(1.0).__class__(**{**scenario(1.0).__dict__, "y": 0.2})
    with pytest.raises(DomainError):
        scenario(1.0).__class__(**{**scenario(1.0).__dict__, "mu": 0.0})
    with pytest.raises(DomainError):
        scenario(1.0).__class__(**{**scenario(1.0).__dict__, "q": 1.5})


def test_scalability_no_noise():
    grid = geometric_grid(100.0, 1e9, 15)
    report = scalability_verdict(scenario(1.0, coupling=0.0), grid)
    assert report.verdict == "scalable (no noise)"
    assert report.crossover_n is None
    assert all(row.satisfied for row in report.rows)


def test_scalability_ohmic_crossover():
    grid = geometric_grid(100.0, 1e9, 29)
    report = scalability_verdict(scenario(1.0), grid)
    assert report.verdict == "not scalable"
    assert report.crossover_n == pytest.approx(1000.0, rel=1e-9, abs=0.0)
    flags = [row.satisfied for row in report.rows]
    assert flags[0] and not flags[-1]


def test_scalability_super_ohmic_scalable():
    grid = geometric_grid(100.0, 1e9, 29)
    report = scalability_verdict(scenario(2.5), grid)
    assert report.verdict == "scalable"
    assert report.crossover_n is None
    assert all(row.satisfied for row in report.rows)


# The verdict workload's scenarios, whose traced benchmark run replays each
# row through gamma_detailed and compares the report exactly: the batched
# verdict is the row-by-row loop, bit for bit.
@pytest.mark.parametrize("s,coupling", [(1.0, 0.002), (2.0, 0.002), (2.5, 0.002), (1.0, 0.0),
                                        (2.0, 0.0), (2.5, 0.0), (2.5, 50.0), (1.0, 1e-9)])
def test_scalability_verdict_is_the_row_by_row_loop(s, coupling):
    scen = scenario(s, coupling)
    grid = geometric_grid(100.0, 1e9, 29)
    report = scalability_verdict(scen, grid)
    assert report == scalability_summary(scen, [scalability_row(scen, n) for n in grid])
    for row in report.rows:
        est = gamma_detailed(scen.bath, GeometryParams(row.a * scen.r0, row.a * scen.tau0))
        assert (row.gamma_r, row.gamma_err) == (est.value, est.error_estimate)


@pytest.mark.parametrize(
    "s,r0,n0",
    [(2.0, 0.5, 100.0), (2.5, 0.5, 100.0), (1.5, 1.0, 10.0), (2.0, 0.005, 100.0)],
)
def test_scalability_linear_geometry_growth_evaluates(s, r0, n0):
    # y = 1 drives a up to 1e8: every row evaluates, and at large a the rows
    # follow Gamma ~ a^(2-s) (coth ~ 2T/w once aT is large)
    scen = ScalingScenario(
        s=s, y=1.0, r0=r0, tau0=1.0, n0=n0, T=1.0, Omega=10.0,
        q=0.05, mu=1.0, b=1.0, coupling=0.002,
    )
    report = scalability_verdict(scen, geometric_grid(1e2, 1e9, 8))
    assert len(report.rows) == 8
    assert all(math.isfinite(row.gamma_r) and row.gamma_r > 0.0 for row in report.rows)
    last, prev = report.rows[-1], report.rows[-2]
    expect = (last.a / prev.a) ** (2.0 - s)
    assert last.gamma_r / prev.gamma_r == pytest.approx(expect, rel=1e-4, abs=0.0)


def test_geometric_grid_shape():
    grid = geometric_grid(10.0, 1000.0, 5)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(10.0)
    assert grid[-1] == pytest.approx(1000.0)
    assert all(b > a for a, b in zip(grid, grid[1:]))
