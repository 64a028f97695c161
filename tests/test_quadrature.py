import math

import numpy as np
import pytest

from corrqec.errors import ConvergenceError
from corrqec.quadrature import _G7, _K15, _NODES, integrate


def monomial_error(weights, degree: int) -> float:
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    return abs(float(weights @ _NODES ** degree) - exact)


def test_kronrod_exact_to_degree_23_and_gauss_to_13():
    assert max(monomial_error(_K15, d) for d in range(24)) < 1e-15
    assert max(monomial_error(_G7, d) for d in range(14)) < 1e-15
    # and no further, so the degrees are the rules' own
    assert monomial_error(_K15, 24) > 1e-10
    assert monomial_error(_G7, 14) > 1e-5


def test_gauss_rule_is_leggauss_7():
    x, w = np.polynomial.legendre.leggauss(7)
    shared = _G7 != 0.0
    assert np.count_nonzero(shared) == 7
    assert np.abs(_NODES[shared] - x).max() < 1e-15
    assert np.abs(_G7[shared] - w).max() < 1e-15


def test_rules_symmetric_with_mass_two():
    assert np.all(np.diff(_NODES) > 0.0)
    assert np.array_equal(_NODES, -_NODES[::-1])
    for weights in (_K15, _G7):
        assert np.array_equal(weights, weights[::-1])
        assert abs(weights.sum() - 2.0) < 1e-15


def test_one_call_per_refinement_level():
    # x^14 on [0, 1]: K15 is exact, and G7 misses by the same amount on
    # every panel of a width, so each level bisects every panel and cuts the
    # summed estimate by 2^-14
    x, w = np.polynomial.legendre.leggauss(7)
    first_err = abs(float(w @ ((1.0 + x) / 2.0) ** 14) / 2.0 - 1.0 / 15.0)
    rel_tol = 1e-13
    levels = math.ceil(math.log2(first_err / (rel_tol / 15.0)) / 14.0)
    sizes = []

    def f(xs):
        sizes.append(xs.size)
        return xs ** 14

    value, err = integrate(f, [0.0, 1.0], rel_tol=rel_tol)
    assert levels >= 2
    assert sizes == [15 * 2 ** k for k in range(levels + 1)]
    assert value == pytest.approx(1.0 / 15.0, rel=1e-14, abs=0.0)
    # the estimate is |K15 - G7| itself, summed over the 2^levels panels
    assert err == pytest.approx(first_err * 2.0 ** (-14 * levels), rel=1e-2, abs=0.0)
    assert err <= rel_tol / 15.0


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
@pytest.mark.parametrize("f,a,b,exact", [
    (np.exp, 0.0, 3.0, math.expm1(3.0)),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0)),
    (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
    (lambda x: np.exp(-x * x), -6.0, 6.0, math.sqrt(math.pi) * math.erf(6.0)),
])
def test_estimate_bounds_the_error(f, a, b, exact, rel_tol):
    value, err = integrate(f, [a, b], rel_tol=rel_tol)
    assert err <= rel_tol * abs(value)
    assert abs(value - exact) <= err


def test_budget_exhaustion_carries_the_estimate():
    with pytest.raises(ConvergenceError) as info:
        integrate(lambda x: np.sin(300.0 * x), np.linspace(0.0, 1.0, 9),
                  rel_tol=1e-12, max_panels=16)
    exc = info.value
    assert math.isfinite(exc.estimate) and math.isfinite(exc.error_estimate)
    assert exc.error_estimate > 1e-12 * abs(exc.estimate)
