import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    BitString,
    DecoherencePair,
    alpha_matrix,
    apply_channel,
    beta,
    coefficient_c,
    encode,
    log_beta,
    p_of_x,
    random_state,
    sample_random_css,
    walsh_transform,
)
from corrqec.bitops import index_weights
from corrqec.errors import DomainError, SizeLimitError
from conftest import random_density


def test_pair_validation():
    DecoherencePair(0.0, 0.0)
    DecoherencePair(0.01, 0.01)
    with pytest.raises(DomainError):
        DecoherencePair(-0.1, 0.0)
    with pytest.raises(DomainError):
        DecoherencePair(0.01, -0.001)
    with pytest.raises(DomainError):
        DecoherencePair(0.004, 0.01)  # gammaR above gamma0


def test_coefficient_hand_value():
    # 3 flipped bits * (0.01 - 0.004) + (3 - 0)^2 * 0.004 = 0.054
    eta = BitString.from_string("111")
    mu = BitString.from_string("000")
    c = coefficient_c(eta, mu, DecoherencePair(0.01, 0.004))
    assert c == pytest.approx(0.054, rel=1e-12, abs=0.0)


def test_bitstring_text_round_trip_and_errors():
    # character j is coordinate j
    b = BitString.from_string("1101")
    assert (b.n, b.bits) == (4, 0b1011) and str(b) == "1101"
    with pytest.raises(DomainError, match=r"invalid bit character '2'"):
        BitString.from_string("1021")
    with pytest.raises(DomainError, match="register length"):
        BitString.from_string("")


@given(
    eta=st.integers(0, 31),
    mu=st.integers(0, 31),
    g0=st.floats(0.0, 0.5),
    frac=st.floats(0.0, 1.0),
)
def test_coefficient_symmetry_and_sign(eta, mu, g0, frac):
    pair = DecoherencePair(g0, g0 * frac)
    a = BitString(5, eta)
    b = BitString(5, mu)
    assert coefficient_c(a, b, pair) == coefficient_c(b, a, pair)
    assert coefficient_c(a, a, pair) == 0.0
    assert coefficient_c(a, b, pair) >= 0.0


def test_channel_zero_noise_is_identity(rng):
    rho = random_density(3, rng)
    out = apply_channel(rho, DecoherencePair(0.0, 0.0))
    assert np.array_equal(out, rho.astype(complex))


def test_channel_diagonal_untouched_and_trace_exact(rng):
    for n in (1, 2, 4):
        rho = random_density(n, rng)
        out = apply_channel(rho, DecoherencePair(0.07, 0.03))
        # C vanishes on the diagonal, so those entries are multiplied by 1.0
        assert np.array_equal(np.diagonal(out), np.diagonal(rho).astype(complex))
        assert np.trace(out) == np.trace(rho.astype(complex))


def test_channel_preserves_positivity(rng):
    for n in (2, 4, 6):
        rho = random_density(n, rng)
        out = apply_channel(rho, DecoherencePair(0.3, 0.1))
        assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_channel_uniform_matrix_matches_pair(rng):
    n = 4
    rho = random_density(n, rng)
    pair = DecoherencePair(0.05, 0.02)
    G = np.full((n, n), pair.gammaR)
    np.fill_diagonal(G, pair.gamma0)
    assert np.allclose(
        apply_channel(rho, pair),
        apply_channel(rho, gamma_matrix=G),
        rtol=1e-12,
        atol=1e-15,
    )


def test_channel_argument_exclusivity(rng):
    rho = random_density(1, rng)
    with pytest.raises(DomainError):
        apply_channel(rho)
    with pytest.raises(DomainError):
        apply_channel(rho, DecoherencePair(0.1, 0.0), gamma_matrix=np.eye(1))


def _decay_table(n: int, pair=None, gamma_matrix=None) -> np.ndarray:
    # exp(-C[eta, mu]) entry by entry, from coefficient_c or the sum over (l, m)
    dim = 1 << n
    out = np.empty((dim, dim))
    for eta in range(dim):
        for mu in range(dim):
            if pair is not None:
                c = coefficient_c(BitString(n, eta), BitString(n, mu), pair)
            else:
                d = [((eta >> j) & 1) - ((mu >> j) & 1) for j in range(n)]
                c = sum(d[l] * d[m] * gamma_matrix[l, m]
                        for l in range(n) for m in range(n))
            out[eta, mu] = math.exp(-c)
    return out


def test_channel_matches_elementwise_route(rng):
    """Sparse, full and row/column-mismatched supports, in both branches."""
    pair = DecoherencePair(0.2, 0.07)
    for n, k in ((5, 1), (6, 2)):
        G = rng.uniform(0.0, 0.2, size=(n, n))
        G = G + G.T + np.diag(rng.uniform(0.3, 0.5, size=n))
        code = sample_random_css(n, k, rng)
        sparse = encode(random_state(k, rng).amplitudes, code).to_density()
        full = random_density(n, rng)
        skew = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        skew[3] = 0.0  # row 3 is zero, column 3 is not
        skew[:, 5] = 0.0  # column 5 is zero, row 5 is not
        for kw, ref in (({"pair": pair}, _decay_table(n, pair=pair)),
                        ({"gamma_matrix": G}, _decay_table(n, gamma_matrix=G))):
            out = apply_channel(sparse, **kw)
            assert type(out) is type(sparse)
            assert np.allclose(out.entries, sparse.entries * ref, rtol=1e-13, atol=0.0)
            assert np.array_equal(out.entries == 0, sparse.entries == 0)
            assert np.allclose(apply_channel(full, **kw), full * ref, rtol=1e-13, atol=0.0)
            got = apply_channel(skew, **kw)
            assert np.allclose(got, skew * ref, rtol=1e-13, atol=0.0)
            assert not got[3].any() and not got[:, 5].any()


def test_channel_checks_bytes_before_allocating():
    # a zero-stride view: 2^13 x 2^13 entries that occupy one element
    huge = np.broadcast_to(np.zeros(1, dtype=complex), (1 << 13, 1 << 13))
    with pytest.raises(SizeLimitError):
        apply_channel(huge, DecoherencePair(0.1, 0.0))


def test_alpha_checks_bytes_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            alpha_matrix(13, DecoherencePair(0.1, 0.05))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_alpha_single_qubit_closed_form():
    g0 = 0.37
    m = math.exp(-g0)
    entries = alpha_matrix(1, DecoherencePair(g0, 0.0)).entries
    expect = np.array([[(1 + m) / 2, 0.0], [0.0, (1 - m) / 2]])
    assert np.allclose(entries, expect, atol=1e-15)


@pytest.mark.parametrize("n,pair", [
    (2, DecoherencePair(0.01, 0.0)),
    (4, DecoherencePair(0.05, 0.02)),
    (6, DecoherencePair(0.3, 0.3)),
])
def test_alpha_structure(n, pair):
    alpha = alpha_matrix(n, pair).entries
    assert np.allclose(alpha, alpha.T, atol=1e-14)
    assert np.trace(alpha) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(alpha).min() >= -1e-12
    # the diagonal depends on the label weight only
    diag = np.diagonal(alpha)
    for w in range(n + 1):
        grp = diag[index_weights(n) == w]
        assert np.ptp(grp) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
def test_alpha_matches_transposed_row_transforms(n):
    # 4^-n W(W(E)^T) with W the row transform: H E^T H, equal to H E H as E
    # is symmetric; E is formed here from C's closed form, without a table
    pair = DecoherencePair(0.04, 0.015)
    idx = np.arange(1 << n)
    w = index_weights(n)
    e = np.exp(-((pair.gamma0 - pair.gammaR) * np.bitwise_count(idx[:, None] ^ idx)
                 + pair.gammaR * (w[:, None] - w) ** 2))
    ref = walsh_transform(walsh_transform(e).T) * 0.25 ** n
    got = alpha_matrix(n, pair).entries
    assert got.flags.c_contiguous
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def _walsh_long_double(m: np.ndarray, axis: int) -> np.ndarray:
    # in-place butterflies of the unnormalized Walsh transform along one axis:
    # (a, b) -> (a + b, (a + b) - 2b)
    m = np.moveaxis(m, axis, -1)
    dim, h = m.shape[-1], 1
    while h < dim:
        v = m.reshape(m.shape[:-1] + (dim // (2 * h), 2, h))
        v[..., 0, :] += v[..., 1, :]
        v[..., 1, :] *= -2
        v[..., 1, :] += v[..., 0, :]
        h *= 2
    return np.moveaxis(m, -1, axis)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble has no extra precision on this platform")
@pytest.mark.parametrize("n", [7, 9, 10])
def test_alpha_matches_long_double_walsh_reference(n):
    """alpha_matrix, gathered from its weight classes, is within 4 eps max|alpha|
    of H exp(-C) H / 4^n with exp(-C) and both transforms in long double."""
    idx = np.arange(1 << n)
    w = index_weights(n).astype(np.int64)
    flips = np.bitwise_count(idx[:, None] ^ idx)
    dw = w[:, None] - w
    grid_f = np.arange(n + 1, dtype=np.longdouble)[:, None]
    grid_dw = np.arange(-n, n + 1, dtype=np.longdouble)
    for pair in (DecoherencePair(0.02, 0.008), DecoherencePair(0.3, 0.0),
                 DecoherencePair(1.5, 1.2)):
        g0, gr = np.longdouble(pair.gamma0), np.longdouble(pair.gammaR)
        # exp(-C) per (flips, dw) in long double, then spread over the matrix
        table = np.exp(-((g0 - gr) * grid_f + gr * grid_dw ** 2))
        e = table[flips, dw + n]
        ref = _walsh_long_double(_walsh_long_double(e, 0), 1) / np.longdouble(4) ** n
        got = alpha_matrix(n, pair).entries
        err = np.abs(got - ref).max()
        assert err <= 4 * np.finfo(float).eps * np.abs(ref).max()


def test_alpha_diag_equals_beta():
    n = 4
    pair = DecoherencePair(0.04, 0.015)
    diag = np.diagonal(alpha_matrix(n, pair).entries)
    weights = index_weights(n)
    for w in range(n + 1):
        assert abs(diag[weights == w][0] - beta(n, w, pair)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_channel_equals_z_kraus_representation(n, rng):
    """The elementwise-decay form must agree with sum alpha_vv' Z_v rho Z_v'."""
    pair = DecoherencePair(0.08, 0.03)
    rho = random_density(n, rng)
    dim = 1 << n
    idx = np.arange(dim)
    # signs[v, y] = (-1)^(v . y)
    signs = 1.0 - 2.0 * (
        np.array(
            [[(int(v & y)).bit_count() & 1 for y in idx] for v in idx], dtype=float
        )
    )
    alpha = alpha_matrix(n, pair).entries
    kraus = rho * (signs.T @ alpha @ signs)
    assert np.allclose(apply_channel(rho, pair), kraus, atol=1e-10)


def test_p_of_x_edges():
    assert p_of_x(DecoherencePair(0.02, 0.02), 0.0) == 0.0
    p_o = p_of_x(DecoherencePair(0.01, 0.0), 0.0)
    assert p_o == pytest.approx((1.0 - math.exp(-0.01)) / 2.0, rel=1e-14, abs=0.0)


@given(g0=st.floats(0.0, 2.0), frac=st.floats(0.0, 1.0), x=st.floats(-20.0, 20.0))
def test_p_of_x_is_probability(g0, frac, x):
    p = p_of_x(DecoherencePair(g0, g0 * frac), x)
    assert 0.0 <= p <= 1.0


def test_beta_zero_noise():
    pair = DecoherencePair(0.0, 0.0)
    assert beta(5, 0, pair) == 1.0
    for w in range(1, 6):
        assert beta(5, w, pair) == 0.0


def test_beta_independent_branch_closed_form():
    n, g0 = 9, 0.02
    p_o = (1.0 - math.exp(-g0)) / 2.0
    pair = DecoherencePair(g0, 0.0)
    for w in range(n + 1):
        expect = p_o**w * (1.0 - p_o) ** (n - w)
        assert beta(n, w, pair) == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_beta_completeness():
    n = 10
    pair = DecoherencePair(0.01, 0.005)
    total = sum(math.comb(n, w) * beta(n, w, pair) for w in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_beta_range():
    pair = DecoherencePair(0.6, 0.25)
    for w in range(8):
        assert 0.0 <= beta(7, w, pair) <= 1.0


def test_log_beta_matches_direct_log():
    pair = DecoherencePair(0.02, 0.008)
    for n, w in [(10, 3), (50, 10), (200, 17)]:
        direct = math.log(beta(n, w, pair))
        assert abs(log_beta(n, w, pair) - direct) < 1e-8


def log_trapezoid_beta(n: int, w: int, g0: float, gr: float) -> float:
    """log beta_w by a dense uniform trapezoid over the whole line, log-sum-exp.

    The integrand is entire, so the trapezoid converges geometrically once
    the grid step resolves the Gaussian and the flip-factor peak.  Beyond
    sqrt(gr (80 - phi(x0))) the Gaussian factor alone is below e^-80 of the
    integrand at x0, since the flip factor never exceeds 1.
    """
    g = g0 - gr

    def phi(x):
        with np.errstate(divide="ignore"):
            lp = np.log(0.5 * (-math.expm1(-g) + 2.0 * math.exp(-g) * np.sin(x) ** 2))
            l1p = np.log(0.5 * (-math.expm1(-g) + 2.0 * math.exp(-g) * np.cos(x) ** 2))
        return -x * x / gr + (w * lp if w else 0.0) + ((n - w) * l1p if w < n else 0.0)

    lim = math.sqrt(gr * (80.0 - float(phi(np.array(math.sqrt(gr))))))
    h = min(0.05 / math.sqrt(n), math.sqrt(gr) / 100.0)
    x = np.linspace(-lim, lim, 2 * math.ceil(lim / h) + 1)
    terms = phi(x) + math.log(x[1] - x[0]) - 0.5 * math.log(math.pi * gr)
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()))


@pytest.mark.parametrize("n,w,g0,gr", [
    (6940, 334, 0.7579615419173465, 0.4849643875081321),
    (3542, 2325, 0.20353001417462097, 0.10834823589623425),
    (200, 20, 0.05, 0.05),  # gamma0 == gammaR: p_x = 0 at x = 0
    (60, 30, 0.9, 0.7),
])
def test_log_beta_matches_log_trapezoid(n, w, g0, gr):
    got = log_beta(n, w, DecoherencePair(g0, gr))
    assert abs(got - log_trapezoid_beta(n, w, g0, gr)) < 1e-8


def test_log_beta_tiny_gamma_r_meets_closed_form():
    # the gammaR = 0 closed form, -26.9903785043721
    p_o = -0.5 * math.expm1(-0.01)
    closed = 5 * math.log(p_o) + 95 * math.log1p(-p_o)
    got = log_beta(100, 5, DecoherencePair(0.01, 1e-12))
    assert abs(got - closed) < 1e-8


def test_log_beta_deep_tail():
    # far beyond double-precision underflow for the plain value
    val = log_beta(5000, 2400, DecoherencePair(0.01, 0.004))
    assert math.isfinite(val)
    assert val < -1000.0


def test_log_beta_deterministic():
    pair = DecoherencePair(0.05, 0.02)
    assert log_beta(300, 40, pair) == log_beta(300, 40, pair)


def test_walsh_transform_involution(rng):
    v = rng.normal(size=16)
    assert np.allclose(walsh_transform(walsh_transform(v)), 16 * v, atol=1e-12)


def test_walsh_transform_matches_explicit_matrix(rng):
    for p in range(12):
        m = 1 << p
        j = np.arange(m)
        H = 1.0 - 2.0 * (np.bitwise_count(j[:, None] & j[None, :]) & 1)
        vec = rng.normal(size=m)
        rows = rng.normal(size=(3, m))
        cols = rng.normal(size=(m, 3)).T  # non-contiguous rows
        tol = 1e-13 * m
        assert np.abs(walsh_transform(vec) - H @ vec).max() < tol
        assert np.abs(walsh_transform(rows) - rows @ H).max() < tol
        assert np.abs(walsh_transform(cols) - cols @ H).max() < tol
        assert walsh_transform(cols).shape == (3, m)


def test_walsh_transform_requires_power_of_two():
    with pytest.raises(DomainError):
        walsh_transform(np.ones(3))
