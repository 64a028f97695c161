import math
import tracemalloc

import numpy as np
import pytest

from corrqec import (
    CssCodePair,
    DecoherencePair,
    DensityMatrix,
    LinearCode,
    PureState,
    alpha_matrix,
    apply_channel,
    apply_recovery,
    codewords,
    correction_labels,
    dual,
    encode,
    fidelity_formula,
    random_state,
    residual_exact,
    sample_random_css,
    x_polarized_state,
)
from corrqec.bitops import index_weights
from corrqec.errors import DomainError, SizeLimitError
from conftest import random_density, toy_pair_t0


def z_flip(state: PureState, qubit: int) -> DensityMatrix:
    amps = state.amplitudes.copy()
    idx = np.arange(amps.size)
    amps = np.where((idx >> qubit) & 1, -amps, amps)
    flipped = PureState(state.n, amps)
    return flipped.to_density()


def _dense_recovery(rho: np.ndarray, pair: CssCodePair) -> np.ndarray:
    """Reference recovery over the whole 2^n index space, every mu term.

    The Z-sum mask g[v] = sum over |nu| <= t of (-1)^(v . nu) is built term
    by term, independently of walsh_transform.
    """
    dim = 1 << pair.n
    idx = np.arange(dim)
    low = np.flatnonzero(index_weights(pair.n) <= pair.t)
    parity = np.bitwise_count(idx[:, None] & low[None, :]) & 1
    g = (1.0 - 2.0 * parity).sum(axis=1)
    masked = rho * g[idx[:, None] ^ idx[None, :]]
    v = np.column_stack([st.amplitudes for st in codewords(pair)])
    acc = np.zeros((v.shape[1], v.shape[1]), dtype=complex)
    for mu in low:
        perm = idx ^ mu
        acc += v.T @ (masked[np.ix_(perm, perm)] @ v)
    return v @ acc @ v.T


def _recovery_pairs(steane) -> list[CssCodePair]:
    rng = np.random.default_rng(808)
    pairs = [steane, toy_pair_t0()]
    while len(pairs) < 4:
        code = sample_random_css(8, 1, rng)
        if code.t >= 1:
            pairs.append(code)
    return pairs


def test_recovery_matches_dense_reference(steane, rng):
    """apply_recovery reads only the C1 support; the full 2^n route must agree."""
    for pair in _recovery_pairs(steane):
        n = pair.n
        psi = encode(random_state(pair.k, rng).amplitudes, pair)
        idx = np.arange(1 << n)
        inputs = [
            apply_channel(psi.to_density(), DecoherencePair(0.3, 0.1)).entries,
            random_density(n, rng),
        ]
        # X-flipped code states: their support lies off C1
        for x in (1, 1 << (n - 1), 0b11):
            inputs.append(PureState(n, psi.amplitudes[idx ^ x]).to_density().entries)
        for rho in inputs:
            got = apply_recovery(DensityMatrix(n, rho), pair).entries
            assert np.abs(got - _dense_recovery(rho, pair)).max() < 1e-14


def test_pure_state_norm_enforced():
    with pytest.raises(DomainError):
        PureState(1, np.array([1.0, 1.0]))
    PureState(1, np.array([1.0, 1.0]) / math.sqrt(2))


def test_density_hermiticity_enforced():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DomainError):
        DensityMatrix(1, bad)


@pytest.mark.parametrize("entry", [(200, 10), (63, 64), (64, 63), (255, 0), (0, 255),
                                   (255, 200)])
def test_density_hermiticity_enforced_at_dim_256(entry, rng):
    rho = random_density(8, rng)
    DensityMatrix(8, rho)
    bad = rho.copy()
    bad[entry] += 1e-9j
    with pytest.raises(DomainError):
        DensityMatrix(8, bad)
    near = rho.copy()
    near[entry] += 1e-11j
    DensityMatrix(8, near)


def test_to_density_checks_bytes_before_allocating():
    state = x_polarized_state(13)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            state.to_density()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert x_polarized_state(12).n == 12


def test_encode_steane_logical_zero(steane):
    psi = encode([1.0, 0.0], steane)
    ref = codewords(steane)[0].amplitudes
    assert np.allclose(psi.amplitudes, ref, atol=1e-12)
    nz = np.flatnonzero(psi.amplitudes)
    assert len(nz) == 16
    assert np.allclose(np.abs(psi.amplitudes[nz]), 0.25)


def test_encode_is_isometry(steane, rng):
    a = random_state(1, rng).amplitudes
    b = random_state(1, rng).amplitudes
    inner_logical = np.vdot(a, b)
    inner_encoded = np.vdot(encode(a, steane).amplitudes, encode(b, steane).amplitudes)
    assert inner_encoded == pytest.approx(inner_logical, abs=1e-12)


def test_encode_k0_returns_single_code_state():
    c = dual(LinearCode.from_rows(3, [0b111]))
    pair = CssCodePair.from_codes(c, c)
    assert pair.k == 0
    base = encode([1.0], pair)
    rotated = encode([1j], pair)
    overlap = abs(np.vdot(base.amplitudes, rotated.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_encode_rejects_unnormalized(steane):
    with pytest.raises(DomainError):
        encode([1.0, 1.0], steane)


def test_recovery_fixes_code_state(steane):
    rho = encode([0.6, 0.8], steane).to_density()
    out = apply_recovery(rho, steane)
    assert np.allclose(out.entries, rho.entries, atol=1e-12)


def test_recovery_corrects_single_phase_flip(steane):
    psi = encode([0.6, 0.8], steane)
    for qubit in (0, 3, 6):
        recovered = apply_recovery(z_flip(psi, qubit), steane)
        fid = np.vdot(psi.amplitudes, recovered.entries @ psi.amplitudes).real
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_recovery_weight_two_flip_not_corrected(steane):
    psi = encode([1.0, 0.0], steane)
    amps = psi.amplitudes.copy()
    idx = np.arange(amps.size)
    for qubit in (0, 1):
        amps = np.where((idx >> qubit) & 1, -amps, amps)
    rho2 = PureState(7, amps).to_density()
    recovered = apply_recovery(rho2, steane)
    fid = np.vdot(psi.amplitudes, recovered.entries @ psi.amplitudes).real
    assert fid < 1.0 - 1e-3


def test_recovery_trace_preserved_on_perfect_code(steane, rng):
    psi = encode(random_state(1, rng).amplitudes, steane)
    noisy = apply_channel(psi.to_density(), DecoherencePair(0.05, 0.02))
    out = apply_recovery(noisy, steane)
    assert out.trace == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.entries).min() >= -1e-10


def test_correction_label_count(steane):
    labels = correction_labels(steane)
    assert len(labels) == 64  # 8 X-parts times 8 Z-parts at t = 1, n = 7


def test_fidelity_formula_identity_channel(steane, rng):
    psi = encode(random_state(1, rng).amplitudes, steane)
    alpha = alpha_matrix(7, DecoherencePair(0.0, 0.0))
    assert fidelity_formula(psi, alpha, steane) == pytest.approx(1.0, abs=1e-12)


def test_residual_noiseless_is_zero(steane, rng):
    psi = random_state(1, rng)
    assert abs(residual_exact(psi, DecoherencePair(0.0, 0.0), steane)) < 1e-12


def test_residual_fully_correlated_matches_formula(steane, rng):
    pair = DecoherencePair(0.05, 0.05)
    psi = random_state(1, rng)
    exact = residual_exact(psi, pair, steane)
    encoded = encode(psi.amplitudes, steane)
    formula = 1.0 - fidelity_formula(encoded, alpha_matrix(7, pair), steane)
    assert abs(exact - formula) < 1e-10


def test_residual_single_qubit_error_suppressed(steane, rng):
    delta = residual_exact(random_state(1, rng), DecoherencePair(0.01, 0.0), steane)
    single = 1.0 - math.exp(-0.01)
    assert 0.0 < delta < 0.1 * single


def test_toy_pair_formula_matches_pipeline(rng):
    pair = toy_pair_t0()
    dec = DecoherencePair(0.08, 0.03)
    for _ in range(5):
        psi = random_state(1, rng)
        exact = residual_exact(psi, dec, pair)
        encoded = encode(psi.amplitudes, pair)
        formula = 1.0 - fidelity_formula(encoded, alpha_matrix(3, dec), pair)
        assert abs(exact - formula) < 1e-10


def test_residual_monotone_in_gamma0(steane, rng):
    psi = random_state(1, rng)
    gr = 0.01
    vals = [
        residual_exact(psi, DecoherencePair(g0, gr), steane)
        for g0 in (0.01, 0.02, 0.04, 0.08)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12


def test_x_polarized_state():
    st1 = x_polarized_state(1)
    assert np.allclose(st1.amplitudes, [1 / math.sqrt(2)] * 2)
    st3 = x_polarized_state(3)
    assert np.allclose(st3.amplitudes, np.full(8, 2.0**-1.5))


def test_random_state_seed_reproducible():
    a = random_state(3, np.random.default_rng(42)).amplitudes
    b = random_state(3, np.random.default_rng(42)).amplitudes
    assert np.array_equal(a, b)
    c = random_state(3, np.random.default_rng(43)).amplitudes
    assert not np.array_equal(a, c)
