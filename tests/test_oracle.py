import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from corrqec import (
    AlphaMatrix,
    BitString,
    CssCodePair,
    DecoherencePair,
    DensityMatrix,
    LinearCode,
    PureState,
    alpha_matrix,
    apply_channel,
    apply_recovery,
    codewords,
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


@dataclass(frozen=True)
class PauliLabel:
    """One recovery term: X on the support of x_part, Z on the support of z_part."""

    x_part: BitString
    z_part: BitString

    def __post_init__(self):
        if self.x_part.n != self.z_part.n:
            raise DomainError("X and Z parts must have equal length")


def correction_labels(pair: CssCodePair) -> list[PauliLabel]:
    """All X_mu Z_nu with |mu| <= t and |nu| <= t, in (mu, nu) index order:
    the exact term set of the recovery map, which apply_recovery batches."""
    low = [int(v) for v in np.nonzero(index_weights(pair.n) <= pair.t)[0]]
    return [PauliLabel(BitString(pair.n, m), BitString(pair.n, v))
            for m in low for v in low]


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


def _hermitian_cases(rng) -> list[np.ndarray]:
    # 16 x 16 matrices live on rows {1, 5, 6, 12} plus edits around them;
    # every case has a real, nonnegative trace
    dim = 16
    live = [1, 5, 6, 12]
    base = np.zeros((dim, dim), dtype=complex)
    base[np.ix_(live, live)] = random_density(2, rng)
    cases = [np.zeros((dim, dim), dtype=complex), base,
             np.broadcast_to(np.zeros(1, dtype=complex), (dim, dim)),
             np.broadcast_to(np.full(1, 1.0 / dim, dtype=complex), (dim, dim)),
             np.broadcast_to(np.linspace(0.0, 0.1, dim).astype(complex), (dim, dim))]
    for dev in (0.9e-10, 1.1e-10):
        for i, j in ((5, 3), (3, 5), (1, 12), (0, 15)):
            # (5, 3) and (0, 15) pair an entry with a zero row; (3, 5) makes
            # row 3 live against a zero entry in row 5's column 3
            edited = base.copy()
            edited[i, j] += dev * 1j
            cases += [edited, edited.T, np.kron(edited, np.ones((2, 2)))[::2, ::2]]
    return cases


def test_hermiticity_decides_as_full_matrix_maximum(rng):
    decisions = []
    for mat in _hermitian_cases(rng):
        full = np.abs(mat - mat.conj().T).max()
        try:
            DensityMatrix(4, mat)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == (full <= 1e-10)
        decisions.append(accepted)
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 0.0]],
    [[0.5, np.inf], [np.inf, 0.5]],
    [[0.5, complex(np.inf, np.inf)], [complex(np.inf, -np.inf), 0.5]],
], ids=["nan_diagonal", "inf_off_diagonal", "complex_inf_off_diagonal"])
def test_density_rejects_non_finite(entries):
    with pytest.raises(DomainError):
        DensityMatrix(1, np.array(entries, dtype=complex))


def test_pure_state_rejects_non_finite():
    with pytest.raises(DomainError):
        PureState(1, np.array([np.nan, 1.0]))


def test_to_density_equals_full_outer_product(steane, rng):
    psi = encode(random_state(1, rng).amplitudes, steane)
    rho = psi.to_density().entries
    assert np.array_equal(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    assert np.count_nonzero(rho) == 16 * 16


def test_residual_exact_is_the_call_by_call_chain(steane):
    """residual_exact, on the C1 x C1 block, gives the bits of encode ->
    to_density -> apply_channel -> apply_recovery -> vdot called step by step:
    t = 0 and t >= 1, gammaR = 0, a logical basis state (zero amplitudes on
    part of C1) and degenerate codes whose residual is negative."""
    rng = np.random.default_rng(10)
    pairs = [steane]
    for n, k in ((8, 1), (9, 2), (10, 1)):
        for want_t1 in (False, True):
            code = sample_random_css(n, k, rng)
            while (code.t >= 1) != want_t1:
                code = sample_random_css(n, k, rng)
            pairs.append(code)
    values = []
    for pair in pairs:
        basis = np.zeros(1 << pair.k)
        basis[0] = 1.0
        for psi in (random_state(pair.k, rng), PureState(pair.k, basis)):
            for dec in (DecoherencePair(0.02, 0.008), DecoherencePair(0.3, 0.0)):
                encoded = encode(psi.amplitudes, pair)
                noisy = apply_channel(encoded.to_density(), dec)
                recovered = apply_recovery(noisy, pair)
                fid = np.vdot(encoded.amplitudes, recovered.entries @ encoded.amplitudes)
                values.append(residual_exact(psi, dec, pair))
                assert values[-1] == 1.0 - float(fid.real)
    assert min(values) < 0.0


@pytest.mark.parametrize("dec", [DecoherencePair(math.inf, 0.0),
                                 DecoherencePair(math.inf, math.inf)], ids=["inf_0", "inf_inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_exact_rejects_non_finite_pair(steane, dec):
    # DecoherencePair admits inf; exp(-C) then holds 0 * inf or inf - inf
    with pytest.raises(DomainError):
        residual_exact(random_state(1, np.random.default_rng(3)), dec, steane)


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


def _trivial_pair(n: int) -> CssCodePair:
    # C1 = {0, e_0}, C2 = {0}: k = 1 at any n, with nothing of size 2^n built
    return CssCodePair.from_codes(LinearCode.from_rows(n, [1]), LinearCode.from_rows(n, []))


def _zeros(n: int, dtype) -> np.ndarray:
    # a 2^n x 2^n argument in one element of memory
    return np.broadcast_to(np.zeros(1, dtype=dtype), (1 << n, 1 << n))


# one call just past each qubit cap, as (function, arguments) built outside
# the measured window
_PAST_CAP = {
    "residual_exact": lambda: (residual_exact, (
        x_polarized_state(1), DecoherencePair(0.1, 0.05), _trivial_pair(11))),
    "apply_recovery": lambda: (apply_recovery, (
        DensityMatrix(11, _zeros(11, complex)), _trivial_pair(11))),
    "fidelity_formula": lambda: (fidelity_formula, (
        x_polarized_state(11), AlphaMatrix(11, _zeros(11, float)), _trivial_pair(11))),
    "encode": lambda: (encode, ([1.0, 0.0], _trivial_pair(13))),
    "random_state": lambda: (random_state, (15, np.random.default_rng(0))),
    "x_polarized_state": lambda: (x_polarized_state, (15,)),
    "codewords": lambda: (codewords, (_trivial_pair(15),)),
}


@pytest.mark.parametrize("name", list(_PAST_CAP))
def test_qubit_caps_raise_before_allocating(name):
    fn, args = _PAST_CAP[name]()
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
