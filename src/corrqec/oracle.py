"""Exact small-n simulation: encode, dephase, recover, and score fidelity.

This module is the ground-truth side of every cross-check.  States and
density matrices are dense 2^n objects (full pipelines up to n = 10, any
dense matrix within the 2^28-byte budget), but the kernels only compute
where their result can be nonzero: an encoded state lives on the
2^dim(C1) indices of C1, so to_density fills only that block of
|psi><psi|, the channel decays only the rows where its input is nonzero,
recovery reads only the C1 x C1 block through the isometry, and the
DensityMatrix checks read only the nonzero rows.  Each restriction skips
exact zeros only: the checks decide exactly as on the full matrix, and the
results equal the full-index computation up to rounding.  residual_exact
does the chain's arithmetic on the C1 x C1 block and takes the final product
on R's 2^dim(C1) live rows, each kept at its full 2^n length (16 *
2^(n + dim C1) bytes), so its value is the chain's bit for bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitops import index_weights
from .codes import CssCodePair, codewords
from .dephasing import AlphaMatrix, DecoherencePair, _pair_decay, walsh_transform
from .errors import DomainError, SizeLimitError, check_dense_bytes

__all__ = [
    "PureState", "DensityMatrix", "encode", "apply_recovery",
    "fidelity_formula", "residual_exact", "x_polarized_state", "random_state",
]

_PIPELINE_CAP = 10


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over n qubits (basis index bit j = qubit j)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 1 << self.n:
            raise DomainError(f"expected 2^{self.n} amplitudes, got {amps.shape[0]}")
        if not np.isfinite(amps).all():
            raise DomainError("state has non-finite amplitudes")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise DomainError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    def to_density(self) -> "DensityMatrix":
        dim = 1 << self.n
        check_dense_bytes(dim, 16, "to_density")
        # |psi><psi| is nonzero only on S x S, S the nonzero amplitudes
        live = np.flatnonzero(self.amplitudes)
        amps = self.amplitudes[live]
        out = np.zeros((dim, dim), dtype=complex)
        out[np.ix_(live, live)] = np.outer(amps, amps.conj())
        return DensityMatrix(self.n, out)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian 2^n x 2^n state, possibly subnormalized.

    Entries must be finite, and Hermiticity is checked as max |M - M^H| <=
    1e-10.  Both checks read only the live rows R, those holding a nonzero
    entry (one pass over M finds them).  Every other entry is 0, so off
    R x R a pair (i, j) contributes |M_ij| when only row i is live and 0
    when neither is: max(|B - B^H| on the R x R block B, |M[R, not R]|) is
    exactly the full-matrix maximum.  No upper trace bound is enforced:
    recovery discards the amplitude that leaves the correctable syndrome
    set (trace < 1), and on degenerate codes the term-by-term recovery sum
    can overshoot 1 -- callers that need a proper state assert it
    themselves.  Positivity is not checked: an eigendecomposition per
    intermediate would dominate the cost of every pipeline.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n
        if mat.shape != (dim, dim):
            raise DomainError(f"expected shape ({dim}, {dim}), got {mat.shape}")
        rows = np.flatnonzero(mat.any(axis=1))
        live = mat[rows]
        if not np.isfinite(live).all():
            raise DomainError("matrix has non-finite entries")
        deviation = np.abs(live)
        block = live[:, rows]
        deviation[:, rows] = np.abs(block - block.conj().T)
        if deviation.max(initial=0.0) > 1e-10:
            raise DomainError("matrix is not Hermitian")
        tr = mat.trace()
        if abs(tr.imag) > 1e-12 or tr.real < -1e-12:
            raise DomainError(f"invalid trace {tr}")
        object.__setattr__(self, "entries", mat)

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)


@functools.lru_cache(maxsize=128)
def _isometry(pair: CssCodePair) -> np.ndarray:
    # columns = logical basis states, ordered by the coset-representative sort
    return np.column_stack([st.amplitudes for st in codewords(pair)])


def encode(logical, pair: CssCodePair) -> PureState:
    """Map 2^k logical amplitudes onto the code space (linear isometry)."""
    if pair.n > 12:
        raise SizeLimitError(f"encode is capped at n = 12, got {pair.n}")
    vec = np.asarray(logical, dtype=complex).reshape(-1)
    if vec.shape[0] != 1 << pair.k:
        raise DomainError(f"expected 2^{pair.k} logical amplitudes, got {vec.shape[0]}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise DomainError("logical input must be normalized")
    return PureState(pair.n, _isometry(pair) @ vec)


def apply_recovery(rho: DensityMatrix, pair: CssCodePair) -> DensityMatrix:
    """Syndrome recovery: sum of P X_mu Z_nu rho Z_nu X_mu P over weights <= t.

    The nu sum is applied first: sum_nu Z_nu rho Z_nu multiplies entry (y, y')
    by g[y xor y'] where g is the Walsh transform of the weight-<=t indicator.
    Each mu term is then an index permutation followed by the code-space
    sandwich through the isometry V.  V vanishes off the support S = C1,
    so only the S x S block of each permuted term, rho[S xor mu, S xor mu],
    is read, and g is needed on S xor S (inside C1) only:

        acc = V_S^T ((sum_mu rho[S xor mu, S xor mu]) o g[S xor S]) V_S,

    and the output is V_S acc V_S^T on S x S and exactly zero elsewhere.
    This is exact for any rho, code state or not; the cost is |{mu}|
    gathers of 2^dim(C1)-square blocks instead of 2^n-square products.
    """
    if rho.n != pair.n:
        raise DomainError("state and code length differ")
    if pair.n > _PIPELINE_CAP:
        raise SizeLimitError(f"recovery is capped at n = {_PIPELINE_CAP}")
    support = pair.c1.codeword_array().astype(np.intp)
    block = np.zeros((support.size, support.size), dtype=complex)
    for mu in np.flatnonzero(index_weights(pair.n) <= pair.t):
        shifted = support ^ mu
        block += rho.entries[np.ix_(shifted, shifted)]
    out = np.zeros(rho.entries.shape, dtype=complex)
    out[np.ix_(support, support)] = _sandwich(block, pair, support)
    return DensityMatrix(pair.n, out)


def _sandwich(block: np.ndarray, pair: CssCodePair, support: np.ndarray) -> np.ndarray:
    # apply_recovery's output on S x S from the mu-summed S x S input block:
    # V_S (V_S^T (block o g[S xor S]) V_S) V_S^T
    v = _isometry(pair)[support]
    g = walsh_transform((index_weights(pair.n) <= pair.t).astype(float))
    acc = v.T @ (block * g[support[:, None] ^ support[None, :]]) @ v
    return v @ acc @ v.T


def fidelity_formula(psi: PureState, alpha: AlphaMatrix, pair: CssCodePair) -> float:
    """Recovered fidelity from the channel coefficient matrix alone.

    F = sum over |mu| <= t of z^T_mu alpha z_mu, where (z_mu)_nu is the
    Z-expectation <psi|Z_(mu xor nu)|psi> and z itself is the Walsh transform
    of the measurement distribution |amplitudes|^2.  The full double sum over
    (nu, nu') is kept at every n <= 10; it is a single dense quadratic form
    per mu, so truncating it would save nothing.
    """
    if psi.n != pair.n or alpha.n != pair.n:
        raise DomainError("state, coefficient matrix and code must share n")
    if pair.n > _PIPELINE_CAP:
        raise SizeLimitError(f"fidelity formula is capped at n = {_PIPELINE_CAP}")
    z = walsh_transform(np.abs(psi.amplitudes) ** 2)
    idx = np.arange(1 << pair.n)
    mus = np.nonzero(index_weights(pair.n) <= pair.t)[0]
    shifted = z[idx[None, :] ^ mus[:, None]]
    return float(np.sum((shifted @ alpha.entries) * shifted))


def residual_exact(psi: PureState, pair_dec: DecoherencePair,
                   pair_code: CssCodePair) -> float:
    """1 - fidelity of encode -> dephase -> recover, computed on C1 x C1.

    psi holds the logical amplitudes (a k-qubit state).  The result is bit
    for bit that of the call-by-call chain encode -> PureState.to_density ->
    apply_channel -> apply_recovery -> vdot(psi, R psi), and no 2^n x 2^n
    matrix is formed.  The encoded state lives on its
    nonzero amplitudes L, a subset of S = C1, so the density matrix and its
    decay are the L x L block, each entry the same product as in the chain.
    Z-only noise keeps that block inside S x S, and the X_mu term of
    recovery reads (S xor mu) x (S xor mu), which misses S for 0 < |mu| <=
    t: every nonzero codeword of C1 has weight d1 >= 2t + 1 > |mu|.  So
    recovery's mu sum is the mu = 0 block alone, and the recovered R is
    apply_recovery's S x S sandwich of it.  R psi is taken on R's live rows
    S, each scattered into a full 2^n-long row (16 * 2^(n + dim C1) bytes,
    0.5 MiB at n = 10, dim C1 = 5, against 16 MiB for R): BLAS then sums
    each row's dot product in the same order as for the chain's 2^n rows,
    while an |S|-long row or a sum over S alone rounds differently (by up
    to 1.6e-15 at n <= 10).  The vdot runs over all 2^n entries, as in the
    chain.  Of the chain's DensityMatrix checks only finiteness can fail on
    these inputs (a DecoherencePair may hold inf), and it is kept.
    """
    if psi.n != pair_code.k:
        raise DomainError(f"logical state has {psi.n} qubits, code expects {pair_code.k}")
    if pair_code.n > _PIPELINE_CAP:
        raise SizeLimitError(f"exact pipeline is capped at n = {_PIPELINE_CAP}")
    n = pair_code.n
    amps = encode(psi.amplitudes, pair_code).amplitudes
    live = np.flatnonzero(amps)
    noisy = np.outer(amps[live], amps[live].conj())
    noisy *= _pair_decay(n, pair_dec, live, live)
    if not np.isfinite(noisy).all():
        raise DomainError("dephased state has non-finite entries")
    support = pair_code.c1.codeword_array().astype(np.intp)
    at = np.full(1 << n, -1)
    at[live] = np.arange(live.size)
    hit = at[support] >= 0
    block = np.zeros((support.size, support.size), dtype=complex)
    block[np.ix_(hit, hit)] = noisy[np.ix_(at[support[hit]], at[support[hit]])]
    rows = np.zeros((support.size, 1 << n), dtype=complex)
    rows[:, support] = _sandwich(block, pair_code, support)
    out = np.zeros(1 << n, dtype=complex)
    out[support] = rows @ amps
    fid = np.vdot(amps, out)
    return 1.0 - float(fid.real)


def x_polarized_state(n: int) -> PureState:
    """Product state with every qubit along +x: uniform amplitudes 2^(-n/2)."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n > 14:
        raise SizeLimitError("x-polarized state capped at n = 14")
    return PureState(n, np.full(1 << n, 2.0 ** (-0.5 * n)))


def random_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-like random state: normalized complex Gaussian amplitudes."""
    if n > 14:
        raise SizeLimitError("random state capped at n = 14")
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(n, amps / np.linalg.norm(amps))
