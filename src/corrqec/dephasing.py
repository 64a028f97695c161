"""Exact correlated-dephasing channel and its weight-space coefficients.

The channel multiplies each density-matrix element by exp(-C[eta, mu]) in
the sigma_z product basis, with

    C[eta, mu] = |eta xor mu| (Gamma_0 - Gamma_r) + (|eta| - |mu|)^2 Gamma_r.

Its Pauli-Z representation has coefficient matrix alpha = 4^-n H e^-C H
(H the +-1 Walsh kernel), whose diagonal depends on the label weight only
and is also available as the Gaussian average beta(n, w).  That average
has one numerical route: log_beta, adaptive Gauss-Kronrod panels
(quadrature.integrate, K15 with its embedded G7 for the error estimate)
on the log-shifted integrand, accurate to log_tol in absolute log-space
error.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bitops import bits_to_str, index_weights, str_to_bits
from .errors import ConvergenceError, DomainError, check_dense_bytes
from .quadrature import integrate, uniform_edges

__all__ = [
    "DecoherencePair", "BitString", "AlphaMatrix", "coefficient_c",
    "apply_channel", "alpha_matrix", "p_of_x", "beta", "log_beta",
    "walsh_transform",
]


@dataclass(frozen=True)
class DecoherencePair:
    """(Gamma_0, Gamma_r) of the equal-distance channel.

    Construction enforces Gamma_0 >= Gamma_r >= 0, the monotone regime this
    simplified two-parameter model is valid in.
    """

    gamma0: float
    gammaR: float

    def __post_init__(self):
        if not (self.gamma0 >= 0.0 and self.gammaR >= 0.0):
            raise DomainError(
                f"decoherence parameters must be >= 0, got ({self.gamma0}, {self.gammaR})")
        if self.gamma0 < self.gammaR:
            raise DomainError(
                f"gamma0 ({self.gamma0}) < gammaR ({self.gammaR}) lies outside "
                "the monotone regime of this channel")


@dataclass(frozen=True)
class BitString:
    """Length-n GF(2) vector packed into an int (bit j = coordinate j)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("register length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise DomainError(f"bit pattern {self.bits} out of range for n={self.n}")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "BitString") -> "BitString":
        if self.n != other.n:
            raise DomainError("length mismatch")
        return BitString(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitString") -> int:
        """GF(2) inner product."""
        if self.n != other.n:
            raise DomainError("length mismatch")
        return (self.bits & other.bits).bit_count() & 1

    @classmethod
    def from_string(cls, text: str) -> "BitString":
        return cls(len(text), str_to_bits(text))

    def __str__(self) -> str:
        return bits_to_str(self.bits, self.n)


def coefficient_c(eta: BitString, mu: BitString, pair: DecoherencePair) -> float:
    if eta.n != mu.n:
        raise DomainError("length mismatch")
    flips = (eta.bits ^ mu.bits).bit_count()
    dw = eta.weight - mu.weight
    return flips * (pair.gamma0 - pair.gammaR) + dw * dw * pair.gammaR


def _as_matrix(rho):
    if hasattr(rho, "entries"):
        return np.asarray(rho.entries), True
    return np.asarray(rho), False


def _pair_decay(n: int, pair: DecoherencePair, rows: np.ndarray) -> np.ndarray:
    # exp(-C[rows, :]) of the equal-distance channel: C depends only on the
    # flip count |eta xor mu| and the weight difference, so exp is taken once
    # per (flips, dw) pair and looked up through one flat index; every index
    # fits 16 bits within the dense byte budget (n <= 12)
    flips = np.arange(n + 1)[:, None]
    dw = np.arange(-n, n + 1)[None, :]
    table = np.exp(-((pair.gamma0 - pair.gammaR) * flips + pair.gammaR * dw * dw)).ravel()
    w = index_weights(n).astype(np.int16)
    cols = np.arange(1 << n, dtype=np.uint16)
    key = np.bitwise_count(rows.astype(np.uint16)[:, None] ^ cols).astype(np.int16)
    key *= 2 * n + 1
    key += (w[rows] + n)[:, None]
    key -= w
    return table[key]


def apply_channel(rho, pair: DecoherencePair | None = None, *,
                  gamma_matrix=None):
    """Elementwise decay exp(-C[eta, mu]) of a density matrix.

    Either a DecoherencePair (the all-distances-equal case) or a full
    symmetric per-qubit-pair matrix gamma_matrix[l, m] may be supplied;
    the latter builds C = sum_lm (eta_l - mu_l)(eta_m - mu_m) Gamma_lm.
    Accepts a bare ndarray or any object with .n/.entries and returns the
    same kind.  The map is elementwise, so exp(-C) is formed only on the
    rows where rho has a nonzero entry (an encoded state has 2^dim(C1) of
    them); every other output row is rho's exact zero.  Columns are not
    restricted: gathering and scattering a column subset costs more than
    the exp it would save.  Both coefficient routes are table lookups,
    generated in row blocks, never as a full 4^n table, and the output
    must fit the dense byte budget (n <= 12).
    """
    ent, wrapped = _as_matrix(rho)
    dim = ent.shape[0]
    if ent.ndim != 2 or ent.shape[1] != dim or dim & (dim - 1) or dim == 0:
        raise DomainError("density matrix must be square with power-of-two size")
    n = dim.bit_length() - 1
    check_dense_bytes(dim, 16, "apply_channel")
    if (pair is None) == (gamma_matrix is None):
        raise DomainError("supply exactly one of pair and gamma_matrix")

    if pair is not None:
        decay = functools.partial(_pair_decay, n, pair)
    else:
        G = np.asarray(gamma_matrix, dtype=float)
        if G.shape != (n, n):
            raise DomainError(f"gamma_matrix must be {n}x{n}")
        G = 0.5 * (G + G.T)
        # C depends only on d = eta - mu in {-1, 0, 1}^n, so exp(-d^T G d) is
        # tabulated over the 3^n keys sum_l (d_l + 1) 3^l (digit l on grid
        # axis n-1-l); the key of (eta, mu) is tern[eta] - tern[mu] + (3^n-1)/2
        d = [np.array([-1.0, 0.0, 1.0]).reshape((3,) + (1,) * l) for l in range(n)]
        quad = np.zeros(1)
        for l in range(n):
            quad = quad + d[l] * (G[l, l] * d[l]
                                  + 2.0 * sum(G[l, m] * d[m] for m in range(l)))
        table = np.exp(-quad).ravel()
        tern = ((np.arange(dim)[:, None] >> np.arange(n)) & 1) @ 3 ** np.arange(n)
        offset = (3 ** n - 1) // 2

        def decay(rows):
            return table[tern[rows, None] - tern + offset]

    rows = np.flatnonzero(ent.any(axis=1))
    out = np.zeros((dim, dim), dtype=complex)
    block = max(1, (1 << 22) // dim)
    for i0 in range(0, rows.size, block):
        sub = rows[i0:i0 + block]
        out[sub] = ent[sub] * decay(sub)

    if wrapped:
        return type(rho)(n=rho.n, entries=out)
    return out


@functools.lru_cache(maxsize=16)
def _sylvester(m: int) -> np.ndarray:
    # the m x m +-1 Walsh kernel, (-1)^popcount(k & j)
    j = np.arange(m)
    h = 1.0 - 2.0 * (np.bitwise_count(j[:, None] & j[None, :]) & 1)
    h.flags.writeable = False
    return h


def walsh_transform(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh transform y[k] = sum_j (-1)^(k.j) x[j] over the last axis.

    With m = hi * lo (hi = 2^floor(p/2), lo = 2^ceil(p/2) for m = 2^p), the
    kernel factors as H_m = H_hi (x) H_lo, because the high and low bits of
    k & j contribute separate signs.  So the transform is two dense
    products on the (..., hi, lo) view, X H_lo and then H_hi X, with
    sqrt(m)-sized factors (32 x 32 at m = 2^10); the input is never
    modified, and a non-contiguous one is copied once.
    """
    a = np.asarray(vec, dtype=float)
    m = a.shape[-1]
    if m & (m - 1) or m == 0:
        raise DomainError("length must be a power of two")
    p = m.bit_length() - 1
    hi, lo = 1 << (p // 2), 1 << (p - p // 2)
    x = np.ascontiguousarray(a).reshape(-1, lo) @ _sylvester(lo)
    return (_sylvester(hi) @ x.reshape(-1, hi, lo)).reshape(a.shape)


@dataclass(frozen=True)
class AlphaMatrix:
    """Real 2^n x 2^n coefficient matrix of the Pauli-Z representation."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n
        if self.entries.shape != (dim, dim):
            raise DomainError(f"expected shape {(dim, dim)}, got {self.entries.shape}")


def alpha_matrix(n: int, pair: DecoherencePair) -> AlphaMatrix:
    """Two-sided Walsh transform H exp(-C) H of exp(-C), scaled by 4^-n.

    The column transform runs first, as the two Kronecker factors of H on
    the leading axis of the (hi, lo, 2^n) view, and walsh_transform then
    transforms the rows, so no pass forms a transposed copy.
    The real 2^n x 2^n result must fit the dense byte budget (n <= 12).
    """
    if n < 1:
        raise DomainError("need n >= 1")
    dim = 1 << n
    check_dense_bytes(dim, 8, "alpha_matrix")
    hi, lo = 1 << (n // 2), 1 << (n - n // 2)
    M = _pair_decay(n, pair, np.arange(dim)).reshape(hi, lo, dim)
    M = _sylvester(lo) @ M
    M = _sylvester(hi) @ M.reshape(hi, -1)
    M = walsh_transform(M.reshape(dim, dim))
    M *= 0.25 ** n
    return AlphaMatrix(n, M)


def p_of_x(pair: DecoherencePair, x):
    """Flip weight p_x = (1 - exp(-(G0-Gr)) cos 2x)/2, evaluated without cancellation."""
    g = pair.gamma0 - pair.gammaR
    xa = np.asarray(x, dtype=float)
    val = 0.5 * (-math.expm1(-g) + 2.0 * math.exp(-g) * np.sin(xa) ** 2)
    return float(val) if np.isscalar(x) or xa.ndim == 0 else val


def _p_both(pair: DecoherencePair, x):
    # p_x and 1 - p_x from all-nonnegative decompositions:
    # p = ((1 - e^-g) + 2 e^-g sin^2 x)/2, 1-p the same with cos^2 x
    g = pair.gamma0 - pair.gammaR
    one_minus = -math.expm1(-g)
    damp = 2.0 * math.exp(-g)
    return 0.5 * (one_minus + damp * np.sin(x) ** 2), 0.5 * (one_minus + damp * np.cos(x) ** 2)


def log_beta(n: int, w: int, pair: DecoherencePair, *,
             log_tol: float = 1e-10) -> float:
    """log beta_w = log E_x[p_x^w (1 - p_x)^(n-w)], x ~ N(0, Gamma_r / 2).

    With phi(x) the log of the Gaussian-weighted integrand and M = phi(x0)
    its largest sampled value, exp(phi - M) is integrated on adaptive
    Gauss-Kronrod panels (quadrature.integrate) over x >= 0 and doubled,
    phi being even; it is formed from differences to x0, so it neither
    underflows nor loses digits however deep the tail.  The range is
    [0, pi/2 + sqrt(80 Gamma_r)], cut further to where the Gaussian factor
    alone is above e^-80 times the largest sampled integrand, and starts
    as panels no wider than sqrt(Gamma_r)/2 or pi/16.  The returned value
    is within log_tol (absolute, in log space) by the panel error
    estimate |K15 - G7|, which overstates the error of the K15 value, on
    top of the rounding of M itself (about 1e-16 |M|); ConvergenceError
    if the panel budget runs out.  Gamma_r = 0 is the closed form.
    """
    if n < 1 or not 0 <= w <= n:
        raise DomainError(f"invalid (n, w) = ({n}, {w})")
    if pair.gammaR == 0.0:
        po = 0.5 * (-math.expm1(-pair.gamma0))
        val = 0.0
        if w > 0:
            val += w * math.log(po) if po > 0.0 else -math.inf
        if w < n:
            val += (n - w) * math.log1p(-po)
        return val
    gr = pair.gammaR
    root = math.sqrt(gr)

    def phi(x):
        p, p1 = _p_both(pair, x)
        with np.errstate(divide="ignore"):
            return -x * x / gr + (w * np.log(p) if w > 0 else 0.0) \
                + ((n - w) * np.log(p1) if w < n else 0.0)

    # beyond sqrt(Gamma_r (80 - top)) the Gaussian factor alone is below
    # e^-80 of the integrand at the probe maximum, and the flip factor never
    # exceeds 1; beyond pi/2 + sqrt(80 Gamma_r) every period image is
    # e^-80 below its copy in [0, pi/2]
    probe = np.concatenate([root * np.linspace(0.0, 12.0, 49),
                            np.linspace(0.0, 0.5 * math.pi, 65)])
    vals = phi(probe)
    x_hi = min(0.5 * math.pi + math.sqrt(80.0 * gr), math.sqrt(gr * (80.0 - vals.max())))
    edges = uniform_edges(0.0, x_hi, max_width=min(0.5 * root, math.pi / 16.0))
    sampled = np.concatenate([probe, edges])
    vals = np.concatenate([vals, phi(edges)])
    x0, m = float(sampled[np.argmax(vals)]), float(vals.max())
    p0, p10 = _p_both(pair, x0)
    decay = math.exp(-(pair.gamma0 - gr))

    def shifted(x):
        # exp(phi(x) - m) from differences, so that the rounding error of
        # phi itself (about eps |m|) does not floor the attainable log_tol:
        # p_x - p_x0 = e^-g sin(x - x0) sin(x + x0)
        dp = decay * np.sin(x - x0) * np.sin(x + x0)
        with np.errstate(divide="ignore"):
            return np.exp(-(x - x0) * (x + x0) / gr
                          + (w * np.log1p(dp / p0) if w > 0 else 0.0)
                          + ((n - w) * np.log1p(-dp / p10) if w < n else 0.0))

    shift = m + math.log(2.0) - 0.5 * math.log(math.pi * gr)
    try:
        value, _ = integrate(shifted, edges, rel_tol=log_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), estimate=math.log(exc.estimate) + shift,
                               error_estimate=exc.error_estimate / exc.estimate) from exc
    return math.log(value) + shift


def beta(n: int, w: int, pair: DecoherencePair, *,
         log_tol: float = 1e-13) -> float:
    """Diagonal weight-w coefficient as a plain float (may underflow for huge n).

    exp(log_beta), so its relative error is log_tol.  The default is tighter
    than log_beta's so that sums of C(n, w) * beta over w stay good to
    ~1e-12.
    """
    return math.exp(log_beta(n, w, pair, log_tol=log_tol))
