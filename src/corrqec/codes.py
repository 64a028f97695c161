"""GF(2) linear codes, nested CSS pairs, random sampling and enumeration.

Vectors are machine integers (bit j = coordinate j, see bitops).  Every
LinearCode stores its canonical reduced row echelon basis, so two codes
are equal as subspaces iff their generator tuples compare equal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitops import bits_to_str, popcount, str_to_bits
from .errors import DomainError, SizeLimitError

__all__ = [
    "LinearCode", "CssCodePair", "CodeBasisState", "h2", "r_css", "dual",
    "min_weight", "weight_distribution", "macwilliams_transform",
    "sample_random_css", "empirical_goodness", "meets_rate_bound",
    "steane_code", "codewords", "coset_representatives",
    "save_code_pair", "load_code_pair",
]

_ENUM_DIM_CAP = 24


def _canonical_rows(rows, n: int) -> tuple[int, ...]:
    basis: dict[int, int] = {}
    for vec in rows:
        if not 0 <= vec < (1 << n):
            raise DomainError(f"row {vec} out of range for length {n}")
        v = vec
        for p, r in basis.items():
            if (v >> p) & 1:
                v ^= r
        if v == 0:
            continue
        p = (v & -v).bit_length() - 1
        for q in list(basis):
            if (basis[q] >> p) & 1:
                basis[q] ^= v
        basis[p] = v
    return tuple(basis[p] for p in sorted(basis))


@dataclass(frozen=True)
class LinearCode:
    """A GF(2) subspace of Z_2^n held as its canonical RREF basis."""

    n: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("block length must be >= 1")
        if _canonical_rows(self.generators, self.n) != self.generators:
            raise DomainError("generators are not a canonical independent basis; "
                              "use LinearCode.from_rows")

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[int]) -> "LinearCode":
        return cls(n, _canonical_rows(rows, n))

    @property
    def dim(self) -> int:
        return len(self.generators)

    def contains(self, vec: int) -> bool:
        v = vec
        for g in self.generators:
            if (v >> ((g & -g).bit_length() - 1)) & 1:
                v ^= g
        return v == 0

    def is_subcode(self, other: "LinearCode") -> bool:
        return self.n == other.n and all(other.contains(g) for g in self.generators)

    def codeword_array(self) -> np.ndarray:
        """All 2^dim codewords as uint64 (zero word first)."""
        if self.dim > _ENUM_DIM_CAP:
            raise SizeLimitError(f"enumerating 2^{self.dim} codewords exceeds the cap")
        arr = np.zeros(1, dtype=np.uint64)
        for g in self.generators:
            arr = np.concatenate([arr, arr ^ np.uint64(g)])
        return arr


def dual(code: LinearCode) -> LinearCode:
    """Orthogonal complement under the GF(2) inner product."""
    pivots = [(g & -g).bit_length() - 1 for g in code.generators]
    pivot_set = set(pivots)
    gens = []
    for f in range(code.n):
        if f in pivot_set:
            continue
        v = 1 << f
        for g, p in zip(code.generators, pivots):
            if (g >> f) & 1:
                v |= 1 << p
        gens.append(v)
    return LinearCode.from_rows(code.n, gens)


def min_weight(code: LinearCode) -> int:
    """Minimum Hamming weight over the nonzero codewords, by full enumeration."""
    if code.dim == 0:
        raise DomainError("the zero code has no nonzero codeword")
    if code.dim > _ENUM_DIM_CAP:
        raise SizeLimitError(f"dim {code.dim} exceeds the enumeration cap {_ENUM_DIM_CAP}")
    head = LinearCode.from_rows(code.n, code.generators[:22]) if code.dim > 22 else code
    base = head.codeword_array()
    offsets = [0]
    for g in code.generators[22:]:
        offsets += [o ^ g for o in offsets]
    best = code.n + 1
    for off in offsets:
        w = popcount(base ^ np.uint64(off))
        if off == 0:
            w = w[1:]
        best = min(best, int(w.min()))
    return best


def weight_distribution(code: LinearCode) -> list[int]:
    """Exact codeword counts per weight 0..n."""
    if code.dim > _ENUM_DIM_CAP:
        raise SizeLimitError(f"dim {code.dim} exceeds the enumeration cap {_ENUM_DIM_CAP}")
    counts = np.bincount(popcount(code.codeword_array()), minlength=code.n + 1)
    return [int(c) for c in counts]


def macwilliams_transform(weights: Sequence[int], n: int) -> list[int]:
    """Dual weight distribution via Krawtchouk sums, exact in integers."""
    if len(weights) != n + 1:
        raise DomainError("weight distribution must have n + 1 entries")
    size = sum(weights)
    out = []
    for j in range(n + 1):
        acc = 0
        for i, a_i in enumerate(weights):
            if a_i == 0:
                continue
            kraw = sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
                       for l in range(max(0, j - (n - i)), min(i, j) + 1))
            acc += a_i * kraw
        q, rem = divmod(acc, size)
        if rem:
            raise ArithmeticError("transform not integral; inconsistent input")
        out.append(q)
    return out


def h2(x: float) -> float:
    """Binary entropy in bits, with h2(0) = h2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def r_css(delta: float) -> float:
    """Achievable-rate curve 1 - 2 h2(delta) for relative distance delta."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"relative distance must lie in [0, 1/2], got {delta}")
    return 1.0 - 2.0 * h2(delta)


@dataclass(frozen=True)
class CssCodePair:
    """Nested pair C2 inside C1 with its derived distance data.

    d1perp is n + 1 (no nonzero codeword) when C1 is the full space.
    """

    c1: LinearCode
    c2: LinearCode
    k: int
    d1: int
    d1perp: int
    d: int
    t: int

    def __post_init__(self):
        if self.k != self.c1.dim - self.c2.dim:
            raise DomainError("k must equal dim C1 - dim C2")
        if self.d != min(self.d1, self.d1perp) or self.t != (self.d - 1) // 2:
            raise DomainError("inconsistent distance fields")

    @classmethod
    def from_codes(cls, c1: LinearCode, c2: LinearCode) -> "CssCodePair":
        if c1.n != c2.n:
            raise DomainError("length mismatch")
        if not c2.is_subcode(c1):
            raise DomainError("C2 must be a subcode of C1")
        d1 = min_weight(c1)
        c1perp = dual(c1)
        d1perp = min_weight(c1perp) if c1perp.dim > 0 else c1.n + 1
        d = min(d1, d1perp)
        return cls(c1, c2, c1.dim - c2.dim, d1, d1perp, d, (d - 1) // 2)

    @property
    def n(self) -> int:
        return self.c1.n


def steane_code() -> CssCodePair:
    """The [7, 1] pair: C1 the Hamming code, C2 its dual (the simplex code)."""
    h_rows = [0b1111000, 0b1100110, 0b1010101]
    c2 = LinearCode.from_rows(7, h_rows)
    return CssCodePair.from_codes(dual(c2), c2)


def _pack(bits: np.ndarray) -> int:
    v = 0
    for j, b in enumerate(bits):
        if b:
            v |= 1 << j
    return v


def sample_random_css(n: int, k: int, rng: np.random.Generator) -> CssCodePair:
    """Random nested pair with dim C2 = floor((n-k)/2), dim C1 = floor((n+k)/2).

    C2 is drawn as a uniformly random full-rank generator matrix (redrawn on
    rank deficiency), then extended by uniformly random vectors outside the
    running span; distances are then certified exactly.
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got (n, k) = ({n}, {k})")
    dim2 = (n - k) // 2
    dim1 = (n + k) // 2
    if dim1 > _ENUM_DIM_CAP or n - dim1 > _ENUM_DIM_CAP:
        raise SizeLimitError("distance certification infeasible at this size")
    while True:
        rows = [_pack(rng.integers(0, 2, size=n)) for _ in range(dim2)]
        c2 = LinearCode.from_rows(n, rows)
        if c2.dim == dim2:
            break
    cur = c2
    while cur.dim < dim1:
        v = _pack(rng.integers(0, 2, size=n))
        if not cur.contains(v):
            cur = LinearCode.from_rows(n, list(cur.generators) + [v])
    return CssCodePair.from_codes(cur, c2)


def meets_rate_bound(pair: CssCodePair, epsilon: float) -> bool:
    """k/n >= (1 - eps) * r_css(d/n); d/n is clamped to 1/2 where the curve ends."""
    delta = min(pair.d / pair.n, 0.5)
    return pair.k / pair.n >= (1.0 - epsilon) * r_css(delta)


def empirical_goodness(n: int, k: int, epsilon: float, samples: int,
                       rng: np.random.Generator) -> float:
    if samples < 1:
        raise DomainError("need at least one sample")
    hits = sum(meets_rate_bound(sample_random_css(n, k, rng), epsilon)
               for _ in range(samples))
    return hits / samples


def coset_representatives(pair: CssCodePair) -> list[int]:
    """One representative per coset of dual(C1) in dual(C2).

    Each coset is named by its lexicographically smallest member (coordinate 0
    most significant), and the list is sorted by that key; this fixes the
    logical basis order used by the encoder.
    """
    n = pair.n
    d1 = dual(pair.c1)
    d2 = dual(pair.c2)
    mod_gens = []
    cur = d1
    for g in d2.generators:
        if not cur.contains(g):
            mod_gens.append(g)
            cur = LinearCode.from_rows(n, list(cur.generators) + [g])
    subgroup = d1.codeword_array()
    reps = []
    for mask in range(1 << len(mod_gens)):
        q0 = 0
        for j, g in enumerate(mod_gens):
            if (mask >> j) & 1:
                q0 ^= g
        coset = subgroup ^ np.uint64(q0)
        rep = min((int(v) for v in coset), key=lambda v: bits_to_str(v, n))
        reps.append(rep)
    reps.sort(key=lambda v: bits_to_str(v, n))
    return reps


@dataclass(frozen=True)
class CodeBasisState:
    """Sign pattern of one logical basis vector: amplitudes +-|C1|^(-1/2) on C1."""

    coset_rep: int
    amplitudes: np.ndarray


def codewords(pair: CssCodePair) -> list[CodeBasisState]:
    """The 2^k orthonormal logical basis states in the 2^n amplitude space."""
    n = pair.n
    if n > 14:
        raise SizeLimitError(f"amplitude space for n={n} exceeds the 2^14 cap")
    support = pair.c1.codeword_array()
    norm = 2.0 ** (-0.5 * pair.c1.dim)
    states = []
    for q in coset_representatives(pair):
        signs = 1.0 - 2.0 * (popcount(support & np.uint64(q)) & 1)
        amps = np.zeros(1 << n)
        amps[support] = norm * signs
        states.append(CodeBasisState(q, amps))
    return states


def _str_to_bits(text: str, n: int) -> int:
    if len(text) != n or set(text) - {"0", "1"}:
        raise DomainError(f"bad generator row {text!r}")
    return str_to_bits(text)


def save_code_pair(path, pair: CssCodePair) -> None:
    """Plain text format: header 'n k dim1 dim2', then C1 rows, then C2 rows.

    Row strings put coordinate 0 first.
    """
    lines = [f"{pair.n} {pair.k} {pair.c1.dim} {pair.c2.dim}"]
    lines += [bits_to_str(g, pair.n) for g in pair.c1.generators]
    lines += [bits_to_str(g, pair.n) for g in pair.c2.generators]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_code_pair(path) -> CssCodePair:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.readline().split()
        if len(tokens) != 4:
            raise DomainError("expected header 'n k dim1 dim2'")
        n, k, dim1, dim2 = (int(t) for t in tokens)
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) != dim1 + dim2:
        raise DomainError(f"expected {dim1 + dim2} generator rows, got {len(rows)}")
    c1 = LinearCode.from_rows(n, [_str_to_bits(r, n) for r in rows[:dim1]])
    c2 = LinearCode.from_rows(n, [_str_to_bits(r, n) for r in rows[dim1:]])
    if c1.dim != dim1 or c2.dim != dim2:
        raise DomainError("generator rows are not independent")
    pair = CssCodePair.from_codes(c1, c2)
    if pair.k != k:
        raise DomainError(f"header k={k} does not match dim C1 - dim C2 = {pair.k}")
    return pair
