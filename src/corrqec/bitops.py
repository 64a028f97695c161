"""Bit-level helpers shared by the channel, code and oracle modules.

Convention used everywhere: bit j of an integer is coordinate j of the
GF(2) vector, and computational basis index i assigns qubit j the value
(i >> j) & 1.  As text, character j of a '0'/'1' string is coordinate j.
"""
import numpy as np

from .errors import DomainError


def popcount(a) -> np.ndarray:
    """Hamming weight, elementwise, as int64."""
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


def index_weights(n: int) -> np.ndarray:
    """Hamming weights of all basis indices 0 .. 2^n - 1."""
    return popcount(np.arange(1 << n, dtype=np.uint64))


def bits_to_str(bits: int, n: int) -> str:
    """The n-character '0'/'1' string of bits, coordinate 0 first."""
    return "".join("1" if (bits >> j) & 1 else "0" for j in range(n))


def str_to_bits(text: str) -> int:
    """Inverse of bits_to_str; DomainError names the first character that is
    not '0' or '1'."""
    for ch in text:
        if ch not in "01":
            raise DomainError(f"invalid bit character {ch!r}")
    return int(text[::-1], 2) if text else 0
