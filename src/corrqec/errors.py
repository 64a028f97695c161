"""Exception types shared across the package, and the dense-matrix byte budget."""

__all__ = ["ConvergenceError", "DomainError", "SizeLimitError"]

DENSE_BYTES = 1 << 28


class DomainError(ValueError):
    """Raised when an input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Raised when an adaptive numerical routine fails to reach its tolerance.

    Carries the best available estimate so callers can decide whether a
    degraded answer is still usable.
    """

    def __init__(self, message: str, estimate: float = float("nan"),
                 error_estimate: float = float("inf")):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class SizeLimitError(ValueError):
    """Raised when an exact enumeration would exceed its hard size cap."""


def check_dense_bytes(dim: int, itemsize: int, what: str) -> None:
    """SizeLimitError unless a dim x dim matrix of itemsize-byte entries fits DENSE_BYTES.

    Called before the matrix is allocated; 2^28 bytes allow complex matrices
    (and real ones) up to n = 12 qubits.
    """
    if dim * dim * itemsize > DENSE_BYTES:
        raise SizeLimitError(f"{what}: a {dim} x {dim} matrix of {itemsize}-byte entries "
                             f"exceeds the {DENSE_BYTES}-byte dense budget")
