import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import corrqec as cq

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def steane() -> cq.CssCodePair:
    return cq.steane_code()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def toy_pair_t0() -> cq.CssCodePair:
    """[3, 1] pair with d = 2, t = 0: C1 = even-weight code, C2 = {000, 110}."""
    c1 = cq.dual(cq.LinearCode.from_rows(3, [0b111]))
    c2 = cq.LinearCode.from_rows(3, [0b011])
    return cq.CssCodePair.from_codes(c1, c2)
