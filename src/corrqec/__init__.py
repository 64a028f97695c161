"""corrqec: correlated-dephasing noise versus CSS error correction.

Layers, bottom to top: bath (decoherence integrals over the spectral
function), dephasing (the n-qubit channel and its coefficient transforms),
codes (GF(2) machinery and random CSS pairs), oracle (exact small-n
simulation), residual (code-averaged error and its limits), scalability
(noise budget and verdict as the geometry grows), cli (deterministic CSV
scans).

Every layer needs numpy and the math module alone; scipy is used by the
tests only, as an independent check.  errors, dephasing, codes and oracle
load with the package.  bath, residual and scalability load on first
access to one of their names (PEP 562), so ``corrqec.BathParams`` or
``from corrqec import *`` works as before and a caller pays only for the
layers it touches.
"""

import importlib

from . import codes, dephasing, errors, oracle
from .errors import *
from .dephasing import *
from .codes import *
from .oracle import *

# the __all__ of each lazy layer; tests/test_imports.py keeps them in step
_LAZY = {
    "bath": (
        "BathParams", "GeometryParams", "GammaEstimate",
        "spectral_density", "decoherence_integrand", "gamma", "gamma_detailed",
        "gamma_pair", "scaled_gamma", "scaling_identity_sides",
    ),
    "residual": (
        "ResidualQuery", "AsymptoticResidual", "code_avg_residual",
        "independent_residual", "asymptotic_residual",
    ),
    "scalability": (
        "ScalingScenario", "GammaBudget", "ScalabilityRow", "ScalabilityReport",
        "gamma_budget", "scalability_verdict", "geometric_grid",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [*errors.__all__, *_LAZY["bath"], *dephasing.__all__, *codes.__all__,
           *oracle.__all__, *_LAZY["residual"], *_LAZY["scalability"], "__version__"]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_OWNER})
