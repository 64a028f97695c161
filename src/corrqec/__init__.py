"""corrqec: correlated-dephasing noise versus CSS error correction.

Layers, bottom to top: bath (decoherence integrals over the spectral
function), dephasing (the n-qubit channel and its coefficient transforms),
codes (GF(2) machinery and random CSS pairs), oracle (exact small-n
simulation), residual (code-averaged error, asymptotics, scalability),
cli (deterministic CSV scans).
"""

from . import bath, codes, dephasing, errors, oracle, residual
from .errors import *
from .bath import *
from .dephasing import *
from .codes import *
from .oracle import *
from .residual import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *bath.__all__, *dephasing.__all__, *codes.__all__,
           *oracle.__all__, *residual.__all__, "__version__"]
