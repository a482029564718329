"""qlinbae: analysis toolkit for linear quantum systems.

Certifies back-action-evading measurement structure from transfer-function
zero blocks, checks quantum-nondemolition interaction conditions, reduces
coherent-feedback networks, evaluates canonical-form criteria, and simulates
measurement-conditioned trajectories on truncated Fock spaces.
"""

from . import bae, errors, feedback, kalman, matcore, qnd, qsys, smesim, xferfn
from .errors import (DimensionError, InstabilityError, InternalConsistencyError,
                     PreconditionError, QLinBAEError, ResourceError,
                     SingularityError, ValidationError, WellPosednessError)
from .qsys import (QuantumLinearSystem, Realization, ac_realization,
                   michelson_system, new_system, quad_realization,
                   random_system)

__version__ = "0.1.0"

__all__ = [
    "bae", "errors", "feedback", "kalman", "matcore", "qnd", "qsys",
    "smesim", "xferfn",
    "QuantumLinearSystem", "Realization", "ac_realization", "new_system",
    "quad_realization", "random_system", "michelson_system",
    "QLinBAEError", "DimensionError", "ValidationError", "PreconditionError",
    "SingularityError", "InternalConsistencyError", "WellPosednessError",
    "ResourceError", "InstabilityError",
]
