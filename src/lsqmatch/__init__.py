"""Least-squares pattern matching via an iterative recurrent matrix inverter.

The pipeline solves min_T ||X T - M|| through the normal equations: the Gram
matrix X'X is rescaled so its spectrum fits in (0, 2), inverted by a
quadratically convergent multiplicative recurrence, and the transform read
off as T = (alpha V)(X'M).  Supporting modules generate seeded benchmark
matrices, predict iteration counts from the condition number, and run the
reproducible benchmark suites behind the ``lsqmatch`` CLI.

The package exports the end-to-end API; the building blocks are imported
from their submodules (``lsqmatch.linalg``, ``lsqmatch.inverter``, ...).
"""

from .inverter import InversionStatus, ScaleFactorKind, invert
from .matching import InversionStalledError, IterationCapError, MatchResult, SingularSystemError, solve_transform
from .matio import load_matrix, save_matrix

__version__ = "0.1.0"

__all__ = [
    "InversionStalledError",
    "InversionStatus",
    "IterationCapError",
    "MatchResult",
    "ScaleFactorKind",
    "SingularSystemError",
    "invert",
    "load_matrix",
    "save_matrix",
    "solve_transform",
    "__version__",
]
