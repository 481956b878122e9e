"""Numerical laboratory for nested Hilbert-space scales and nilpotent
group representations at finite truncation."""

from .errors import AccuracyError, ConvergenceError, SingularOperatorError, UsageError
from .heisenberg import HermiteHeisenberg, hermite_generators
from .liecore import GroupElement, StructureConstants, heisenberg_constants
from .scale import GeneratorFamily, ScaleChain, build_scale_chain, scale_norm
from .suites import SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "GeneratorFamily",
    "GroupElement",
    "HermiteHeisenberg",
    "ScaleChain",
    "SingularOperatorError",
    "StructureConstants",
    "SuiteConfig",
    "UsageError",
    "build_scale_chain",
    "hermite_generators",
    "heisenberg_constants",
    "run_suite",
    "scale_norm",
    "__version__",
]
