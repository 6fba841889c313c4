"""Gate synthesis and dense-matrix verification for hybrid qubit-oscillator
devices: truncated-mode operators, commutator product formulas, block-encoded
operator arithmetic, and application recipes with exact references."""

from .tensor_core import (
    TOL,
    HilbertLayout,
    LayoutMismatchError,
    Operator,
    ResourceExhaustedError,
    Tolerances,
    expm,
    spectral_norm,
)

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "HilbertLayout",
    "LayoutMismatchError",
    "Operator",
    "ResourceExhaustedError",
    "Tolerances",
    "expm",
    "spectral_norm",
    "__version__",
]
