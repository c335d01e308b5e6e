"""Exact-arithmetic workbench for finitely generated abelian groups,
polynomial functors, and their derived functors."""

__version__ = "0.1.0"

from .linalg import IntMatrix, kernel_basis
from .abelian import CanonicalForm, Hom, PresentedGroup

__all__ = [
    "IntMatrix",
    "kernel_basis",
    "PresentedGroup",
    "Hom",
    "CanonicalForm",
    "__version__",
]
