"""The integer-matrix kernels.

One implementation, in plain Python (``pure``).  The three entry points
are bound here so that callers reach them as attributes of this package
(``_k.hermite_cols``) and tools that rebind them, such as a tracer, see
every call.
"""

from .pure import BACKEND_NAME as BACKEND, hermite_cols, mat_mul, smith, xgcd

__all__ = ["BACKEND", "hermite_cols", "mat_mul", "smith", "xgcd"]
