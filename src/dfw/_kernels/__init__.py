"""The integer-matrix kernels.

One implementation, in plain Python (``pure``).  The entry points are
bound here so that callers reach them as attributes of this package
(``_k.hermite_cols``) and tools that rebind them, such as a tracer, see
every call.  ``mat_mul`` and ``hermite_cols`` are the two reductions
every computation comes down to: Smith forms are alternating
``hermite_cols`` passes.  ``eliminate_units`` is the sparse unit-pivot
pass that ``linalg.smith_diagonal`` runs before them.  ``mat_mul`` and
``hermite_cols`` take flat column-major matrices and return columns;
``eliminate_units`` takes dict columns ``{row: entry}``, the layout of
the complexes, and returns a flat column-major remainder.
"""

from .pure import BACKEND_NAME as BACKEND, eliminate_units, hermite_cols, mat_mul

__all__ = ["BACKEND", "eliminate_units", "hermite_cols", "mat_mul"]
