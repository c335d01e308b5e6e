"""Hypothesis tests of the Smith diagonal, the rank and the canonical form
of a presented group against sympy, an independent implementation (tests
only; dfw has no runtime dependencies)."""

from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from dfw.abelian import PresentedGroup
from dfw.linalg import IntMatrix, rank, smith_diagonal


@st.composite
def small_matrices(draw, max_dim=6):
    """Random matrices up to max_dim x max_dim, empty shapes included; a
    third of them are products through a thinner middle, so low ranks and
    zero matrices come up often."""
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.integers(min_value=-9, max_value=9)
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        k = draw(st.integers(min_value=0, max_value=3))
        a = IntMatrix(r, k, draw(st.lists(entry, min_size=r * k, max_size=r * k)))
        b = IntMatrix(k, c, draw(st.lists(entry, min_size=k * c, max_size=k * c)))
        return a @ b
    return IntMatrix(r, c, draw(st.lists(entry, min_size=r * c, max_size=r * c)))


def _sympy(m):
    return Matrix(m.rows, m.cols, [e for row in m.to_rows() for e in row])


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_smith_diagonal_matches_sympy(m):
    diag = smith_diagonal(m)
    assert len(diag) == min(m.rows, m.cols)
    expected = [abs(d) for d in invariant_factors(_sympy(m), domain=ZZ) if d]
    nonzero = len(expected)
    assert list(diag[:nonzero]) == expected
    assert all(d == 0 for d in diag[nonzero:])


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_matches_sympy(m):
    assert rank(m) == _sympy(m).rank()
    assert rank(m) == sum(1 for d in smith_diagonal(m) if d)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_canonical_form_matches_sympy(m):
    # Z^rows modulo the columns of m
    canonical = PresentedGroup(m.rows, m).canonical
    factors = [abs(d) for d in invariant_factors(_sympy(m), domain=ZZ) if d]
    assert canonical.free_rank == m.rows - _sympy(m).rank()
    assert canonical.torsion == tuple(d for d in factors if d > 1)
