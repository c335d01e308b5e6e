"""Hypothesis property tests for the algebraic laws that do not need the
seeded-trial machinery."""

from hypothesis import given, settings, strategies as st

from dfw.abelian import PresentedGroup, direct_sum, tensor
from dfw.expr import evaluate, parse
from dfw.linalg import IntMatrix, solve_matrix

small = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(st.lists(small, min_size=r * c, max_size=r * c))
    return IntMatrix(r, c, entries)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(small, min_size=4, max_size=4))
def test_solve_is_sound(m, x0):
    x0 = x0[: m.cols]
    b = [sum(m.entry(i, j) * x0[j] for j in range(m.cols)) for i in range(m.rows)]
    x = solve_matrix(m, IntMatrix.from_cols([b], rows=m.rows))
    assert x is not None
    x = x.col_list(0)
    assert [sum(m.entry(i, j) * x[j] for j in range(m.cols)) for i in range(m.rows)] == b


@st.composite
def canonical_groups(draw):
    free = draw(st.integers(min_value=0, max_value=3))
    torsion = []
    d = 1
    for factor in draw(st.lists(st.integers(min_value=2, max_value=5), max_size=3)):
        d *= factor
        torsion.append(d)
    return PresentedGroup.from_invariants(free, torsion)


@settings(max_examples=80, deadline=None)
@given(canonical_groups())
def test_expression_round_trip(g):
    printed = str(g.canonical)
    assert evaluate(parse(printed)).canonical == g.canonical


@settings(max_examples=40, deadline=None)
@given(canonical_groups(), canonical_groups())
def test_tensor_commutes_with_sum_order(a, b):
    assert tensor(a, b).canonical == tensor(b, a).canonical
    assert direct_sum(a, b).canonical == direct_sum(b, a).canonical
