"""Hypothesis tests of the Smith diagonal, the rank, the unit-pivot
elimination, the local Smith valuations and the local invariant factors
(local_valuations, local_torsion), the canonical form of a presented
group and the paths without transform (column_basis, span_contains,
preimage_basis) against sympy, an independent implementation (tests only; dfw has
no runtime dependencies).
The Smith diagonal alternates Hermite passes until its block is diagonal,
so each call runs under a time limit: a loop that never ends fails instead
of hanging."""

import copy
import random
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from dfw import _kernels as _k
from dfw.abelian import PresentedGroup
from dfw.linalg import (
    IntMatrix,
    column_basis,
    column_echelon,
    dict_columns,
    hstack,
    local_torsion,
    preimage_basis,
    smith_diagonal,
    solve_matrix,
    span_contains,
)
from test_kernels import laid_out, time_limit
from test_linalg import two_pass_preimage


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


def check_smith_diagonal(m, expected):
    """smith_diagonal gives the diagonal `expected`, within the time limit."""
    with time_limit(10):
        assert smith_diagonal(m) == expected


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_smith_diagonal_matches_sympy(m):
    expected = [int(abs(d)) for d in invariant_factors(_sympy(m), domain=ZZ) if d]
    check_smith_diagonal(m, tuple(expected) + (0,) * (min(m.rows, m.cols) - len(expected)))


# The passes leave the diagonal (1, 2, 1, 1, 1, 2): the chain needs row
# fixes, and a column fix there would be undone by the next column pass.
ROW_FIX = IntMatrix.from_rows([
    [0, -1, -1, 1, 0, 0], [0, 1, 1, 1, 0, 0], [-1, -1, -1, 0, 0, 1],
    [1, -1, 0, 0, 1, 0], [0, 0, -1, -1, 0, 1], [0, 1, -1, 1, 0, 0],
])
BIG = 1 << 64


@pytest.mark.parametrize("m, expected", [
    (IntMatrix.from_rows([[2, 0], [0, 3]]), (1, 6)),
    (IntMatrix.from_rows([[4, 0], [0, 6]]), (2, 12)),
    (IntMatrix.from_rows([[6, 0, 0], [0, 4, 0], [0, 0, 10]]), (2, 2, 60)),
    (ROW_FIX, (1, 1, 1, 1, 2, 2)),
    (IntMatrix.from_rows([[6 * BIG, 0], [0, 10 * BIG]]), (2 * BIG, 30 * BIG)),
    (IntMatrix.from_rows([[BIG + 1, BIG, 0], [BIG, BIG - 1, 0]]), (1, 1)),
    (IntMatrix.from_rows([[3 * BIG, 0], [0, 5], [2 * BIG, BIG]]), (1, BIG)),
])
def test_smith_chain_cases(m, expected):
    assert expected == tuple(abs(d) for d in invariant_factors(_sympy(m), domain=ZZ))
    check_smith_diagonal(m, expected)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_matches_sympy(m):
    assert column_echelon(m).rank == _sympy(m).rank()
    assert column_echelon(m).rank == sum(1 for d in smith_diagonal(m) if d)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_canonical_form_matches_sympy(m):
    # Z^rows modulo the columns of m
    canonical = PresentedGroup(m.rows, m).canonical
    factors = [abs(d) for d in invariant_factors(_sympy(m), domain=ZZ) if d]
    assert canonical.free_rank == m.rows - _sympy(m).rank()
    assert canonical.torsion == tuple(d for d in factors if d > 1)


@st.composite
def unit_rich_matrices(draw, max_rows=10, max_cols=12):
    """Sparse matrices up to max_rows x max_cols whose entries are mostly 0
    and +-1, with some +-2..+-9: the shape of the complexes dfw reduces.
    The density varies, so pivot rows often meet other columns (fill-in);
    a fifth of the matrices have no unit at all."""
    r = draw(st.integers(min_value=0, max_value=max_rows))
    c = draw(st.integers(min_value=0, max_value=max_cols))
    zeros = [0] * draw(st.integers(min_value=1, max_value=8))
    big = [2, -2, 3, -3, 4, -5, 6, -7, 8, 9]
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        pool = zeros + big
    else:
        pool = zeros + [1, -1] * 3 + big[:draw(st.integers(min_value=0, max_value=10))]
    return IntMatrix(r, c, draw(st.lists(st.sampled_from(pool), min_size=r * c, max_size=r * c)))


# a unit whose row and column meet other entries, so clearing it fills in
FILL_IN = IntMatrix.from_rows([[1, 2, 3, 0], [4, 0, 5, 6], [7, 8, 0, 9], [0, 1, 1, 1]])
NO_UNIT = IntMatrix.from_rows([[2, 4, 0], [0, 6, -3], [8, 0, 9]])


def _factors(m):
    return [abs(d) for d in invariant_factors(_sympy(m), domain=ZZ) if d]


@settings(max_examples=300, deadline=None)
@given(unit_rich_matrices())
@example(FILL_IN)
@example(NO_UNIT)
def test_unit_rich_smith_diagonal_and_rank_match_sympy(m):
    expected = _factors(m)
    assert smith_diagonal(m) == tuple(expected) + (0,) * (min(m.rows, m.cols) - len(expected))
    assert column_echelon(m).rank == _sympy(m).rank() == len(expected)


@settings(max_examples=300, deadline=None)
@given(unit_rich_matrices())
@example(FILL_IN)
@example(NO_UNIT)
def test_eliminate_units_contract(m):
    k, rest, rows = _k.eliminate_units(dict_columns(m), m.rows)
    cols = len(rest)
    assert rows <= m.rows - k and cols <= m.cols - k
    rest = IntMatrix(rows, cols, laid_out(rest, rows))
    # the remainder keeps no zero row or column
    assert all(any(rest.entries[j * rows:(j + 1) * rows]) for j in range(cols))
    assert all(any(rest.entries[i::rows]) for i in range(rows))
    assert k + _sympy(rest).rank() == _sympy(m).rank()
    assert [1] * k + _factors(rest) == _factors(m)


def test_eliminate_units_fill_in_and_no_unit():
    k, rest, rows = _k.eliminate_units(dict_columns(FILL_IN), 4)
    assert k >= 1 and rows * len(rest) and any(abs(x) > 9 for c in rest for x in c.values())
    assert _k.eliminate_units(dict_columns(NO_UNIT), 3) == (0, dict_columns(NO_UNIT), 3)


def test_eliminate_units_empty_shapes():
    for r, c in [(0, 0), (0, 3), (3, 0), (2, 3)]:
        assert _k.eliminate_units([{}] * c, r) == (0, [], 0)
        assert _k.eliminate_units([dict.fromkeys(range(r), 0) for _ in range(c)], r) == (0, [], 0)
    assert _k.eliminate_units([{0: -1}], 1) == (1, [], 0)


def _valuation(d, p):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(small_matrices(), st.sampled_from((2, 3, 5, 7)), st.integers(min_value=1, max_value=4),
       st.randoms(use_true_random=False))
@example(NO_UNIT, 2, 1, random.Random(0))
@example(NO_UNIT, 3, 3, random.Random(1))
def test_local_valuations_match_sympy(m, p, e, rnd):
    # the entries of each column in shuffled row order, with explicit
    # zeros and multiples of p^e added at zero cells, which leave the
    # matrix mod p^e, and so the valuations below e, as they were; the
    # columns are left as they were
    columns = []
    for c in dict_columns(m):
        items = list(c.items()) + [(i, rnd.choice((0, p ** e, -p ** (e + 1))))
                                   for i in range(m.rows) if i not in c and rnd.random() < 0.3]
        rnd.shuffle(items)
        columns.append(dict(items))
    before = copy.deepcopy(columns)
    expected = sorted(v for v in (_valuation(d, p) for d in _factors(m)) if v < e)
    assert _k.local_valuations(columns, m.rows, p, e) == expected
    assert columns == before
    assert [list(c) for c in columns] == [list(c) for c in before]


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices(), unit_rich_matrices()))
@example(FILL_IN)
@example(NO_UNIT)
def test_local_torsion_matches_sympy(m):
    # n is the product of the factors, so n**1 is a multiple of each
    factors = [d for d in _factors(m) if d > 1]
    assert local_torsion(m.rows, dict_columns(m), prod(factors), 1) == tuple(factors)


def _lattice_index(m):
    """(rank, product of the nonzero invariant factors) of the column span
    of m, by sympy."""
    factors = _factors(m)
    return len(factors), prod(factors)


@st.composite
def right_hand_sides(draw, m):
    """b with m.rows rows: columns in the span of m, random columns, or
    both side by side."""
    entry = st.integers(min_value=-6, max_value=6)
    k = draw(st.integers(min_value=0, max_value=3))
    x = IntMatrix(m.cols, k, draw(st.lists(entry, min_size=m.cols * k, max_size=m.cols * k)))
    t = draw(st.integers(min_value=0, max_value=2))
    other = IntMatrix(m.rows, t, draw(st.lists(entry, min_size=m.rows * t, max_size=m.rows * t)))
    return hstack(m @ x, other)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_span_contains_matches_sympy(data):
    # adjoining b to m keeps the rank and the product of the nonzero
    # invariant factors exactly when span(m) contains b: the index
    # [span(m | b) : span(m)] is the ratio of the two products
    m = data.draw(small_matrices())
    b = data.draw(right_hand_sides(m))
    expected = _lattice_index(hstack(m, b)) == _lattice_index(m)
    assert span_contains(m, b) == expected == (solve_matrix(m, b) is not None)


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_column_basis_matches_sympy(m):
    basis = column_basis(m)
    ech = column_echelon(m)
    assert basis == ech.echelon.select_columns(range(ech.rank))
    assert _lattice_index(basis) == _lattice_index(m) and basis.cols == _sympy(m).rank()
    assert span_contains(basis, m) and span_contains(m, basis)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_preimage_basis_matches_sympy(data):
    # {x : m x in span(s)} has rank cols(m) + rank(s) - rank(m | s) over Q
    m = data.draw(small_matrices())
    s = data.draw(right_hand_sides(m))
    pre = preimage_basis(m, s)
    assert pre == two_pass_preimage(m, s)
    assert pre.cols == m.cols + _sympy(s).rank() - _sympy(hstack(m, s)).rank()
    assert span_contains(s, m @ pre)
