"""IntMatrix against a plain row-list reference.

Every operation must give what the textbook formula on lists of rows
gives, on every shape, 0 x n and n x 0 included.  entries is the one
flat, column-major tuple of ints behind each matrix, so the layout itself
is pinned here too.
"""

from hypothesis import given, settings, strategies as st

from dfw.linalg import IntMatrix, block_diag, hstack, kron
from test_builders import vstack

ENTRY = st.integers(min_value=-(2**70), max_value=2**70) | st.integers(min_value=-3, max_value=3)
DIM = st.integers(min_value=0, max_value=4)


def row_lists(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def shaped(draw):
    """(rows, cols, a list of rows) of a random shape."""
    r, c = draw(DIM), draw(DIM)
    return r, c, draw(row_lists(r, c))


def ref_transpose(r, c, a):
    return [[a[i][j] for i in range(r)] for j in range(c)]


def ref_matmul(a, b, n, m, k):
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(k)] for i in range(n)]


def ref_kron(a, b, ar, ac, br, bc):
    return [
        [a[ia][ja] * b[ib][jb] for ja in range(ac) for jb in range(bc)]
        for ia in range(ar) for ib in range(br)
    ]


def ref_block_diag(a, b, ar, ac, br, bc):
    return [row + [0] * bc for row in a] + [[0] * ac + row for row in b]


def matrix(r, c, a):
    return IntMatrix.from_rows(a, cols=c)


def assert_is(m, r, c, rows):
    """m is r x c with these rows, stored as one flat column-major tuple of
    ints."""
    assert (m.rows, m.cols) == (r, c)
    assert m.to_rows() == rows
    assert type(m.entries) is tuple
    assert all(type(e) is int for e in m.entries)
    assert m.entries == tuple(e for col in ref_transpose(r, c, rows) for e in col)


@settings(max_examples=200, deadline=None)
@given(shaped(), st.data())
def test_single_matrix_operations(shape, data):
    r, c, a = shape
    m = matrix(r, c, a)
    assert_is(m, r, c, a)
    cols = ref_transpose(r, c, a)
    assert IntMatrix.from_cols(cols, rows=r) == m
    assert IntMatrix(r, c, m.entries) == m
    assert [m.col_list(j) for j in range(c)] == cols
    assert all(m.entry(i, j) == a[i][j] for i in range(r) for j in range(c))

    idxs = data.draw(st.lists(st.integers(min_value=0, max_value=c - 1), max_size=5) if c else st.just([]))
    assert_is(m.select_columns(idxs), r, len(idxs), [[row[j] for j in idxs] for row in a])
    n = data.draw(st.integers(min_value=0, max_value=r))
    assert_is(m.top_rows(n), n, c, a[:n])

    assert_is(-m, r, c, [[-e for e in row] for row in a])
    b = data.draw(row_lists(r, c))
    assert_is(m + matrix(r, c, b), r, c, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)])
    assert_is(m - matrix(r, c, b), r, c, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)])

    same = matrix(r, c, [list(row) for row in a])
    assert same == m and hash(same) == hash(m)
    if r and c:
        changed = [list(row) for row in a]
        changed[r - 1][c - 1] += 1
        assert matrix(r, c, changed) != m


@settings(max_examples=200, deadline=None)
@given(shaped(), shaped(), st.data())
def test_two_matrix_operations(sa, sb, data):
    ar, ac, a = sa
    br, bc, b = sb
    ma, mb = matrix(ar, ac, a), matrix(br, bc, b)
    assert_is(kron(ma, mb), ar * br, ac * bc, ref_kron(a, b, ar, ac, br, bc))
    assert_is(block_diag(ma, mb), ar + br, ac + bc, ref_block_diag(a, b, ar, ac, br, bc))

    right = data.draw(row_lists(ar, bc))
    assert_is(hstack(ma, matrix(ar, bc, right)), ar, ac + bc, [p + q for p, q in zip(a, right)])
    below = data.draw(row_lists(br, ac))
    assert_is(vstack(ma, matrix(br, ac, below)), ar + br, ac, a + below)
    factor = data.draw(row_lists(ac, bc))
    assert_is(ma @ matrix(ac, bc, factor), ar, bc, ref_matmul(a, factor, ar, ac, bc))
