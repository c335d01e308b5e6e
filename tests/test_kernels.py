"""The nonzero scans of the kernels (itertools.compress over an index
range and a column slice) against the comprehension versions they
replaced, which are copied below as the reference: mat_mul,
hermite_cols (with and without transform) and
eliminate_units must return exactly what the references return.
eliminate_units reads dict columns, with explicit zero entries among
them, and must leave them as they were; its reference reads the same
matrix in the dense flat form.  eliminate_units returns its remainder as
dict columns and the reference as a flat column-major list, so the dict
columns are laid out dense for the comparison, which holds their order,
their row numbers and their entries to the reference's.

The matrices are sparse (at most a fifth of the entries nonzero), with
entries up to 2^70, zero columns, leading zero rows (so pivots fall past
row 0) and empty shapes."""

import copy
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from dfw import _kernels as _k

MAX_DIM = 12
BIG = 1 << 70
nonzero = st.one_of(
    st.sampled_from([1, -1, 2, -2, 3, -6]),
    st.integers(min_value=-BIG, max_value=BIG).filter(bool),
)


@st.composite
def sparse_flat(draw, rows=None, cols=None):
    """(a, rows, cols): a flat column-major rows x cols matrix with at most
    a fifth of its entries nonzero, some columns and leading rows zero."""
    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=MAX_DIM))
    if cols is None:
        cols = draw(st.integers(min_value=0, max_value=MAX_DIM))
    a = [0] * (rows * cols)
    if rows * cols:
        cells = draw(st.lists(st.integers(min_value=0, max_value=rows * cols - 1),
                              max_size=rows * cols // 5, unique=True))
        for c in cells:
            a[c] = draw(nonzero)
    top = draw(st.integers(min_value=0, max_value=rows))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0)), max_size=cols))
    for j in range(cols):
        for i in range(rows):
            if i < top or j in zero_cols:
                a[j * rows + i] = 0
    return tuple(a), rows, cols


@st.composite
def product_operands(draw):
    n, m, k = (draw(st.integers(min_value=0, max_value=MAX_DIM)) for _ in range(3))
    a = draw(sparse_flat(n, m))[0]
    b = draw(sparse_flat(m, k))[0]
    return a, b, n, m, k


# a pivot in row 2 of a 4 x 3 matrix, one zero column, a 71-bit entry
PAST_ROW_0 = (0, 0, 3, 0, 0, 0, 0, 0, 0, 0, BIG + 1, 2), 4, 3
EMPTY = [((), 0, 0), ((), 0, 5), ((), 5, 0)]


@settings(max_examples=300, deadline=None)
@given(product_operands())
@example(((), (), 0, 0, 0))
@example(((), (), 3, 0, 4))
@example(((0,) * 6, (), 6, 1, 0))
@example(((0, 5, 0, 0, 0, 7), (2, 0, 0, -1), 3, 2, 2))
def test_mat_mul_matches_reference(args):
    assert _k.mat_mul(*args) == ref_mat_mul(*args)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`, so that a reduction
    which never ends fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"kernel still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=300, deadline=None)
@given(sparse_flat())
@example(((1, 5, 0, 3), 2, 2))  # a nonzero last entry in the pivot column
@example(PAST_ROW_0)
@example(EMPTY[0])
@example(EMPTY[1])
@example(EMPTY[2])
def test_hermite_cols_matches_reference(args):
    for transform in (True, False):
        with time_limit(10):
            got = _k.hermite_cols(*args, transform)
        assert got == ref_hermite_cols(*args, transform)


@st.composite
def dict_columns_with_zeros(draw):
    """(columns, a, rows, cols): a sparse_flat matrix a and its columns as
    dicts {row: entry} in increasing row order, holding every nonzero
    entry and explicit zeros at some of the other cells."""
    a, rows, cols = draw(sparse_flat())
    zeros = draw(st.sets(st.integers(min_value=0, max_value=max(rows * cols - 1, 0)),
                         max_size=rows * cols))
    columns = [{i: a[j * rows + i] for i in range(rows)
                if a[j * rows + i] or j * rows + i in zeros} for j in range(cols)]
    return columns, a, rows, cols


# a unit pivot whose column holds an explicit zero, beside a zero column
ZEROS_BESIDE_A_UNIT = [{0: 1, 1: 0}, {0: 2, 1: 3}, {1: 0}], (1, 0, 2, 3, 0, 0), 2, 3
# a column that fill-in cancels to empty
CANCELLED = ([{0: 1, 1: 2}, {0: 1, 1: 2}, {1: 3}, {1: 5, 2: 7}],
             (1, 2, 0, 1, 2, 0, 0, 3, 0, 0, 5, 7), 3, 4)


@settings(max_examples=300, deadline=None)
@given(dict_columns_with_zeros())
@example(ZEROS_BESIDE_A_UNIT)
@example(CANCELLED)
@example(([{2: 3}, {}, {2: BIG + 1, 3: 2}], *PAST_ROW_0))
@example(([], *EMPTY[0]))
@example(([{}] * 5, *EMPTY[1]))
@example(([], *EMPTY[2]))
def test_eliminate_units_matches_reference(args):
    columns, a, rows, cols = args
    before = copy.deepcopy(columns)
    k, rest, rest_rows = _k.eliminate_units(columns, rows)
    got = k, laid_out(rest, rest_rows), rest_rows, len(rest)
    assert got == ref_eliminate_units(a, rows, cols)
    assert columns == before
    assert [list(c) for c in columns] == [list(c) for c in before]


def laid_out(rest, rows):
    """The flat column-major layout of the dict columns rest of a rows x
    len(rest) matrix, each of whose entries must be nonzero and in a row
    below rows."""
    flat = [0] * (rows * len(rest))
    for j, c in enumerate(rest):
        for i, x in c.items():
            assert x and 0 <= i < rows
            flat[j * rows + i] = x
    return flat


@pytest.mark.parametrize("columns, rows, expected", [
    # explicit zeros, and rows 1 and 2 zero: rows 0 and 3 become 0 and 1
    ([{0: 2, 1: 0, 3: 5}, {1: 0, 2: 0}, {0: 0, 3: 4}], 4, (0, [{0: 2, 1: 5}, {1: 4}], 2)),
    # clearing row 0 with the unit of column 0 leaves column 1 empty; the
    # columns left keep their order, and row 0 goes with the pivot
    (CANCELLED[0], 3, (1, [{0: 3}, {0: 5, 1: 7}], 2)),
    # a unitriangular matrix whose entries are 0 and +-1 leaves nothing
    ([{0: 1}, {0: -1, 1: 1}, {0: 1, 1: -1, 2: -1}], 3, (3, [], 0)),
])
def test_eliminate_units_remainder(columns, rows, expected):
    assert _k.eliminate_units(columns, rows) == expected


def test_example_has_pivots_past_row_0():
    assert ref_hermite_cols(*PAST_ROW_0)[2] == [2, 3]


# ---------------------------------------------------------------- references
# The kernels as they were before the scans used itertools.compress.


def ref_mat_mul(a, b, n, m, k):
    # the nonzero entries of column t of a, listed when first needed
    a_nz = [None] * m
    out = []
    for j in range(k):
        col = [0] * n
        for t, w in enumerate(b[j * m:(j + 1) * m]):
            if w:
                nz = a_nz[t]
                if nz is None:
                    nz = a_nz[t] = [(i, v) for i, v in enumerate(a[t * n:(t + 1) * n]) if v]
                for i, v in nz:
                    col[i] += v * w
        out.append(col)
    return out


def ref_hermite_cols(a, rows, cols, transform=True):
    h = [list(a[j * rows:(j + 1) * rows]) for j in range(cols)]
    if transform:
        v = [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    else:
        v = None
    pivot_rows = []
    piv = 0
    for row in range(rows):
        if piv == cols:
            break
        placed = False
        while True:
            # Bring the minimal absolute value at this row into position piv.
            j0 = -1
            best = -1
            for j in range(piv, cols):
                e = h[j][row]
                if e:
                    if e < 0:
                        e = -e
                    if best < 0 or e < best:
                        best = e
                        j0 = j
                        if best == 1:
                            break
            if j0 < 0:
                break
            if j0 != piv:
                h[piv], h[j0] = h[j0], h[piv]
                if transform:
                    v[piv], v[j0] = v[j0], v[piv]
            hp = h[piv]
            vp = v[piv] if transform else None
            if hp[row] < 0:
                for i in range(row, rows):
                    hp[i] = -hp[i]
                if transform:
                    for i in range(cols):
                        vp[i] = -vp[i]
            p = hp[row]
            # Column operations touch only the nonzero entries of the pivot
            # column, which is sparse for the structured matrices of dfw.
            hnz = [(i, hp[i]) for i in range(row, rows) if hp[i]]
            vnz = [(i, x) for i, x in enumerate(vp) if x] if transform else None
            clean = True
            for j in range(piv + 1, cols):
                hj = h[j]
                e = hj[row]
                if e:
                    q = e // p
                    if q:
                        for i, x in hnz:
                            hj[i] -= q * x
                        if transform:
                            vj = v[j]
                            for i, x in vnz:
                                vj[i] -= q * x
                    if hj[row]:
                        clean = False
            if clean:
                placed = True
                break
        if placed:
            pivot_rows.append(row)
            piv += 1
            # Reduce entries left of the new pivot into [0, pivot); p and
            # hnz are those of the final, clean pass.
            for j in range(piv - 1):
                q = h[j][row] // p
                if q:
                    hj = h[j]
                    for i, x in hnz:
                        hj[i] -= q * x
                    if transform:
                        vj = v[j]
                        for i, x in vnz:
                            vj[i] -= q * x
    return h, v, pivot_rows


def ref_eliminate_units(a, rows, cols):
    # dict columns {row: entry} of the nonzero entries, and for each row
    # the set of columns that are nonzero there
    col = []
    occ = [set() for _ in range(rows)]
    for j in range(cols):
        cj = {i: x for i, x in enumerate(a[j * rows:(j + 1) * rows]) if x}
        for i in cj:
            occ[i].add(j)
        col.append(cj)
    k = 0
    for j in sorted(range(cols), key=lambda j: len(col[j])):
        cj = col[j]
        pivot = -1
        fewest = 0
        for i, x in cj.items():
            if x == 1 or x == -1:
                n = len(occ[i])
                if pivot < 0 or n < fewest:
                    pivot, fewest = i, n
                    if n == 1:
                        break
        if pivot < 0:
            continue
        v = cj.pop(pivot)
        others = list(cj.items())
        for c in occ[pivot]:
            if c == j:
                continue
            cc = col[c]
            # column c -= (e / v) column j clears row pivot; 1 / v == v
            q = cc.pop(pivot) * v
            for i, x in others:
                y = cc.get(i)
                if y is None:
                    cc[i] = -q * x
                    occ[i].add(c)
                else:
                    y -= q * x
                    if y:
                        cc[i] = y
                    else:
                        del cc[i]
                        occ[i].discard(c)
        for i in cj:
            occ[i].discard(j)
        occ[pivot] = set()
        col[j] = {}
        k += 1
    live = [i for i in range(rows) if occ[i]]
    at = {i: n for n, i in enumerate(live)}
    rest_rows = len(live)
    rest = []
    rest_cols = 0
    for cj in col:
        if cj:
            dense = [0] * rest_rows
            for i, x in cj.items():
                dense[at[i]] = x
            rest.extend(dense)
            rest_cols += 1
    return k, rest, rest_rows, rest_cols
