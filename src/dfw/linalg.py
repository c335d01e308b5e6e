"""Exact linear algebra over the integers.

IntMatrix is the carrier for every map in the package.  All arithmetic is
on Python ints, so nothing rounds or overflows at any magnitude.  The
reduction loops themselves live in dfw._kernels.

Entries are stored column-major, the layout in which the kernels read and
return matrices, so no matrix is transposed on its way to a kernel or
back.  Entry types are checked once, where data enters: IntMatrix(...)
(and so from_rows, from_cols, identity and zeros) and the right-hand side
of solve.  Kernel results, matrix arithmetic and the dict columns of the
complex builders (from_dict_columns, whose entries are sums of products
of checked entries) are wrapped by _wrap without a second check.

Complexes are stored in one other layout, sparse columns: dicts
{row: entry}, which functors.FreeComplex keeps and smith_diagonal_uncached
reads.  dict_columns lists the nonzero entries of a matrix in that form,
and from_dict_columns lays such columns out dense where a caller asks for
matrices.
"""

from __future__ import annotations

import functools
from itertools import chain, compress
from math import gcd, lcm
from operator import add, neg, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import _kernels as _k

_flatten = chain.from_iterable
_INT = frozenset((int,))


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision signed integers.

    entries is one flat tuple of ints, column-major: column j is
    entries[j * rows:(j + 1) * rows].  The constructor takes entries in
    that order and raises TypeError on any entry whose type is not exactly
    int (bool included).  rows * cols may be zero in either dimension and
    all operations tolerate empty shapes.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        _check_ints(entries)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = None

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(rows_data)
        if cols is None:
            cols = len(rows_data[0]) if rows else 0
        if any(len(r) != cols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(rows, cols, _flatten(zip(*rows_data)))

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if rows is None:
            rows = len(cols_data[0]) if cols_data else 0
        if any(len(c) != rows for c in cols_data):
            raise ValueError("ragged columns")
        return cls(rows, len(cols_data), _flatten(cols_data))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        flat = [0] * (n * n)
        flat[::n + 1] = [1] * n
        return cls(n, n, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[j * self.rows + i]

    def col_list(self, j: int) -> List[int]:
        r = self.rows
        return list(self.entries[j * r:(j + 1) * r])

    def to_rows(self) -> List[List[int]]:
        r, e = self.rows, self.entries
        return [list(e[i::r]) for i in range(r)]

    def transpose(self) -> "IntMatrix":
        r, e = self.rows, self.entries
        return _wrap(self.cols, r, tuple(_flatten(e[i::r] for i in range(r))))

    def select_columns(self, idxs: Sequence[int]) -> "IntMatrix":
        r, e = self.rows, self.entries
        if idxs and not (0 <= min(idxs) and max(idxs) < self.cols):
            raise IndexError(f"column index out of range for {self.cols} columns")
        return _wrap(r, len(idxs), tuple(_flatten(e[j * r:(j + 1) * r] for j in idxs)))

    def top_rows(self, n: int) -> "IntMatrix":
        r, e = self.rows, self.entries
        if not 0 <= n <= r:
            raise ValueError(f"cannot take {n} of {r} rows")
        return _wrap(n, self.cols, tuple(_flatten(e[j * r:j * r + n] for j in range(self.cols))))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = _k.mat_mul(self.entries, other.entries, self.rows, self.cols, other.cols)
        return _wrap(self.rows, other.cols, tuple(_flatten(out)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _wrap(self.rows, self.cols, tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _wrap(self.rows, self.cols, tuple(map(sub, self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return _wrap(self.rows, self.cols, tuple(map(neg, self.entries)))

    def scaled(self, c: int) -> "IntMatrix":
        _check_ints((c,))
        return _wrap(self.rows, self.cols, tuple([c * a for a in self.entries]))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            self._hash = h
        return h

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()!r})"
        return f"IntMatrix({self.rows}x{self.cols})"


def _check_ints(entries: Sequence) -> None:
    """Raise TypeError unless every entry's type is exactly int."""
    if not _INT.issuperset(map(type, entries)):
        bad = next(e for e in entries if type(e) is not int)
        raise TypeError(f"non-integer entry {bad!r}")


_new = object.__new__


def _wrap(rows: int, cols: int, entries: Tuple[int, ...]) -> IntMatrix:
    """IntMatrix around a column-major tuple of ints, without the checks
    of the constructor: for kernel results and matrix arithmetic only."""
    m = _new(IntMatrix)
    m.rows = rows
    m.cols = cols
    m.entries = entries
    m._hash = None
    return m


def dict_columns(m: IntMatrix) -> List[Dict[int, int]]:
    """The columns of m as dicts {row: entry} of their nonzero entries."""
    r, e = m.rows, m.entries
    rows = range(r)
    out = []
    for j in range(m.cols):
        c = e[j * r:(j + 1) * r]
        out.append({i: c[i] for i in compress(rows, c)})
    return out


def from_dict_columns(rows: int, columns: Sequence[Dict[int, int]]) -> IntMatrix:
    """The rows x len(columns) matrix whose column j has the entries
    columns[j] {row: entry}, wrapped without the entry check of the
    constructor: for builders whose entries are sums of products of
    entries that were checked already."""
    flat = [0] * (rows * len(columns))
    base = 0
    for col in columns:
        for i, v in col.items():
            flat[base + i] = v
        base += rows
    return _wrap(rows, len(columns), tuple(flat))


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    return _wrap(rows, sum(m.cols for m in mats), tuple(_flatten(m.entries for m in mats)))


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch")
    flat: List[int] = []
    for j in range(cols):
        for m in mats:
            flat.extend(m.entries[j * m.rows:(j + 1) * m.rows])
    return _wrap(sum(m.rows for m in mats), cols, tuple(flat))


def block_diag(*mats: IntMatrix) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    flat: List[int] = []
    above = 0
    for m in mats:
        r, e = m.rows, m.entries
        top, bottom = (0,) * above, (0,) * (rows - above - r)
        for j in range(m.cols):
            flat.extend(top)
            flat.extend(e[j * r:(j + 1) * r])
            flat.extend(bottom)
        above += r
    return _wrap(rows, sum(m.cols for m in mats), tuple(flat))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product; index (i_a*b.rows + i_b, j_a*b.cols + j_b).

    Column (j_a, j_b) is column j_a of a with each entry v replaced by v
    times column j_b of b."""
    ar, br = a.rows, b.rows
    zero = (0,) * br
    b_cols = [b.entries[j * br:(j + 1) * br] for j in range(b.cols)]
    flat: List[int] = []
    for ja in range(a.cols):
        a_col = a.entries[ja * ar:(ja + 1) * ar]
        for b_col in b_cols:
            for v in a_col:
                if not v:
                    flat.extend(zero)
                elif v == 1:
                    flat.extend(b_col)
                else:
                    flat.extend([v * w for w in b_col])
    return _wrap(ar * br, a.cols * b.cols, tuple(flat))


class ColumnEchelon(NamedTuple):
    """a @ transform == echelon, transform unimodular, pivots positive."""

    echelon: IntMatrix
    transform: IntMatrix
    pivot_rows: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


@functools.lru_cache(maxsize=512)
def column_echelon(m: IntMatrix) -> ColumnEchelon:
    h, v, piv = _k.hermite_cols(m.entries, m.rows, m.cols)
    return ColumnEchelon(
        _wrap(m.rows, m.cols, tuple(_flatten(h))),
        _wrap(m.cols, m.cols, tuple(_flatten(v))),
        tuple(piv),
    )


def rank(m: IntMatrix) -> int:
    """Rank of m, from one rank-only Hermite pass: no transform and no
    reduction left of the pivots, which later rows never read.

    It serves only input checks (independent sublattice columns); no
    derived value needs a rank, since homology_value reads H1 off the
    Smith diagonal of d2 alone."""
    return len(_k.hermite_cols(m.entries, m.rows, m.cols, False, rank_only=True)[2])


def column_basis(m: IntMatrix) -> IntMatrix:
    """Echelon basis (independent columns) of the column span of m."""
    ech = column_echelon(m)
    return ech.echelon.select_columns(range(ech.rank))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the full integer kernel lattice {x : m @ x = 0}.

    The lattice is saturated: any integer vector killed by m is an integer
    combination of the returned columns.
    """
    ech = column_echelon(m)
    return ech.transform.select_columns(range(ech.rank, m.cols))


def _solve_echelon(ech: ColumnEchelon, b: Sequence[int]) -> Optional[List[int]]:
    rows = ech.echelon.rows
    cols = ech.echelon.cols
    npiv = ech.rank
    pivot_rows = ech.pivot_rows
    h = ech.echelon.entries
    res = list(b)
    y = [0] * npiv
    pc = 0
    for row in range(rows):
        if pc < npiv and pivot_rows[pc] == row:
            v = res[row]
            if v:
                hc = h[pc * rows:(pc + 1) * rows]
                p = hc[row]
                if v % p:
                    return None
                q = v // p
                for i in range(row, rows):
                    res[i] -= q * hc[i]
                y[pc] = q
            pc += 1
        elif res[row]:
            return None
    # x = transform @ y, only pivot coordinates of y are nonzero
    t = ech.transform.entries
    x = [0] * cols
    for j in range(npiv):
        q = y[j]
        if q:
            tc = t[j * cols:(j + 1) * cols]
            for i in range(cols):
                x[i] += q * tc[i]
    return x


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """Some integer x with m @ x = b, or None when unsolvable over Z."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    _check_ints(b)
    return _solve_echelon(column_echelon(m), b)


def solve_matrix(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with m @ X = b, or None if any column is unsolvable."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch")
    ech = column_echelon(m)
    r, e = b.rows, b.entries
    flat: List[int] = []
    for j in range(b.cols):
        x = _solve_echelon(ech, e[j * r:(j + 1) * r])
        if x is None:
            return None
        flat.extend(x)
    return _wrap(m.cols, b.cols, tuple(flat))


def preimage_basis(m: IntMatrix, span: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : m @ x lies in the column span of `span`}.

    Computed as the projection of the block kernel of [m | span] onto the
    first block of coordinates.
    """
    if span.rows != m.rows:
        raise ValueError("shape mismatch")
    ker = kernel_basis(hstack(m, span))
    return column_basis(ker.top_rows(m.cols))


class SmithDecomposition(NamedTuple):
    """left @ input @ right == diag, with unimodular left/right.

    diag has the input's shape; diagonal entries are nonnegative, each
    divides the next, and zeros trail.
    """

    left: IntMatrix
    diag: IntMatrix
    right: IntMatrix

    def diagonal(self) -> Tuple[int, ...]:
        n = min(self.diag.rows, self.diag.cols)
        return tuple(self.diag.entry(i, i) for i in range(n))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith form with its transforms, from alternating Hermite passes
    (Kannan and Bachem, SIAM J. Comput. 1979).

    A column pass (column_echelon of d) and a row pass (column_echelon of
    d^T) alternate, and their transforms accumulate into right and left,
    until d is diagonal.  A column pass leaves its pivots first and in
    increasing rows, so zeros trail.  Where d_i does not divide a later
    d_j, row j is added to row i and the passes go on.  It must be a row
    operation: a column operation would be undone by the next column
    pass, which reduces the entries left of each pivot.

    The passes end: each pivot is the gcd of its row or its column, so
    it never grows; each pass either lowers a pivot or clears that
    pivot's row and column; and a row fix lowers d_i to
    gcd(d_i, d_j) < d_i.
    """
    rows = m.rows
    d, left, right = m, IntMatrix.identity(rows), IntMatrix.identity(m.cols)
    while True:
        ech = column_echelon(d)
        d, right = ech.echelon, right @ ech.transform
        ech = column_echelon(d.transpose())
        d, left = ech.echelon.transpose(), ech.transform.transpose() @ left
        # entry n of d sits at row n % rows, column n // rows
        if any(e for n, e in enumerate(d.entries) if n % rows != n // rows):
            continue
        dec = SmithDecomposition(left, d, right)
        diag = [e for e in dec.diagonal() if e]
        fix = next(((i, j) for i in range(len(diag)) for j in range(i + 1, len(diag))
                    if diag[j] % diag[i]), None)
        if fix is None:
            return dec
        # row i += row j, in d and in left
        add = IntMatrix.from_rows([[int(r == c or (r, c) == fix) for c in range(rows)]
                                   for r in range(rows)])
        d, left = add @ d, add @ left


def smith_diagonal_uncached(rows: int, columns: Sequence[Dict[int, int]]) -> Tuple[int, ...]:
    """Diagonal of the Smith form of the rows x len(columns) matrix with
    the dict columns {row: entry}, without transforms.

    Units first: eliminate_units splits off u pivots of +-1 from the
    columns as they are, so the diagonal is u ones followed by that of
    the sparse remainder R.  Then Hermite passes (Havas, Majewski and
    Matthews, Exp. Math. 1998): a column pass on R leaves its k = rank(R) echelon columns B, and
    column passes on the transpose of B, then of each k x k result, run
    until the block is diagonal, as in smith_normal_form.  Unimodular
    steps keep the diagonal; reducing R directly lets its entries swell.
    Last, gcd and lcm turn the diagonal into a divisibility chain:
    diag(a, b) and diag(gcd(a, b), lcm(a, b)) have the same Smith form.
    """
    u, rest, n_rows, n_cols = _k.eliminate_units(columns, rows)
    h, _, piv = _k.hermite_cols(rest, n_rows, n_cols, False)
    k = len(piv)
    block, n = h[:k], n_rows
    while True:
        # the columns of the transpose are the rows of block; a full-rank
        # pass leaves k nonzero columns, each zero above its diagonal entry
        block = _k.hermite_cols(tuple(_flatten(zip(*block))), k, n, False)[0][:k]
        n = k
        if not any(any(c[j + 1:]) for j, c in enumerate(block)):
            break
    d = [c[j] for j, c in enumerate(block)]
    for i in range(k):
        for j in range(i + 1, k):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    diag = (1,) * u + tuple(d)
    return diag + (0,) * (min(rows, len(columns)) - len(diag))


# Most hits are small relation matrices seen again within a few calls
# (PresentedGroup.canonical).  The differentials of derived values are
# large and rarely repeat, so derived.homology_value reads them through
# smith_diagonal_uncached and keeps them out of this cache.
@functools.lru_cache(maxsize=256)
def smith_diagonal(m: IntMatrix) -> Tuple[int, ...]:
    """smith_diagonal_uncached of the columns of m, behind a 256-entry
    LRU cache."""
    return smith_diagonal_uncached(m.rows, dict_columns(m))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and determinant(m) in (1, -1)


def clear_caches() -> None:
    column_echelon.cache_clear()
    smith_diagonal.cache_clear()
