"""Exact linear algebra over the integers.

IntMatrix is the carrier for every map in the package.  All arithmetic is
on Python ints, so nothing rounds or overflows at any magnitude.  The
reduction loops themselves live in dfw._kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from . import _kernels as _k


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision signed integers.

    Entries are stored row-major; rows * cols may be zero in either
    dimension and all operations tolerate empty shapes.
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
        if not all(type(e) is int for e in entries):
            bad = next(e for e in entries if type(e) is not int)
            raise TypeError(f"non-integer entry {bad!r}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._hash = None

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = len(rows_data)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, ())
        width = len(rows_data[0]) if cols is None else cols
        flat: List[int] = []
        for r in rows_data:
            if len(r) != width:
                raise ValueError("ragged rows")
            flat.extend(int(e) for e in r)
        return cls(rows, width, flat)

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        ncols = len(cols_data)
        if ncols == 0:
            return cls(0 if rows is None else rows, 0, ())
        height = len(cols_data[0]) if rows is None else rows
        flat = [0] * (height * ncols)
        for j, c in enumerate(cols_data):
            if len(c) != height:
                raise ValueError("ragged columns")
            for i, e in enumerate(c):
                flat[i * ncols + j] = int(e)
        return cls(height, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> List[int]:
        c = self.cols
        return list(self.entries[i * c:(i + 1) * c])

    def col_list(self, j: int) -> List[int]:
        c = self.cols
        return [self.entries[i * c + j] for i in range(self.rows)]

    def to_rows(self) -> List[List[int]]:
        c = self.cols
        e = self.entries
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        r, c, e = self.rows, self.cols, self.entries
        return IntMatrix(c, r, (e[i * c + j] for j in range(c) for i in range(r)))

    def select_columns(self, idxs: Sequence[int]) -> "IntMatrix":
        c = self.cols
        e = self.entries
        return IntMatrix(
            self.rows, len(idxs),
            (e[i * c + j] for i in range(self.rows) for j in idxs),
        )

    def top_rows(self, n: int) -> "IntMatrix":
        return IntMatrix(n, self.cols, self.entries[: n * self.cols])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = _k.mat_mul(self.to_rows(), other.to_rows(), self.rows, self.cols, other.cols)
        return IntMatrix(self.rows, other.cols, (e for row in out for e in row))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-a for a in self.entries))

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (c * a for a in self.entries))

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


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch")
    flat: List[int] = []
    for i in range(rows):
        for m in mats:
            flat.extend(m.entries[i * m.cols:(i + 1) * m.cols])
    return IntMatrix(rows, sum(m.cols for m in mats), flat)


def vstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch")
    flat: List[int] = []
    for m in mats:
        flat.extend(m.entries)
    return IntMatrix(sum(m.rows for m in mats), cols, flat)


def block_diag(*mats: IntMatrix) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    flat = [0] * (rows * cols)
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            base = (ro + i) * cols + co
            for j in range(m.cols):
                flat[base + j] = m.entries[i * m.cols + j]
        ro += m.rows
        co += m.cols
    return IntMatrix(rows, cols, flat)


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product; index (i_a*b.rows + i_b, j_a*b.cols + j_b)."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    flat = [0] * (rows * cols)
    for ia in range(a.rows):
        for ja in range(a.cols):
            v = a.entries[ia * a.cols + ja]
            if not v:
                continue
            for ib in range(b.rows):
                base = (ia * b.rows + ib) * cols + ja * b.cols
                brow = ib * b.cols
                for jb in range(b.cols):
                    w = b.entries[brow + jb]
                    if w:
                        flat[base + jb] = v * w
    return IntMatrix(rows, cols, flat)


@dataclass(frozen=True)
class ColumnEchelon:
    """a @ transform == echelon, transform unimodular, pivots positive."""

    echelon: IntMatrix
    transform: IntMatrix
    pivot_rows: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    # column-list views, cached for the substitution loops in solve
    @functools.cached_property
    def _echelon_cols(self) -> List[List[int]]:
        return [self.echelon.col_list(j) for j in range(self.rank)]

    @functools.cached_property
    def _transform_cols(self) -> List[List[int]]:
        return [self.transform.col_list(j) for j in range(self.transform.cols)]


@functools.lru_cache(maxsize=512)
def column_echelon(m: IntMatrix) -> ColumnEchelon:
    h, v, piv = _k.hermite_cols(m.to_rows(), m.rows, m.cols)
    return ColumnEchelon(
        IntMatrix.from_cols(h, rows=m.rows),
        IntMatrix.from_cols(v, rows=m.cols),
        tuple(piv),
    )


def rank(m: IntMatrix) -> int:
    """Rank of m, from one Hermite pass without transform."""
    return len(_k.hermite_cols(m.to_rows(), m.rows, m.cols, False)[2])


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
    hcols = ech._echelon_cols
    res = list(b)
    y = [0] * npiv
    pc = 0
    for row in range(rows):
        if pc < npiv and pivot_rows[pc] == row:
            hc = hcols[pc]
            v = res[row]
            if v:
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
    tcols = ech._transform_cols
    x = [0] * cols
    for j in range(npiv):
        q = y[j]
        if q:
            tc = tcols[j]
            for i in range(cols):
                x[i] += q * tc[i]
    return x


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """Some integer x with m @ x = b, or None when unsolvable over Z."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    return _solve_echelon(column_echelon(m), [int(e) for e in b])


def solve_matrix(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with m @ X = b, or None if any column is unsolvable."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch")
    ech = column_echelon(m)
    cols: List[List[int]] = []
    for j in range(b.cols):
        x = _solve_echelon(ech, b.col_list(j))
        if x is None:
            return None
        cols.append(x)
    return IntMatrix.from_cols(cols, rows=m.cols)


def preimage_basis(m: IntMatrix, span: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : m @ x lies in the column span of `span`}.

    Computed as the projection of the block kernel of [m | span] onto the
    first block of coordinates.
    """
    if span.rows != m.rows:
        raise ValueError("shape mismatch")
    ker = kernel_basis(hstack(m, span))
    return column_basis(ker.top_rows(m.cols))


@dataclass(frozen=True)
class SmithDecomposition:
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
    l, d, r = _k.smith(m.to_rows(), m.rows, m.cols, True)
    return SmithDecomposition(
        IntMatrix.from_rows(l, cols=m.rows),
        IntMatrix.from_rows(d, cols=m.cols),
        IntMatrix.from_cols(r, rows=m.cols),
    )


@functools.lru_cache(maxsize=1024)
def smith_diagonal(m: IntMatrix) -> Tuple[int, ...]:
    """Diagonal of the Smith form, without transforms.

    Hermite first (Havas, Majewski and Matthews, Exp. Math. 1998): a
    column pass leaves the k = rank(m) echelon columns B, a row pass (a
    column pass on B^T) leaves a k x k triangular block with entries
    reduced against its pivots, and only that block goes to the Smith
    kernel.  Unimodular steps keep the diagonal; reducing the raw matrix
    directly lets its entries swell.
    """
    h, _, piv = _k.hermite_cols(m.to_rows(), m.rows, m.cols, False)
    k = len(piv)
    # h is column-major, so its first k columns are the rows of B^T
    t, _, _ = _k.hermite_cols(h[:k], k, m.rows, False)
    # the k nonzero columns of t, read as rows: the transposed block, whose
    # Smith diagonal is the same
    _, d, _ = _k.smith(t[:k], k, k, False)
    return tuple(d[i][i] for i in range(k)) + (0,) * (min(m.rows, m.cols) - k)


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
