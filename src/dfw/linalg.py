"""Exact linear algebra over the integers.

IntMatrix is the carrier for every map in the package.  All arithmetic is
on Python ints, so nothing rounds or overflows at any magnitude.  The
reduction loops themselves live in dfw._kernels.

Entries are stored column-major, the layout in which the kernels read and
return matrices, so no matrix is transposed on its way to a kernel or
back.  Entry types are checked once, where data enters: IntMatrix(...)
(and so from_rows, from_cols, identity and zeros).  Kernel results,
matrix arithmetic and the dict columns of the complex builders
(from_dict_columns, whose entries are sums of products of checked
entries) are wrapped by _wrap without a second check.

Complexes are stored in one other layout, sparse columns: dicts
{row: entry}, which functors.FreeComplex keeps and local_torsion and
smith_diagonal_uncached read, and in which both get the remainder of
_k.eliminate_units; only smith_diagonal_uncached lays that out dense,
for its Hermite passes.  dict_columns lists the nonzero entries of a
matrix in that form, and from_dict_columns lays such columns out dense
where a caller asks for matrices.  derived's presentations check that a
lattice's columns are independent, and read its exponent, on
echelon_smith_diagonal: row passes on the lattice's cached Hermite basis.

A lattice is reduced only as far as the caller reads, and
_k.hermite_cols keeps no transform.  The column Hermite form is unique
for a lattice, so column_basis and span_contains read it from a pass
over the matrix alone.  Every coordinate is read off a kernel lattice:
preimage_basis reduces [m span; I 0] (_stacked_pass), kernel_basis is
the preimage of 0, and solve_matrix reads X off the kernel of [b | m].
column_echelon, the transform of a pass over [m; I], is on no path of
the package; the tests hold these paths to it.
"""

import functools
from collections.abc import Iterable, Sequence
from itertools import chain, compress
from math import gcd, lcm
from operator import add, neg, sub

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
    def from_rows(cls, rows_data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = len(rows_data)
        if cols is None:
            cols = len(rows_data[0]) if rows else 0
        if any(len(r) != cols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(rows, cols, _flatten(zip(*rows_data)))

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
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

    def col_list(self, j: int) -> list[int]:
        r = self.rows
        return list(self.entries[j * r:(j + 1) * r])

    def to_rows(self) -> list[list[int]]:
        r, e = self.rows, self.entries
        return [list(e[i::r]) for i in range(r)]

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


def _wrap(rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
    """IntMatrix around a column-major tuple of ints, without the checks
    of the constructor: for kernel results and matrix arithmetic only."""
    m = _new(IntMatrix)
    m.rows = rows
    m.cols = cols
    m.entries = entries
    m._hash = None
    return m


def dict_columns(m: IntMatrix) -> list[dict[int, int]]:
    """The columns of m as dicts {row: entry} of their nonzero entries."""
    r, e = m.rows, m.entries
    rows = range(r)
    out = []
    for j in range(m.cols):
        c = e[j * r:(j + 1) * r]
        out.append({i: c[i] for i in compress(rows, c)})
    return out


def from_dict_columns(rows: int, columns: Sequence[dict[int, int]]) -> IntMatrix:
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


def block_diag(*mats: IntMatrix) -> IntMatrix:
    rows = sum(m.rows for m in mats)
    flat: list[int] = []
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
    flat: list[int] = []
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


class ColumnEchelon:
    """a @ transform == echelon, transform unimodular, pivots positive;
    rank is the number of pivot rows, and the columns of transform from
    rank on are the Hermite basis of the kernel lattice.  Results are
    cached and shared, so callers only read the fields."""

    __slots__ = ("echelon", "transform", "pivot_rows", "rank")

    def __init__(self, echelon: IntMatrix, transform: IntMatrix,
                 pivot_rows: tuple[int, ...]):
        self.echelon = echelon
        self.transform = transform
        self.pivot_rows = pivot_rows
        self.rank = len(pivot_rows)


def _stacked_pass(m: IntMatrix, span: IntMatrix) -> tuple[list[list[int]], list[int], int]:
    """The Hermite pass over [m span; I 0] (Cohen, A Course in
    Computational Algebraic Number Theory, 1993, 2.4), whose columns are
    (m x + span y; x): the columns, their pivot rows and the number of
    pivots in the rows of m."""
    r, n = m.rows, m.cols
    e, s = m.entries, span.entries
    flat: list[int] = []
    unit = [0] * n
    for j in range(n):
        flat.extend(e[j * r:(j + 1) * r])
        unit[j] = 1
        flat.extend(unit)
        unit[j] = 0
    for j in range(span.cols):
        flat.extend(s[j * r:(j + 1) * r])
        flat.extend(unit)
    h, _, piv = _k.hermite_cols(flat, r + n, n + span.cols)
    return h, piv, sum(p < r for p in piv)


@functools.lru_cache(maxsize=512)
def column_echelon(m: IntMatrix) -> ColumnEchelon:
    """The Hermite form of m (top block of the pass over [m; I]) with its
    transform (bottom block).  No path of the package reads it: it is
    the reference that the tests hold kernel_basis and solve_matrix to."""
    r, n = m.rows, m.cols
    h, piv, rank = _stacked_pass(m, _wrap(r, 0, ()))
    return ColumnEchelon(
        _wrap(r, n, tuple(_flatten(c[:r] for c in h))),
        _wrap(n, n, tuple(_flatten(c[r:] for c in h))),
        tuple(piv[:rank]),
    )


@functools.lru_cache(maxsize=256)
def _hermite_basis(m: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """The rank nonzero columns of the Hermite form of m and their pivot
    rows, from a pass over m alone."""
    h, _, piv = _k.hermite_cols(m.entries, m.rows, m.cols)
    return _wrap(m.rows, len(piv), tuple(_flatten(h[:len(piv)]))), tuple(piv)


def column_basis(m: IntMatrix) -> IntMatrix:
    """Echelon basis (independent columns) of the column span of m: its
    Hermite form, which is unique for the lattice, so the pass that finds
    it keeps no transform."""
    return _hermite_basis(m)[0]


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the full integer kernel lattice {x : m @ x = 0}, in
    Hermite form: the preimage of 0.

    The lattice is saturated: any integer vector killed by m is an integer
    combination of the returned columns.
    """
    return preimage_basis(m, _wrap(m.rows, 0, ()))


def _echelon_coords(h: Sequence[int], pivot_rows: Sequence[int],
                    b: Sequence[int]) -> list[int] | None:
    """y with H @ y == b for the echelon columns H, flat column-major
    with len(b) rows and pivots at pivot_rows, or None if b is not in
    their span."""
    rows = len(b)
    npiv = len(pivot_rows)
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
    return y


def span_contains(m: IntMatrix, b: IntMatrix) -> bool:
    """Does the column span of m contain every column of b?

    Each column is reduced against the Hermite form of m; no solution
    is built, so no transform is kept."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch")
    if b.is_zero:
        return True
    h, piv = _hermite_basis(m)
    r, e = b.rows, b.entries
    return all(_echelon_coords(h.entries, piv, e[j * r:(j + 1) * r]) is not None
               for j in range(b.cols))


def solve_matrix(m: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """Integer X with m @ X = b, or None if any column is unsolvable.

    With k = b.cols, the Hermite basis K of the kernel of [b | m] (the
    preimage of 0) projects onto {t : b t in span m} in its first k
    coordinates.  That is all of
    Z^k exactly when the top k x k block of K's first k columns is the
    identity (pivots 1, and everything left of a pivot 1 reduced to 0);
    then each of those columns is (e_j; -x_j) with m x_j = b e_j.
    """
    if b.rows != m.rows:
        raise ValueError("shape mismatch")
    k = b.cols
    ker = preimage_basis(hstack(b, m), _wrap(m.rows, 0, ()))
    head = ker.select_columns(range(min(k, ker.cols)))
    if head.top_rows(k) != IntMatrix.identity(k):
        return None
    r, e = head.rows, head.entries
    return _wrap(m.cols, k, tuple(-e[i] for j in range(k) for i in range(j * r + k, (j + 1) * r)))


def preimage_basis(m: IntMatrix, span: IntMatrix) -> IntMatrix:
    """Basis of the lattice {x : m @ x lies in the column span of `span`},
    in Hermite form.

    One pass over the stacked matrix [m span; I 0] (_stacked_pass): the
    echelon columns whose pivots lie in the identity rows are those with
    m x in the span, and their bottom blocks are the Hermite form of the
    preimage.
    """
    if span.rows != m.rows:
        raise ValueError("shape mismatch")
    h, piv, top = _stacked_pass(m, span)
    return _wrap(m.cols, len(piv) - top, tuple(_flatten(c[m.rows:] for c in h[top:len(piv)])))


def smith_diagonal_uncached(rows: int, columns: Sequence[dict[int, int]]) -> tuple[int, ...]:
    """Diagonal of the Smith form of the rows x len(columns) matrix with
    the dict columns {row: entry}, without transforms.

    Units first: eliminate_units splits off u pivots of +-1 from the
    columns as they are, so the diagonal is u ones followed by that of
    the sparse remainder R, laid out dense here and nowhere else.  Then
    Hermite passes (Havas, Majewski and Matthews, Exp. Math. 1998): a
    column pass on R leaves its k = rank(R) echelon columns B, and column
    passes on the transpose of B, then of each k x k result, run until
    the block is diagonal, so that column and row passes alternate
    (Kannan and Bachem, SIAM J. Comput. 1979).
    Unimodular steps keep the diagonal; reducing R directly lets its
    entries swell.
    Last, gcd and lcm turn the diagonal into a divisibility chain:
    diag(a, b) and diag(gcd(a, b), lcm(a, b)) have the same Smith form.
    """
    u, rest, n_rows = _k.eliminate_units(columns, rows)
    dense = from_dict_columns(n_rows, rest).entries
    h, _, piv = _k.hermite_cols(dense, n_rows, len(rest))
    diag = (1,) * u + _echelon_diagonal(h[:len(piv)], n_rows)
    return diag + (0,) * (min(rows, len(columns)) - len(diag))


def echelon_smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal of m, one entry per column of its
    Hermite basis (so its length is the rank of m), read by row passes
    off that cached basis: no unit sweep and no second column pass run,
    and a lattice already in Hermite form takes a column pass that
    changes nothing."""
    h = _hermite_basis(m)[0]
    r = h.rows
    return _echelon_diagonal([h.entries[j * r:(j + 1) * r] for j in range(h.cols)], r)


def _echelon_diagonal(block: list[Sequence[int]], n: int) -> tuple[int, ...]:
    """The nonzero Smith diagonal of the k = len(block) independent
    echelon columns block, each of length n, as a divisibility chain."""
    k = len(block)
    while k:
        # the columns of the transpose are the rows of block; a full-rank
        # pass leaves k nonzero columns, each zero above its diagonal entry
        block = _k.hermite_cols(tuple(_flatten(zip(*block))), k, n)[0][:k]
        n = k
        if not any(any(c[j + 1:]) for j, c in enumerate(block)):
            break
    d = [c[j] for j, c in enumerate(block)]
    for i in range(k):
        for j in range(i + 1, k):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


# The primes of n are those up to TRIAL_DIVISION_BOUND and a last cofactor
# below its square.
TRIAL_DIVISION_BOUND = 1 << 12


def _prime_factors(n: int) -> list[tuple[int, int]] | None:
    """The pairs (p, v_p(n)) of n >= 1 by trial division up to
    TRIAL_DIVISION_BOUND, or None if a cofactor of at least its square
    is left unsplit."""
    out = []
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_BOUND:
            return None
        if n % d == 0:
            v = 0
            while n % d == 0:
                n //= d
                v += 1
            out.append((d, v))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def local_torsion(rows: int, columns: Sequence[dict[int, int]], n: int, k: int) -> tuple[int, ...]:
    """The invariant factors > 1 of the rows x len(columns) matrix with the
    dict columns {row: entry}, as a divisibility chain, given n >= 1 and
    k >= 0 such that n**k is a multiple of each of them.

    Nothing is reduced when n = 1.  Otherwise eliminate_units splits off
    the +-1 pivots, units at every prime, and each p | n takes one
    local_valuations sweep of the remainder R, kept in dict columns, over
    Z/p^e with e = k v_p(n) + 1.  No invariant factor > 1 of R has a
    valuation of e or more, so each sweep finds the valuations of all
    r = rank(R) nonzero ones: r is the length of the first prime's list,
    and a list of another length at a later prime means that n**k is no
    multiple of them, which raises AssertionError.  The i-th invariant
    factor is the product over p of p to the i-th smallest valuation.
    No Hermite pass and no gcd/lcm sweep run, and entries stay below p^e.
    When n does not split by trial division (a cofactor of at least
    TRIAL_DIVISION_BOUND squared is left), the factors are read off
    smith_diagonal_uncached instead.
    """
    if n == 1:
        return ()
    factors = _prime_factors(n)
    if factors is None:
        return tuple(d for d in smith_diagonal_uncached(rows, columns) if d > 1)
    _, rest, n_rows = _k.eliminate_units(columns, rows)
    if not rest:
        return ()
    diag = None
    for p, v in factors:
        vals = _k.local_valuations(rest, n_rows, p, k * v + 1)
        if diag is None:
            diag = [1] * len(vals)
        elif len(vals) != len(diag):
            raise AssertionError(f"{n}**{k} does not annihilate the torsion at {p}")
        for i, t in enumerate(vals):
            if t:
                diag[i] *= p ** t
    return tuple(d for d in diag if d > 1)


# Most hits are small relation matrices seen again within a few calls
# (PresentedGroup.canonical).  The differentials of derived values are
# large and rarely repeat; derived.homology_value reads them through
# local_torsion, whose fallback uses smith_diagonal_uncached, so they
# stay out of this cache, as do the sublattices of derived's
# presentations, read by echelon_smith_diagonal.
@functools.lru_cache(maxsize=256)
def smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """smith_diagonal_uncached of the columns of m, behind a 256-entry
    LRU cache."""
    return smith_diagonal_uncached(m.rows, dict_columns(m))


def clear_caches() -> None:
    column_echelon.cache_clear()
    _hermite_basis.cache_clear()
    smith_diagonal.cache_clear()
