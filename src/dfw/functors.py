"""Polynomial functors on free lattices and their values on presented groups.

Supported functor kinds (with the degree bounds the rest of the package
needs): tensor powers, symmetric powers SP^n for n <= 5, exterior powers
for n <= 3, and the degree-3 free Lie functor with its Lyndon-bracket
basis.  Induced maps of symmetric and exterior powers are given in the
indexed bases below; the Koszul-type three-term complex built here is the
engine behind the derived functors.
Its rows are read off per-rank letter tables, cached like the bases: for
each monomial of SP^d(Z^r), the indices of its r products with a letter
in the basis of SP^{d+1}(Z^r).  A FreeComplex stores each differential
as sparse columns, dicts {row: entry}, checks d o d = 0 on them and lays
them out as dense matrices only when asked for its differentials.

The Lie cube splits off the tensor cube without any reduction: the
standard bracketing of a Lyndon word w expands to w plus lexicographically
greater words, so the Lyndon rows of the embedding of the Lie cube (the
columns lie3_columns(r)) form a lower unitriangular block.  lie3_defect(r)
inverts that block by substitution and returns the columns of the map K
onto the non-Lyndon word coordinates that vanishes exactly on the Lie
lattice; the L2Ls3 cone of dfw.derived reads Lie membership off K.

Basis orderings are lexicographic throughout: words for tensor powers,
non-decreasing tuples (monomials) for symmetric powers, strictly
increasing tuples for exterior powers, and Lyndon words of length 3 with
standard-factorization bracketing for the Lie cube.  For product bases
like U (x) SP^k(Q), the U index is the major coordinate.
"""

import functools
import itertools
from bisect import insort
from collections.abc import Sequence

from .abelian import PresentedGroup, purified_relations
from .linalg import IntMatrix, dict_columns, from_dict_columns, hstack, kron

SYM_MAX_DEGREE = 5
EXT_MAX_DEGREE = 3
TENSOR_MAX_DEGREE = 6


def _check_degree(kind: str, degree: int) -> None:
    if kind == "sym":
        if not 0 <= degree <= SYM_MAX_DEGREE:
            raise ValueError(f"symmetric power degree {degree} out of range 0..{SYM_MAX_DEGREE}")
    elif kind == "ext":
        if not 0 <= degree <= EXT_MAX_DEGREE:
            raise ValueError(f"exterior power degree {degree} out of range 0..{EXT_MAX_DEGREE}")
    elif kind == "tensor":
        if not 0 <= degree <= TENSOR_MAX_DEGREE:
            raise ValueError(f"tensor power degree {degree} out of range 0..{TENSOR_MAX_DEGREE}")
    elif kind == "lie3":
        if degree != 3:
            raise ValueError("the Lie functor is supported in degree 3 only")
    else:
        raise ValueError(f"unknown functor kind {kind!r}")


def is_lyndon(word: tuple[int, ...]) -> bool:
    """Strictly smaller than all of its proper rotations."""
    n = len(word)
    for s in range(1, n):
        if word >= word[s:] + word[:s]:
            return False
    return True


class FunctorBasis:
    """Indexed basis of a polynomial functor of a free lattice."""

    def __init__(self, kind: str, degree: int, source_rank: int,
                 elements: tuple[tuple[int, ...], ...]):
        self.kind = kind
        self.degree = degree
        self.source_rank = source_rank
        self.elements = elements

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {t: i for i, t in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def rank_of(self, t: Sequence[int]) -> int:
        return self.index[tuple(t)]


@functools.lru_cache(maxsize=None)
def basis(kind: str, degree: int, source_rank: int) -> FunctorBasis:
    _check_degree(kind, degree)
    letters = range(source_rank)
    if kind == "tensor":
        elems = tuple(itertools.product(letters, repeat=degree))
    elif kind == "sym":
        elems = tuple(itertools.combinations_with_replacement(letters, degree))
    elif kind == "ext":
        elems = tuple(itertools.combinations(letters, degree))
    else:
        elems = tuple(
            w for w in itertools.product(letters, repeat=3) if is_lyndon(w)
        )
    return FunctorBasis(kind, degree, source_rank, elems)


def _standard_bracketing(word: tuple[int, ...]):
    """Nested-pair bracketing of a Lyndon word by standard factorization
    (the longest proper Lyndon suffix is the right factor)."""
    if len(word) == 1:
        return word[0]
    for s in range(1, len(word)):
        if is_lyndon(word[s:]):
            return (_standard_bracketing(word[:s]), _standard_bracketing(word[s:]))
    raise AssertionError(f"{word} is not Lyndon")


def _expand_bracket(tree) -> dict[tuple[int, ...], int]:
    """Commutator expansion of a bracket tree in the tensor algebra."""
    if isinstance(tree, int):
        return {(tree,): 1}
    left = _expand_bracket(tree[0])
    right = _expand_bracket(tree[1])
    out: dict[tuple[int, ...], int] = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            out[wl + wr] = out.get(wl + wr, 0) + cl * cr
            out[wr + wl] = out.get(wr + wl, 0) - cl * cr
    return {w: c for w, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def lie3_columns(source_rank: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The inclusion of the degree-3 free Lie lattice into the tensor cube,
    as the nonzero entries (word index, coefficient) of its columns: one
    Lyndon bracket each, expanded into the word basis; e.g. for rank 2 the
    bracket of the word xxy is [x,[x,y]] = xxy - 2 xyx + yxx."""
    cube = basis("tensor", 3, source_rank)
    return tuple(
        tuple(
            (cube.rank_of(word), c)
            for word, c in _expand_bracket(_standard_bracketing(w)).items()
        )
        for w in basis("lie3", 3, source_rank).elements
    )


@functools.lru_cache(maxsize=None)
def lie3_defect(source_rank: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The columns of K: Z^{r³} -> Z^{r³ - lie(r)}, as the nonzero entries
    (row, value) of each, one column per word of the tensor cube.

    With Z^{r³} = 𝓛³(Z^r) ⊕ Z^{non-Lyndon words}, K sends x to the
    non-Lyndon word coordinates of x minus its Lie part, the Lie element
    with the same Lyndon word coordinates as x.  K is the identity on the
    non-Lyndon coordinates, and K x = 0 exactly when x lies in the Lie
    lattice.  The Lie parts come from the sparse columns of the embedding
    alone: the inverse of its Lyndon block by forward substitution, no
    Hermite reduction."""
    columns = lie3_columns(source_rank)
    cube = basis("tensor", 3, source_rank)
    lyndon = {cube.rank_of(w): c for c, w in enumerate(basis("lie3", 3, source_rank).elements)}
    other = {t: k for k, t in enumerate(t for t in range(cube.size) if t not in lyndon)}
    defect: list[tuple[tuple[int, int], ...]] = [
        ((other[t], 1),) if t in other else () for t in range(cube.size)
    ]
    for t, c in lyndon.items():
        # y = column c of the inverse Lyndon block, so that emb @ y is the
        # Lie element with Lyndon coordinates e_c; column t of K is minus
        # its non-Lyndon part.  res holds the Lyndon coordinates of
        # e_c - emb @ y, cleared from the smallest index up.
        minus_z: dict[int, int] = {}
        res = {c: 1}
        while res:
            j = min(res)
            q = res.pop(j)
            if not q:
                continue
            for word, v in columns[j]:
                i = lyndon.get(word)
                if i is None:
                    k = other[word]
                    minus_z[k] = minus_z.get(k, 0) - q * v
                elif i != j:
                    res[i] = res.get(i, 0) - q * v
        defect[t] = tuple((k, v) for k, v in minus_z.items() if v)
    return tuple(defect)


def _sym_times_letter(mono: tuple[int, ...], j: int) -> tuple[int, ...]:
    out = list(mono)
    insort(out, j)
    return tuple(out)


def _wedge_insert(combo: tuple[int, ...], j: int):
    """Insert a letter into a strictly increasing tuple; returns
    (tuple, sign) or None when the letter repeats."""
    if j in combo:
        return None
    out = list(combo)
    pos = 0
    while pos < len(out) and out[pos] < j:
        pos += 1
    out.insert(pos, j)
    sign = -1 if (len(combo) - pos) % 2 else 1
    return tuple(out), sign


def induced_map(kind: str, degree: int, f: IntMatrix) -> IntMatrix:
    """Matrix of the symmetric or exterior power of f: Z^cols -> Z^rows,
    in the indexed bases.  Functorial: identity to identity, composition
    to product."""
    if kind not in ("sym", "ext"):
        raise ValueError(f"induced maps are built for 'sym' and 'ext', not {kind!r}")
    _check_degree(kind, degree)
    src = basis(kind, degree, f.cols)
    dst = basis(kind, degree, f.rows)
    cols = []
    for elem in src.elements:
        acc: dict[tuple[int, ...], int] = {(): 1}
        for letter in elem:
            nxt: dict[tuple[int, ...], int] = {}
            for partial, coeff in acc.items():
                for j in range(f.rows):
                    v = f.entry(j, letter)
                    if not v:
                        continue
                    if kind == "sym":
                        key = _sym_times_letter(partial, j)
                        nxt[key] = nxt.get(key, 0) + coeff * v
                    else:
                        ins = _wedge_insert(partial, j)
                        if ins is None:
                            continue
                        key, sign = ins
                        nxt[key] = nxt.get(key, 0) + sign * coeff * v
            acc = nxt
        col = [0] * dst.size
        for key, coeff in acc.items():
            if coeff:
                col[dst.rank_of(key)] = coeff
        cols.append(col)
    return IntMatrix.from_cols(cols, rows=dst.size)


class FreeComplex:
    """Bounded chain complex of free lattices; terms[k] is the rank of the
    degree-k term and columns[k - 1], the differential from degree k to
    degree k - 1, holds terms[k] dicts {row: entry}, one per column.

    The columns are the only stored form: the builders write them from
    the nonzero entries of the sublattices, and the local Smith form of
    derived.homology_value reads them as they are.  The constructor
    checks the column counts and d o d = 0 exactly on the columns: each
    column of a composite is summed over the nonzero entries alone, and
    the check stops at the first column that is not zero.  differentials
    lays the matrices out dense, once, for callers that work on groups.

    The checks keep the method name __post_init__, under which the
    benchmark's span functors.complex_check.s times them."""

    def __init__(self, terms: tuple[int, ...], columns: tuple[Sequence[dict[int, int]], ...]):
        self.terms = terms
        self.columns = columns
        self.__post_init__()

    def __post_init__(self):
        if len(self.columns) != len(self.terms) - 1:
            raise ValueError("need one differential per adjacent pair of terms")
        for k, cols in enumerate(self.columns):
            if len(cols) != self.terms[k + 1]:
                raise ValueError(f"differential {k + 1} has {len(cols)} columns, "
                                 f"not {self.terms[k + 1]}")
        for k in range(len(self.columns) - 1):
            low, n = self.columns[k], self.terms[k]
            for col in self.columns[k + 1]:
                acc = [0] * n
                for t, w in col.items():
                    for i, v in low[t].items():
                        acc[i] += v * w
                if any(acc):
                    raise ValueError("d o d is nonzero")

    @functools.cached_property
    def differentials(self) -> tuple[IntMatrix, ...]:
        """The differentials as dense matrices; differentials[k - 1] maps
        degree k to degree k - 1."""
        return tuple(from_dict_columns(self.terms[k], c) for k, c in enumerate(self.columns))


@functools.lru_cache(maxsize=None)
def _sym_letter_table(degree: int, source_rank: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication by a letter, SP^degree(Z^r) -> SP^{degree+1}(Z^r), as
    row indices: entry j of tuple i is the index of mono_i·x_j in
    basis("sym", degree + 1, r), one tuple per monomial in basis order."""
    index = basis("sym", degree + 1, source_rank).index
    letters = range(source_rank)
    return tuple(
        tuple(index[_sym_times_letter(mono, j)] for j in letters)
        for mono in basis("sym", degree, source_rank).elements
    )


def _sym_d1_columns(m: int, support: list[list[tuple[int, int]]], r: int) -> list[dict[int, int]]:
    """The columns of d1: U (x) SP^{m-1}(Q) -> SP^m(Q), u_i (x) mono to
    u_i·mono, from the nonzero entries (j, u_ji) of each u_i."""
    table = _sym_letter_table(m - 1, r)
    return [{row[j]: v for j, v in sup} for sup in support for row in table]


def koszul_sp(m: int, u: IntMatrix) -> FreeComplex:
    """Three-term complex  Λ²(U) (x) SP^{m-2}(Q) -> U (x) SP^{m-1}(Q) -> SP^m(Q)
    for a sublattice U of Q = Z^rows given by independent columns.

    The independence is a precondition, not checked here.  Every caller
    passes a lattice that was checked already: l1_sp that
    of a derived.Presentation, the cokernels of induced maps and
    theorems.thm_3_1_instance those of a derived.NestedPresentation (its
    outer lattice for the suite), and identity_koszul_sp2 the identity
    lattice.

    d1 multiplies a sublattice vector into the monomial; d2 sends
    (u ∧ v) (x) s to u (x) (v·s) - v (x) (u·s).  Its middle homology is the
    first derived functor of SP^m of the quotient.  The middle term is
    ordered with the U index major, the top term by the pairs a < b of
    Λ²(U), each followed by the monomials of SP^{m-2}(Q).  The columns
    are built as dicts from the nonzero entries of the sublattice vectors,
    with rows read off the per-rank letter tables _sym_letter_table(m - 1)
    for d1 and _sym_letter_table(m - 2) for d2; no two terms of a column
    meet in one row, since distinct letters times one monomial are
    distinct monomials.
    """
    if m < 2:
        raise ValueError("need degree m >= 2")
    r, s = u.rows, u.cols
    n = basis("sym", m - 1, r).size
    # the nonzero entries (j, u_ji) of each sublattice vector u_i
    support = [list(c.items()) for c in dict_columns(u)]
    d1 = _sym_d1_columns(m, support, r)
    d2 = []
    table = _sym_letter_table(m - 2, r)
    for (a, b) in basis("ext", 2, s).elements:
        sup_a, sup_b, off_a, off_b = support[a], support[b], a * n, b * n
        for row in table:
            col = {off_a + row[j]: v for j, v in sup_b}
            for j, v in sup_a:
                col[off_b + row[j]] = -v
            d2.append(col)
    return FreeComplex((basis("sym", m, r).size, s * n, len(d2)), (d1, d2))


@functools.lru_cache(maxsize=None)
def identity_koszul_sp2(source_rank: int) -> FreeComplex:
    """koszul_sp(2, I_r), built once per rank: its d2 and d1 are the
    wedge-to-tensor and multiplication maps Λ²(Q) -> Q (x) Q -> SP²(Q)
    of Q = Z^r itself."""
    return koszul_sp(2, IntMatrix.identity(source_rank))


def sym_relations(n: int, u: IntMatrix) -> IntMatrix:
    """Relation columns presenting SP^n(Q/U) on the SP^n(Q) basis: d1 of
    koszul_sp(n, u), written alone, without d2 or the d o d check."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return u
    support = [list(c.items()) for c in dict_columns(u)]
    return from_dict_columns(basis("sym", n, u.rows).size, _sym_d1_columns(n, support, u.rows))


def ext_relations(n: int, u: IntMatrix) -> IntMatrix:
    """Relation columns presenting Λ^n(Q/U): the image of U ∧ Λ^{n-1}(Q)."""
    r, s = u.rows, u.cols
    top = basis("ext", n, r)
    low = basis("ext", n - 1, r)
    cols = []
    for i in range(s):
        for combo in low.elements:
            col = [0] * top.size
            for j in range(r):
                v = u.entry(j, i)
                if v:
                    ins = _wedge_insert(combo, j)
                    if ins is not None:
                        key, sign = ins
                        col[top.rank_of(key)] += sign * v
            cols.append(col)
    return IntMatrix.from_cols(cols, rows=top.size)


def _superlie3_relation_columns(p: int) -> list[list[int]]:
    """Columns imposing {a,b,c} = {b,a,c} and vanishing cyclic sums on the
    tensor-cube basis of a rank-p group."""
    cube = basis("tensor", 3, p)
    cols = []
    for (i, j, k) in cube.elements:
        if i < j:
            col = [0] * cube.size
            col[cube.rank_of((i, j, k))] += 1
            col[cube.rank_of((j, i, k))] -= 1
            cols.append(col)
    for w in cube.elements:
        rots = [w, (w[2], w[0], w[1]), (w[1], w[2], w[0])]
        if w == min(rots):
            col = [0] * cube.size
            for rot in rots:
                col[cube.rank_of(rot)] += 1
            cols.append(col)
    return cols


def functor_on_group(kind: str, degree: int, a: PresentedGroup) -> PresentedGroup:
    """Value of the functor on a presented group.

    sym/ext values are cokernel presentations on the free-lattice basis of
    the generators; superlie3 imposes the symmetric and cyclic bracket
    relation families on the tensor cube (it is never given a free basis).
    """
    if kind == "superlie3":
        u = purified_relations(a)
        p = a.rank
        cube = basis("tensor", 3, p)
        ident = IntMatrix.identity(p)
        slot_rels = []
        if u.cols:
            slot_rels = [
                kron(kron(u, ident), ident),
                kron(kron(ident, u), ident),
                kron(kron(ident, ident), u),
            ]
        bracket_rels = IntMatrix.from_cols(
            _superlie3_relation_columns(p), rows=cube.size
        )
        return PresentedGroup(cube.size, hstack(*slot_rels, bracket_rels))
    _check_degree(kind, degree)
    u = purified_relations(a)
    if kind == "sym":
        return PresentedGroup(basis("sym", degree, a.rank).size, sym_relations(degree, u))
    if kind == "ext":
        return PresentedGroup(basis("ext", degree, a.rank).size, ext_relations(degree, u))
    raise ValueError(f"unsupported functor kind {kind!r} on groups")
