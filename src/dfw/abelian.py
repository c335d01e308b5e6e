"""Finitely generated abelian groups as cokernels of integer matrices.

A PresentedGroup is Z^rank modulo the column span of its relation matrix;
a Hom is a generator matrix compatible with relations.  Kernels, images,
cokernels and subquotients all come down to Hermite reductions of
relation lattices, so everything here is exact: kernels and images are
preimages (linalg.preimage_basis), containments are span tests
(linalg.span_contains), and only a subquotient solves for coordinates.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence, Tuple

from .linalg import (
    IntMatrix,
    block_diag,
    column_basis,
    hstack,
    kron,
    preimage_basis,
    smith_diagonal,
    solve_matrix,
    span_contains,
)


_tuple_new = tuple.__new__


class ContainmentError(ValueError):
    """A claimed subgroup containment does not hold."""


class CanonicalForm(tuple):
    """Complete isomorphism invariant: free rank plus invariant factors.

    torsion is the chain d1 | d2 | ... with every d >= 2.  Two presented
    groups are isomorphic exactly when their canonical forms are equal.
    A form is the tuple (free_rank, torsion) with named fields, so it
    also equals, and hashes like, that plain tuple.  The class is written
    out rather than generated as a named tuple, which would compile its
    source at import.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: Tuple[int, ...]) -> CanonicalForm:
        return _tuple_new(cls, (free_rank, torsion))

    free_rank = property(itemgetter(0), doc="The rank of the free part.")
    torsion = property(itemgetter(1), doc="The invariant factors d1 | d2 | ...")

    def __getnewargs__(self) -> Tuple[int, Tuple[int, ...]]:
        """copy and pickle rebuild a form from its two fields."""
        return tuple(self)

    @property
    def is_trivial(self) -> bool:
        return self[0] == 0 and not self[1]

    def __repr__(self) -> str:
        return "CanonicalForm(free_rank=%r, torsion=%r)" % self

    def __str__(self) -> str:
        free_rank = self[0]
        parts = []
        if free_rank == 1:
            parts.append("Z")
        elif free_rank > 1:
            parts.append(f"Z^{free_rank}")
        parts.extend(f"Z/{d}" for d in self[1])
        return " + ".join(parts) if parts else "0"


class PresentedGroup:
    """Z^rank modulo the column span of an integer relation matrix."""

    __slots__ = ("rank", "relations", "_canonical")

    def __init__(self, rank: int, relations: IntMatrix):
        if relations.rows != rank:
            raise ValueError(
                f"relation matrix has {relations.rows} rows for rank {rank}"
            )
        self.rank = rank
        self.relations = relations
        self._canonical: Optional[CanonicalForm] = None

    @classmethod
    def free(cls, rank: int) -> "PresentedGroup":
        return cls(rank, IntMatrix.zeros(rank, 0))

    @classmethod
    def trivial(cls) -> "PresentedGroup":
        return cls.free(0)

    @classmethod
    def cyclic(cls, n: int) -> "PresentedGroup":
        if n < 1:
            raise ValueError("cyclic order must be >= 1")
        return cls(1, IntMatrix.from_rows([[n]]))

    @classmethod
    def from_invariants(cls, free_rank: int, torsion: Sequence[int] = ()) -> "PresentedGroup":
        """Z^free_rank + Z/d for d in torsion.  When torsion is already a
        chain d1 | d2 | ... of entries >= 2, the canonical form is recorded
        as it is; any other torsion is reduced when first asked for."""
        rank = free_rank + len(torsion)
        cols = []
        for i, d in enumerate(torsion):
            col = [0] * rank
            col[i] = d
            cols.append(col)
        g = cls(rank, IntMatrix.from_cols(cols, rows=rank))
        torsion = tuple(torsion)
        if all(d >= 2 for d in torsion) and all(
                b % a == 0 for a, b in zip(torsion, torsion[1:])):
            g._canonical = CanonicalForm(free_rank, torsion)
        return g

    @property
    def canonical(self) -> CanonicalForm:
        if self._canonical is None:
            diag = smith_diagonal(self.relations)
            nonzero = [d for d in diag if d]
            self._canonical = CanonicalForm(
                free_rank=self.rank - len(nonzero),
                torsion=tuple(d for d in nonzero if d > 1),
            )
        return self._canonical

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresentedGroup)
            and self.rank == other.rank
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.relations))

    def __repr__(self) -> str:
        return f"PresentedGroup(rank={self.rank}, canonical={self.canonical})"


class Hom:
    """Homomorphism between presented groups, given on generators.

    matrix is target.rank x source.rank.  Well-definedness (every relator
    of the source lands in the relation span of the target) is verified at
    construction by reducing the images against the Hermite form of the
    target's relations.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedGroup, target: PresentedGroup,
                 matrix: IntMatrix, check: bool = True):
        if matrix.rows != target.rank or matrix.cols != source.rank:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.rank}x{source.rank}"
            )
        if check and source.relations.cols:
            if not span_contains(target.relations, matrix @ source.relations):
                raise ValueError("matrix does not respect relations (not well defined)")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __matmul__(self, other: "Hom") -> "Hom":
        """Composition self(other(x)); other.target must equal self.source."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return Hom(other.source, self.target, self.matrix @ other.matrix, check=False)

    def __eq__(self, other) -> bool:
        """Equal as maps between the same presentations."""
        if not isinstance(other, Hom):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return span_contains(self.target.relations, self.matrix - other.matrix)

    def __hash__(self) -> int:
        raise TypeError("Hom equality is semantic; not hashable")

    def is_zero(self) -> bool:
        return span_contains(self.target.relations, self.matrix)

    def is_surjective(self) -> bool:
        return cokernel(self)[0].canonical.is_trivial

    def __repr__(self) -> str:
        return f"Hom({self.source.canonical} -> {self.target.canonical})"


def kernel(f: Hom) -> Tuple[PresentedGroup, Hom]:
    """Kernel subgroup with its injective inclusion into the source.

    The generators are the Hermite basis of {x : f(x) = 0 in the target};
    the relations are the Hermite basis of {y : gens @ y is a source
    relation}, the source relations rewritten in those coordinates.
    Each is one preimage_basis pass, without transform.
    """
    gens = preimage_basis(f.matrix, f.target.relations)
    rels = preimage_basis(gens, f.source.relations)
    k = PresentedGroup(gens.cols, rels)
    return k, Hom(k, f.source, gens, check=False)


def cokernel(f: Hom) -> Tuple[PresentedGroup, Hom]:
    """Target modulo the image, with the projection homomorphism."""
    c = PresentedGroup(f.target.rank, hstack(f.target.relations, f.matrix))
    return c, Hom(f.target, c, IntMatrix.identity(f.target.rank), check=False)


def image(f: Hom) -> Tuple[PresentedGroup, Hom, Hom]:
    """Image subgroup with the factorization source ->> image >-> target."""
    rels = preimage_basis(f.matrix, f.target.relations)
    img = PresentedGroup(f.source.rank, rels)
    epi = Hom(f.source, img, IntMatrix.identity(f.source.rank), check=False)
    mono = Hom(img, f.target, f.matrix, check=False)
    return img, epi, mono


def subquotient(k: Hom, j: Hom) -> PresentedGroup:
    """K/J for subgroups j: J >-> A and k: K >-> A with J contained in K.

    j may be any map into A: J is its image.  Presented on K's generators
    with J's generators adjoined as relations;
    raises ContainmentError when some generator of J is not in K.
    """
    if k.target != j.target:
        raise ValueError("subgroups of different ambient groups")
    amb = k.target
    sol = solve_matrix(hstack(k.matrix, amb.relations), j.matrix)
    if sol is None:
        raise ContainmentError("second subgroup is not contained in the first")
    coords = sol.top_rows(k.source.rank)
    return PresentedGroup(k.source.rank, hstack(k.source.relations, coords))


def subgroup_leq(f: Hom, g: Hom) -> bool:
    """Is the image of f contained in the image of g (same target)?"""
    if f.target != g.target:
        raise ValueError("subgroups of different ambient groups")
    return span_contains(hstack(g.matrix, f.target.relations), f.matrix)


def direct_sum(*groups: PresentedGroup) -> PresentedGroup:
    if not groups:
        return PresentedGroup.trivial()
    return PresentedGroup(
        sum(g.rank for g in groups),
        block_diag(*(g.relations for g in groups)),
    )


def tensor(a: PresentedGroup, b: PresentedGroup) -> PresentedGroup:
    """a (x) b on pair generators; relations from either factor."""
    rels = hstack(
        kron(a.relations, IntMatrix.identity(b.rank)),
        kron(IntMatrix.identity(a.rank), b.relations),
    )
    return PresentedGroup(a.rank * b.rank, rels)


def purified_relations(g: PresentedGroup) -> IntMatrix:
    """Independent-column (echelon) basis of the relation lattice."""
    return column_basis(g.relations)
