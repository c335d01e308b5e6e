"""Finitely generated abelian groups as cokernels of integer matrices.

A PresentedGroup is Z^rank modulo the column span of its relation matrix;
a Hom is a generator matrix compatible with relations.  Kernels, images,
cokernels and subquotients all come down to integer solving against
relation lattices, so everything here is exact.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    IntMatrix,
    block_diag,
    column_basis,
    hstack,
    kron,
    preimage_basis,
    smith_diagonal,
    solve_matrix,
)


class ContainmentError(ValueError):
    """A claimed subgroup containment does not hold."""


class CanonicalForm(NamedTuple):
    """Complete isomorphism invariant: free rank plus invariant factors.

    torsion is the chain d1 | d2 | ... with every d >= 2.  Two presented
    groups are isomorphic exactly when their canonical forms are equal;
    as a NamedTuple, a form also equals the plain tuple of its fields.
    """

    free_rank: int
    torsion: Tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def exponent_divides(self, c: int) -> bool:
        """True when c annihilates the group (requires no free part)."""
        if self.free_rank:
            return False
        return all(c % d == 0 for d in self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
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


def canonical_form(g: PresentedGroup) -> CanonicalForm:
    return g.canonical


class Hom:
    """Homomorphism between presented groups, given on generators.

    matrix is target.rank x source.rank.  Well-definedness (every relator
    of the source lands in the relation span of the target) is verified at
    construction by integer solving.
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
            image = matrix @ source.relations
            if solve_matrix(target.relations, image) is None:
                raise ValueError("matrix does not respect relations (not well defined)")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, g: PresentedGroup) -> "Hom":
        return cls(g, g, IntMatrix.identity(g.rank), check=False)

    @classmethod
    def zero(cls, source: PresentedGroup, target: PresentedGroup) -> "Hom":
        return cls(source, target, IntMatrix.zeros(target.rank, source.rank), check=False)

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
        return _lands_in_relations(self.matrix - other.matrix, self.target)

    def __hash__(self) -> int:
        raise TypeError("Hom equality is semantic; not hashable")

    def is_zero(self) -> bool:
        return _lands_in_relations(self.matrix, self.target)

    def is_injective(self) -> bool:
        pre = preimage_basis(self.matrix, self.target.relations)
        return solve_matrix(self.source.relations, pre) is not None

    def is_surjective(self) -> bool:
        return cokernel(self)[0].canonical.is_trivial

    def __repr__(self) -> str:
        return f"Hom({self.source.canonical} -> {self.target.canonical})"


def _lands_in_relations(matrix: IntMatrix, target: PresentedGroup) -> bool:
    if matrix.cols == 0:
        return True
    return solve_matrix(target.relations, matrix) is not None


def kernel(f: Hom) -> Tuple[PresentedGroup, Hom]:
    """Kernel subgroup with its injective inclusion into the source.

    The generators are a lattice basis of {x : f(x) = 0 in the target},
    found by a block kernel computation; the relations are the source
    relations rewritten in those coordinates.
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

    Presented on K's generators with J's generators adjoined as relations;
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
    sys = hstack(g.matrix, f.target.relations)
    return solve_matrix(sys, f.matrix) is not None


def subgroup_contains(incl: Hom, vec: Sequence[int]) -> bool:
    """Does the image of incl contain the target element with these
    generator coordinates?"""
    col = IntMatrix.from_cols([list(vec)], rows=incl.target.rank)
    return solve_matrix(hstack(incl.matrix, incl.target.relations), col) is not None


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
