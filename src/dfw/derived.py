"""Derived-functor values computed from explicit small complexes.

Every derived value here is H1 of a three-term free complex
C2 -> C1 -> C0:

* L1SP^m of Q/U from the Koszul-type complex of functors.koszul_sp;
* Tor of two quotients from the total complex of their 2-term
  resolutions (tor_complex);
* L2Ls3 of Q/U, the kernel of 𝓛³(Q)/𝓛³(U) -> ((Q(x)Q)/(U(x)U)) (x) Q, from
  the mapping cone of the chain map between the two presentations, reduced
  by the unit pivots of the Lie embedding (superlie3_cone): its terms are
  Z^lie(s) -> Z^(s²r) -> Z^(r³ - lie(r)), no Lie coordinates are solved
  for, and its d o d check is the well-definedness of the map.

The three builders (functors.koszul_sp, tor_complex, superlie3_cone)
write each differential as dict columns {row: entry} straight from the
nonzero entries of the sublattices.  Those columns are the complex:
FreeComplex checks d o d = 0 exactly on them, and homology_value hands
d2's columns to linalg.local_torsion as they are, so no value builds a
dense differential.

One routine, homology_value, reads H1 off such a complex from the Smith
form of d2 alone: since ker d1 is saturated,
H1 = Z^(c1 - rk d1 - rk d2) + tors(coker d2), and every complex built
here is exact at C1 after tensoring with the rationals (derived functors
commute with that flat base change and vanish on vector spaces), so the
free part is 0 and H1 = tors(coker d2).  e^k kills H1 for a functor of
degree k, with e the exponent of tors(Q/U) (Presentation.exponent, the
last entry of the Smith diagonal that checks U's independence;
homology_value gives the argument), so the invariant factors > 1 of d2
are read in one sweep over Z/p^(k v_p(e) + 1) for each prime p | e,
with entries below that modulus, and e = 1 gives 0 without a reduction.
No rank, no kernel basis, no solve and no Hermite pass, which is where
exact entries used to swell.  It computes every value (l1_sp, tor,
l2_superlie3) and the cokernels of induced maps that theorems 3.1 and
3.2 compare with: induced_cokernel reads coker H1(f) of a chain map
f: C -> D as H1 of D with the columns of f1 of a kernel basis of C's d1
added to the boundaries, killed by the power of D's e that kills H1(D).
Those chain maps read the witness of a NestedPresentation, the inner
lattice in coordinates of the outer one's Hermite basis, which back
substitution gives (linalg.coordinates) without a solve.  The tests
hold homology_value against the cycle path (a kernel basis of d1 with
the boundaries solved against it), which only they keep.  No
presentation is normalized first, so presentation-independence checks
compare two independent computations.

Sign conventions are fixed here once: writing i for the inclusion of a
sublattice into its ambient lattice, the Tor differential is
d(v (x) w) = (-v (x) i(w), i(v) (x) w) and the comparison map into the
Koszul complex uses psi2(v (x) w) = -(v ∧ w), read off
functors.ext_relations as its negative.  With these choices every chain
square commutes exactly; induced_cokernel verifies that on each call.
The comparison maps and the suites of dfw.theorems read the two maps of
Λ²(U) -> U (x) Q -> SP²(Q) from functors.koszul_sp, which fixes their
basis order; on the identity lattice they come from
functors.identity_koszul_sp2, built once per rank.
"""

from math import gcd

from .abelian import Hom, PresentedGroup, kernel, purified_relations
from .functors import (
    FreeComplex,
    basis,
    ext_relations,
    identity_koszul_sp2,
    induced_map,
    koszul_sp,
    lie3_columns,
    lie3_defect,
    sym_relations,
)
from .linalg import (
    IntMatrix,
    column_basis,
    coordinates,
    dict_columns,
    echelon_smith_diagonal,
    hstack,
    kernel_basis,
    kron,
    local_torsion,
)


def _exponent(lattice: IntMatrix, name: str) -> int:
    """The exponent of tors(Z^rows / span), the last entry of the
    lattice's nonzero Smith diagonal (echelon_smith_diagonal, row passes
    on its cached Hermite basis), or 1 if that is empty; ValueError
    unless it has one entry per column."""
    diag = echelon_smith_diagonal(lattice)
    if len(diag) < lattice.cols:
        raise ValueError(f"{name} columns must be independent")
    return diag[-1] if diag else 1


class Presentation:
    """A quotient of a free lattice: Q = Z^ambient_rank modulo the span of
    the independent columns of `sublattice`, with e = exponent, the
    exponent of tors(Q) (see homology_value).  Two presentations are equal when their ranks
    and sublattice matrices are."""

    __slots__ = ("ambient_rank", "sublattice", "exponent")

    def __init__(self, ambient_rank: int, sublattice: IntMatrix):
        if sublattice.rows != ambient_rank:
            raise ValueError("sublattice must live in the ambient lattice")
        self.exponent = _exponent(sublattice, "sublattice")
        self.ambient_rank = ambient_rank
        self.sublattice = sublattice

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.sublattice == other.sublattice

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.sublattice))

    @classmethod
    def from_group(cls, g: PresentedGroup) -> "Presentation":
        return cls(g.rank, purified_relations(g))

    def quotient(self) -> PresentedGroup:
        return PresentedGroup(self.ambient_rank, self.sublattice)

    def to_dict(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "sublattice": [self.sublattice.col_list(j) for j in range(self.sublattice.cols)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Presentation":
        return cls(
            data["ambient_rank"],
            IntMatrix.from_cols(data["sublattice"], rows=data["ambient_rank"]),
        )


class NestedPresentation:
    """Sublattices inner <= outer of a common ambient lattice, each given
    by independent columns; outer is kept as its Hermite basis, and
    outer @ witness == inner.  outer_exponent is e of the outer one."""

    __slots__ = ("ambient_rank", "inner", "outer", "witness", "outer_exponent")

    def __init__(self, ambient_rank: int, inner: IntMatrix, outer: IntMatrix):
        if inner.rows != ambient_rank or outer.rows != ambient_rank:
            raise ValueError("lattices must live in the ambient lattice")
        _exponent(inner, "inner")
        self.outer_exponent = _exponent(outer, "outer")
        witness = coordinates(outer, inner)
        if witness is None:
            raise ValueError("inner lattice is not contained in the outer one")
        self.ambient_rank = ambient_rank
        self.inner = inner
        self.outer = column_basis(outer)
        self.witness = witness

    def middle_group(self) -> PresentedGroup:
        """outer/inner, presented on the outer generators."""
        return PresentedGroup(self.outer.cols, self.witness)

    def to_dict(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "inner": [self.inner.col_list(j) for j in range(self.inner.cols)],
            "outer": [self.outer.col_list(j) for j in range(self.outer.cols)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NestedPresentation":
        r = data["ambient_rank"]
        return cls(
            r,
            IntMatrix.from_cols(data["inner"], rows=r),
            IntMatrix.from_cols(data["outer"], rows=r),
        )


def homology_value(cx: FreeComplex, torsion: int, degree: int) -> PresentedGroup:
    """H1 of a three-term complex as a group in invariant-factor form,
    from the Smith form of d2 alone, read locally at the primes of
    torsion.

    Preconditions: cx is exact at C1 after tensoring with the rationals,
    so H1 is a torsion group, and torsion**degree kills H1, for a
    positive integer torsion.  Since ker d1 is saturated,
    H1 = Z^f + tors(coker d2) with f = c1 - rk d1 - rk d2; the first
    precondition says f = 0, so H1 is read off the invariant factors > 1
    of d2 and rank(d1) is never computed.  Every complex of this module
    meets it: koszul_sp, tor_complex and superlie3_cone compute a derived
    functor L_i (i >= 1), which commutes with the flat base change to the
    rationals (Dold and Puppe, 1961) and vanishes on vector spaces; for
    the cone, rationally a Lie element lying in U (x) U (x) Q lies in
    𝓛³(U).  induced_cokernel passes a complex whose H1 is a quotient of
    the torsion H1 of its target.

    The second holds with torsion = e, the exponent of tors(A), A = Q/U,
    and degree the degree k of a homogeneous functor F.  e id_A factors
    through the free group A/tors(A), as the projection times e followed
    by a splitting of it, and L_i F (i >= 1) vanishes on free groups, so
    L_i F(e id_A) = 0.  But F(e f) = e^k F(f) on each term of a
    simplicial resolution, so L_i F(e id_A) is multiplication by e^k.
    So e^k kills L_i F(A).  The callers pass e (Presentation.exponent)
    with k = m for l1_sp(m, .) and k = 3 for l2_superlie3; for tor, the
    gcd of the two exponents with k = 1, since Tor is additive in each
    argument, so either exponent kills it; for an induced cokernel, a
    quotient of L1SP^2(Q/V), the exponent e_V of its target with k = 2.
    linalg.local_torsion then sweeps d2 once over Z/p^(k v_p(e) + 1) for
    each prime p | e, which finds every invariant factor > 1 and so
    needs no rank; torsion = 1 gives 0 at once.
    """
    return PresentedGroup.from_invariants(
        0, local_torsion(cx.terms[1], cx.columns[1], torsion, degree))


def induced_cokernel(src: FreeComplex, dst: FreeComplex,
                     chain: tuple[IntMatrix, IntMatrix, IntMatrix], torsion: int,
                     degree: int) -> PresentedGroup:
    """Cokernel of the map H1(src) -> H1(dst) induced by the chain map
    chain = (f0, f1, f2), in invariant-factor form; torsion**degree
    kills H1(dst).

    coker H1(f) = Z1(dst) / (B1(dst) + f1 Z1(src)) is H1 of
    dst2 (+) Z^k --[d2 | f1 K]--> dst1 --d1--> dst0, K a kernel basis of
    src's d1, and its d o d check is f1 sending cycles to cycles.  Both
    chain squares are verified exactly; AssertionError if one fails."""
    f0, f1, f2 = chain
    (s1, s2), (d1, d2) = src.differentials, dst.differentials
    if d1 @ f1 != f0 @ s1:
        raise AssertionError("degree-1 chain square does not commute")
    if d2 @ f2 != f1 @ s2:
        raise AssertionError("degree-2 chain square does not commute")
    d2_aug = [*dst.columns[1], *dict_columns(f1 @ kernel_basis(s1))]
    return homology_value(FreeComplex((d1.rows, d1.cols, len(d2_aug)), (dst.columns[0], d2_aug)),
                          torsion, degree)


def l1_sp(m: int, p: Presentation) -> PresentedGroup:
    """First derived functor of the m-th symmetric power of the quotient,
    as the middle homology of the Koszul-type complex."""
    return homology_value(koszul_sp(m, p.sublattice), p.exponent, m)


def sp2_bottom_row(p: Presentation) -> tuple[Hom, Hom, Hom]:
    """The four-term sequence
    0 -> L1SP^2(Q/U) -> Λ²(Q)/Λ²(U) -> Q/U (x) Q -> SP^2(Q/U) -> 0
    as three Homs (inclusion, wedge-to-tensor, multiplication).  The last
    two are d2 and d1 of identity_koszul_sp2(r)."""
    u = p.sublattice
    r = p.ambient_rank
    wedge_mod = PresentedGroup(basis("ext", 2, r).size, induced_map("ext", 2, u))
    quot_tensor = PresentedGroup(r * r, kron(u, IntMatrix.identity(r)))
    sp2 = PresentedGroup(basis("sym", 2, r).size, sym_relations(2, u))
    mult, wedge = identity_koszul_sp2(r).differentials
    beta = Hom(wedge_mod, quot_tensor, wedge)
    gamma = Hom(quot_tensor, sp2, mult)
    ker_group, alpha = kernel(beta)
    return alpha, beta, gamma


def superlie3_cone(p: Presentation) -> FreeComplex:
    """Mapping cone of the chain map (W, M) from the presentation R_A of
    𝓛³(Q)/𝓛³(U) to the presentation R_B of ((Q(x)Q)/(U(x)U)) (x) Q, reduced
    along the unit pivots of M = emb(r), the embedding of the Lie cube
    whose columns are functors.lie3_columns(r):

        Z^lie(s) --W--> Z^(s²r) --K R_B--> Z^(r³ - lie(r))

    with R_B = (u (x) u) (x) I, W = (I_{s²} (x) u) emb(s) and K the map
    whose columns are functors.lie3_defect(r).

    The unreduced cone has d1 = [M | R_B] and d2 = (R_A; -W).  Changing the
    basis of Z^{r³} to (Lie coordinates, K) turns M into (I; 0); cancelling
    that identity block leaves the complex above, with the same H1.  R_B
    has independent columns, so the long exact sequence of the cone makes
    H1 the kernel of the induced map.  The d o d check of FreeComplex is
    K R_B W = 0: R_B W = (u (x) u (x) u) emb(s) lies in the Lie lattice,
    which is the well-definedness of the map (R_A, the Lie coordinates of
    R_B W, is never built).

    Both differentials are built as dict columns from the nonzero entries
    of u and the sparse columns of K and emb(s), without the r³ x s²r
    matrix R_B: column (a, b, c) of K R_B is K applied to
    u_a (x) u_b (x) e_c, and the column of W for a Lyndon word of Z^s
    sends each word (a, b, c) of its bracket to e_a (x) e_b (x) u_c.
    """
    u = p.sublattice
    r, s = u.rows, u.cols
    k_cols = lie3_defect(r)
    support = [list(c.items()) for c in dict_columns(u)]
    d1 = []
    for a in range(s):
        for b in range(s):
            pairs = [((i * r + j) * r, x * y) for i, x in support[a] for j, y in support[b]]
            for c in range(r):
                col = {}
                for base, xy in pairs:
                    for row, v in k_cols[base + c]:
                        col[row] = col.get(row, 0) + xy * v
                d1.append(col)
    w = []
    for entries in lie3_columns(s):
        col = {}
        for t, coeff in entries:
            ab, c = divmod(t, s)  # word t = (a, b, c), row block a*s + b
            for i, v in support[c]:
                row = ab * r + i
                col[row] = col.get(row, 0) + coeff * v
        w.append(col)
    return FreeComplex((r**3 - len(lie3_columns(r)), s * s * r, len(w)), (d1, w))


def l2_superlie3(p: Presentation) -> PresentedGroup:
    """Second derived functor of the super-Lie cube of the quotient."""
    return homology_value(superlie3_cone(p), p.exponent, 3)


def tor_complex(ua: IntMatrix, ub: IntMatrix) -> FreeComplex:
    """Total complex of (U_a -> Q_a) (x) (U_b -> Q_b); H_1 is Tor.

    As for koszul_sp, independent columns are a precondition that the
    callers' Presentation or NestedPresentation checked.
    d1 = [u_a (x) I | I (x) u_b] and d2 = (-I (x) u_b; u_a (x) I), built as
    dict columns from the nonzero entries of u_a and u_b."""
    ra, rb = ua.rows, ub.rows
    sa, sb = ua.cols, ub.cols
    a_cols = [list(c.items()) for c in dict_columns(ua)]
    b_cols = [list(c.items()) for c in dict_columns(ub)]
    d1 = [{i * rb + jb: v for i, v in a} for a in a_cols for jb in range(rb)]
    d1 += [{ia * rb + k: v for k, v in b} for ia in range(ra) for b in b_cols]
    top = sa * rb  # rows of U_a (x) Q_b, above those of Q_a (x) U_b
    d2 = []
    for ja, a in enumerate(a_cols):
        for jb, b in enumerate(b_cols):
            col = {ja * rb + k: -v for k, v in b}
            for i, v in a:
                col[top + i * sb + jb] = v
            d2.append(col)
    return FreeComplex((ra * rb, sa * rb + ra * sb, sa * sb), (d1, d2))


def tor(pa: Presentation, pb: Presentation) -> PresentedGroup:
    """Classical torsion product of the two quotients."""
    torsion = gcd(pa.exponent, pb.exponent)
    return homology_value(tor_complex(pa.sublattice, pb.sublattice), torsion, 1)


def coker_induced_l1_sp2(np: NestedPresentation, dst: FreeComplex) -> PresentedGroup:
    """Cokernel of the map L1SP^2(Q/U) -> L1SP^2(Q/V) induced by U <= V
    through the chain map (id, U(x)Q -> V(x)Q, Λ²U -> Λ²V); dst is
    koszul_sp(2, np.outer)."""
    src, f = koszul_sp(2, np.inner), np.witness
    chain = (IntMatrix.identity(dst.terms[0]), kron(f, IntMatrix.identity(np.ambient_rank)),
             induced_map("ext", 2, f))
    return induced_cokernel(src, dst, chain, np.outer_exponent, 2)


def _tor_koszul_chain_map(np: NestedPresentation):
    """Chain map from the Tor complex of (V -> Q) (x) (U -> Q) to the
    Koszul complex of V <= Q, already composed with the second-slot
    comparison U -> V.

    psi0 multiplies Q (x) Q onto SP^2(Q), d1 of identity_koszul_sp2(r);
    psi1 sends v (x) q to itself and q (x) w to F(w) (x) q; psi2 sends
    v (x) w to -(v ∧ F(w)), minus the relations of Λ²(V/U) with their
    columns reordered.
    """
    r = np.ambient_rank
    sv, su = np.outer.cols, np.inner.cols
    psi0 = identity_koszul_sp2(r).differentials[0]
    # F (x) I_r sends w (x) q to F(w) (x) q; reorder its columns from
    # U (x) Q to the Q (x) U of the Tor complex
    q_then_u = [k * r + j for j in range(r) for k in range(su)]
    swapped = kron(np.witness, IntMatrix.identity(r)).select_columns(q_then_u)
    psi1 = hstack(IntMatrix.identity(sv * r), swapped)
    # column k * sv + i of ext_relations(2, F) is v_i ∧ F(w_k); reorder
    # its columns from U (x) V to the V (x) U of the Tor complex
    v_then_u = [k * sv + i for i in range(sv) for k in range(su)]
    psi2 = -ext_relations(2, np.witness).select_columns(v_then_u)
    return psi0, psi1, psi2


def coker_tor_to_l1_sp2(np: NestedPresentation) -> PresentedGroup:
    """Cokernel of the composite comparison map
    Tor(E/I, E) -> Tor(E/I, E/I) -> L1SP^2(E/I) for E = Q/U and I = V/U
    given by nested sublattices U <= V."""
    src = tor_complex(np.outer, np.inner)
    return induced_cokernel(src, koszul_sp(2, np.outer), _tor_koszul_chain_map(np),
                            np.outer_exponent, 2)
