import math
import random
from pathlib import Path

import pytest
from sympy import ZZ, Matrix, isprime
from sympy.matrices.normalforms import invariant_factors

from dfw import _kernels, derived, linalg
from dfw.abelian import CanonicalForm, Hom, PresentedGroup, cokernel, direct_sum, kernel
from dfw.cli import load_relations
from dfw.derived import (
    NestedPresentation,
    Presentation,
    _tor_koszul_chain_map,
    coker_induced_l1_sp2,
    coker_tor_to_l1_sp2,
    homology_value,
    induced_cokernel,
    l1_sp,
    l2_superlie3,
    sp2_bottom_row,
    superlie3_cone,
    tor,
    tor_complex,
)
from dfw.functors import FreeComplex, induced_map, koszul_sp
from dfw.linalg import (
    TRIAL_DIVISION_BOUND,
    IntMatrix,
    _prime_factors as prime_factors,
    column_basis,
    column_echelon,
    dict_columns,
    hstack,
    kernel_basis,
    kron,
    local_torsion,
    smith_diagonal,
    smith_diagonal_uncached,
    solve_matrix,
)
from dfw.theorems import _DERIVED_OPS, random_matrix, scrambled_presentation
from test_abelian import is_injective
from test_functors import lie3_defect_matrix, lie3_embedding


def pres(rank, cols):
    g = PresentedGroup(rank, IntMatrix.from_cols(cols, rows=rank))
    return Presentation.from_group(g)


def random_presentation(rng, max_rank=4, max_entry=6):
    r = rng.randint(1, max_rank)
    k = rng.randint(0, r + 1)
    return Presentation(r, column_basis(random_matrix(rng, r, k, max_entry)))


def random_nested(rng, max_rank=4, max_entry=6):
    r = rng.randint(1, max_rank)
    kv = rng.randint(0, r)
    outer = column_basis(random_matrix(rng, r, kv, max_entry))
    ku = rng.randint(0, outer.cols + 1)
    mix = random_matrix(rng, outer.cols, ku, 2)
    inner = column_basis(outer @ mix)
    return NestedPresentation.build(r, inner, outer)


def closed_form_l1sp2(g: PresentedGroup) -> CanonicalForm:
    """Independent oracle: direct sum of Z/gcd(d_i, d_j) over pairs of
    invariant factors (cross-effect formula plus rank-one vanishing)."""
    tors = g.canonical.torsion
    parts = [
        PresentedGroup.cyclic(math.gcd(a, b))
        for i, a in enumerate(tors)
        for b in tors[i + 1:]
    ]
    return direct_sum(*parts).canonical


class TestL1SP:
    def test_cyclic_vanishes(self):
        for n in (2, 3, 5, 12):
            assert l1_sp(2, pres(1, [[n]])).canonical.is_trivial

    def test_tor_cross_effect_value(self):
        p = pres(2, [[2, 0], [0, 4]])
        # cross-effect oracle: equals Tor(Z/2, Z/4) = Z/2
        assert l1_sp(2, p).canonical == CanonicalForm(0, (2,))

    def test_degree_three_cyclic_vanishes(self):
        assert l1_sp(3, pres(1, [[2]])).canonical.is_trivial

    def test_free_quotient_vanishes(self):
        p = Presentation(3, IntMatrix.zeros(3, 0))
        for m in (2, 3, 4):
            assert l1_sp(m, p).canonical.is_trivial

    def test_closed_form_oracle_random(self):
        rng = random.Random(314)
        for _ in range(60):
            p = random_presentation(rng)
            assert l1_sp(2, p).canonical == closed_form_l1sp2(p.quotient())


class TestKernelForm:
    def test_matches_koszul_form_random(self):
        rng = random.Random(2718)
        for _ in range(50):
            p = random_presentation(rng)
            assert sp2_bottom_row(p)[0].source.canonical == l1_sp(2, p).canonical

    def test_rank_one_and_free(self):
        assert sp2_bottom_row(pres(1, [[7]]))[0].source.canonical.is_trivial
        assert sp2_bottom_row(Presentation(2, IntMatrix.zeros(2, 0)))[0].source.canonical.is_trivial

    def test_bottom_row_composes_to_zero(self):
        p = pres(2, [[2, 0], [0, 4]])
        alpha, beta, gamma = sp2_bottom_row(p)
        assert (beta @ alpha).is_zero()
        assert (gamma @ beta).is_zero()
        assert gamma.is_surjective()
        assert is_injective(alpha)


class TestSharedMatrices:
    def test_identity_inclusion(self):
        # Z^2: e0∧e1 -> e0(x)e1 - e1(x)e0; e_i(x)e_j -> x_i x_j on x0², x0x1, x1²
        mult, wedge_to_tensor = koszul_sp(2, IntMatrix.identity(2)).differentials
        assert wedge_to_tensor == IntMatrix.from_cols([[0, 1, -1, 0]], rows=4)
        assert mult == IntMatrix.from_cols(
            [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], rows=3)

    def test_against_koszul_and_naturality(self):
        # the degree-2 Koszul differentials of an independent v factor
        # through those of the identity lattice: (I (x) v) after the wedge
        # map, multiplication after (v (x) I)
        rng = random.Random(77)
        for _ in range(20):
            r = rng.randint(1, 5)
            k = rng.randint(0, r)
            v = column_basis(random_matrix(rng, r, k, 3))
            s = v.cols
            mult, wedge_to_tensor = koszul_sp(2, v).differentials
            wedge_s = koszul_sp(2, IntMatrix.identity(s)).differentials[1]
            mult_r = koszul_sp(2, IntMatrix.identity(r)).differentials[0]
            assert wedge_to_tensor == kron(IntMatrix.identity(s), v) @ wedge_s
            assert mult == mult_r @ kron(v, IntMatrix.identity(r))


class TestL2SuperLie3:
    def test_cyclic_vanishes(self):
        for n in (2, 3, 4):
            assert l2_superlie3(pres(1, [[n]])).canonical.is_trivial

    def test_free_vanishes(self):
        assert l2_superlie3(Presentation(3, IntMatrix.zeros(3, 0))).canonical.is_trivial

    def test_presentation_independence_two_by_two(self):
        p2 = pres(2, [[2, 0], [0, 2]])
        # same group on three generators: add e3 with defining relation e3 = e1 + e2
        p3 = pres(3, [[2, 0, 0], [0, 2, 0], [-1, -1, 1]])
        assert p3.quotient().canonical == p2.quotient().canonical
        a = l2_superlie3(p2).canonical
        b = l2_superlie3(p3).canonical
        assert a == b
        # frozen value, sanctioned by the presentation-independence oracle
        assert a == CanonicalForm(0, (2, 2))

    def test_inclusion_injective_and_composite_zero(self):
        rng = random.Random(808)
        for _ in range(15):
            p = random_presentation(rng, 3)
            group, incl, h = superlie3_kernel_data(p)
            assert is_injective(incl)
            assert (h @ incl).is_zero()


def unreduced_superlie3_cone(p):
    """The mapping cone before the Lyndon pivots are cancelled:
    d1 = [M | R_B], d2 = (R_A; -W)."""
    from test_builders import vstack  # test_builders imports this module

    u, s = p.sublattice, p.sublattice.cols
    r_a, r_b, m = superlie3_maps(p)
    w = kron(IntMatrix.identity(s * s), u) @ lie3_embedding(s)
    return FreeComplex(
        terms=(m.rows, m.cols + r_b.cols, w.cols),
        columns=(dict_columns(hstack(m, r_b)), dict_columns(vstack(r_a, -w))),
    )


def scrambled_cyclic_sums(count, max_rank=6):
    """Seeded scrambled presentations of sums of Z, Z/2, Z/3, Z/4, Z/6, Z/8
    and Z/12 with 0-2 redundant generators, of ambient rank <= max_rank."""
    out = []
    for i in range(count):
        rng = random.Random(f"l2ls3-oracle:{i}")
        parts = rng.randint(1, 4)
        orders = [rng.choice((0, 2, 3, 4, 6, 8, 12)) for _ in range(parts)]
        g = direct_sum(*(
            PresentedGroup.free(1) if n == 0 else PresentedGroup.cyclic(n) for n in orders
        ))
        extra = rng.randint(0, min(2, max_rank - g.rank))
        out.append(scrambled_presentation(rng, g, extra))
    return out


class TestReducedSuperLie3Cone:
    def test_value_matches_the_unreduced_cone(self):
        nontrivial = 0
        ranks = set()
        for p in scrambled_cyclic_sums(60):
            ranks.add(p.ambient_rank)
            value = l2_superlie3(p).canonical
            unreduced = homology_value(unreduced_superlie3_cone(p), p.torsion_order, 3)
            assert value == unreduced.canonical, p.to_dict()
            nontrivial += not value.is_trivial
        assert max(ranks) == 6
        assert nontrivial >= 30

    def test_differentials_are_the_dense_products(self):
        rng = random.Random(4242)
        for _ in range(12):
            p = random_presentation(rng, 5)
            u, r, s = p.sublattice, p.ambient_rank, p.sublattice.cols
            d1, d2 = superlie3_cone(p).differentials
            assert d1 == lie3_defect_matrix(r) @ kron(kron(u, u), IntMatrix.identity(r))
            assert d2 == kron(IntMatrix.identity(s * s), u) @ lie3_embedding(s)

    @pytest.mark.parametrize(
        "invariants, expected",
        [((2, 4), "Z/2 + Z/2"), ((2, 2, 2), " + ".join(["Z/2"] * 8))],
    )
    def test_pinned_values(self, invariants, expected):
        p = Presentation.from_group(PresentedGroup.from_invariants(0, invariants))
        assert str(l2_superlie3(p).canonical) == expected
        assert str(homology_value(unreduced_superlie3_cone(p), p.torsion_order, 3).canonical) == expected


class TestTor:
    def test_gcd_oracle(self):
        t = tor(pres(1, [[4]]), pres(1, [[6]]))
        assert t.canonical == CanonicalForm(0, (math.gcd(4, 6),))

    def test_free_argument_vanishes(self):
        free = Presentation(2, IntMatrix.zeros(2, 0))
        rng = random.Random(1)
        for _ in range(10):
            assert tor(free, random_presentation(rng, 3)).canonical.is_trivial

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_presentation(rng, 3)
            b = random_presentation(rng, 3)
            assert tor(a, b).canonical == tor(b, a).canonical

    def test_tor_matches_invariant_factor_oracle(self):
        # Tor(A, B) = sum of Z/gcd(d_i, e_j) over invariant factor pairs
        rng = random.Random(88)
        for _ in range(30):
            a = random_presentation(rng, 3)
            b = random_presentation(rng, 3)
            expected = direct_sum(
                *(
                    PresentedGroup.cyclic(math.gcd(d, e))
                    for d in a.quotient().canonical.torsion
                    for e in b.quotient().canonical.torsion
                )
            ).canonical
            assert tor(a, b).canonical == expected


def coker_thm31(np):
    """coker_induced_l1_sp2 with the Koszul complex of np.outer."""
    return coker_induced_l1_sp2(np, koszul_sp(2, np.outer))


def l1_sp2_chain(np):
    """The complexes and chain map of coker_induced_l1_sp2, built apart."""
    src, dst = koszul_sp(2, np.inner), koszul_sp(2, np.outer)
    f = np.witness
    chain = (IntMatrix.identity(dst.terms[0]), kron(f, IntMatrix.identity(np.ambient_rank)),
             induced_map("ext", 2, f))
    return src, dst, chain


def tor_chain(np):
    """The complexes and chain map of coker_tor_to_l1_sp2."""
    src = tor_complex(np.outer, np.inner)
    return src, koszul_sp(2, np.outer), _tor_koszul_chain_map(np)


def cycle_path_cokernel(src, dst, chain):
    """coker H1(f) the old way: kernel bases of both d1, boundaries solved
    against them, the mapped cycles solved again, a checked Hom and its
    abelian.cokernel."""
    def presented(cx):
        cycles = kernel_basis(cx.differentials[0])
        return cycles, PresentedGroup(cycles.cols, solve_matrix(cycles, cx.differentials[1]))

    src_cycles, src_group = presented(src)
    dst_cycles, dst_group = presented(dst)
    coords = solve_matrix(dst_cycles, chain[1] @ src_cycles)
    return cokernel(Hom(src_group, dst_group, coords))[0]


def rich_nested(rng, max_rank=5):
    """Outer lattice a scrambled presentation of a sum of Z/2..Z/12 and
    possibly Z; inner = outer @ mix, so that many cokernels are nontrivial."""
    orders = sorted(rng.randint(2, 12) for _ in range(rng.randint(1, 3)))
    g = PresentedGroup.from_invariants(rng.randint(0, 1), orders)
    extra = rng.randint(0, min(1, max_rank - g.rank))
    outer = scrambled_presentation(rng, g, extra).sublattice
    mix = random_matrix(rng, outer.cols, rng.randint(0, outer.cols), 3)
    return NestedPresentation.build(outer.rows, column_basis(outer @ mix), outer)


def nested_instances():
    """Seeded nested presentations: 80 as the thm31/thm32 suites draw
    them (ambient rank <= 4 and <= 5) and 100 of the rich family."""
    out = [random_nested(random.Random(f"coker:{i}"), 4 + i % 2) for i in range(80)]
    return out + [rich_nested(random.Random(f"coker-rich:{i}")) for i in range(100)]


class TestInducedMaps:
    def test_against_cycle_path(self):
        nontrivial = {"thm31": 0, "thm32": 0}
        for np in nested_instances():
            for name, coker, chain in (("thm31", coker_thm31, l1_sp2_chain),
                                       ("thm32", coker_tor_to_l1_sp2, tor_chain)):
                value = coker(np).canonical
                assert value == cycle_path_cokernel(*chain(np)).canonical, (name, np.to_dict())
                nontrivial[name] += not value.is_trivial
        assert nontrivial["thm31"] >= 20 and nontrivial["thm32"] >= 10

    @pytest.mark.parametrize("chain", [l1_sp2_chain, tor_chain])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_perturbed_square_raises(self, chain, degree):
        outer = IntMatrix.from_cols([[2, 0, 0], [1, 3, 0]], rows=3)
        np = NestedPresentation.build(3, column_basis(outer @ IntMatrix.from_rows([[2, 0], [1, 2]])), outer)
        src, dst, maps = chain(np)
        induced_cokernel(src, dst, maps, np.outer_torsion_order, 2)  # the chain map itself passes
        broken = list(maps)
        f = maps[degree]  # f0, f1 or f2, with one entry bumped
        broken[degree] = IntMatrix(f.rows, f.cols, (f.entries[0] + 1,) + f.entries[1:])
        # f0 and f1 meet in the degree-1 square
        with pytest.raises(AssertionError, match=f"degree-{max(degree, 1)} chain square"):
            induced_cokernel(src, dst, tuple(broken), np.outer_torsion_order, 2)

    def test_chain_squares_random(self):
        # both cokernels verify their chain squares internally
        rng = random.Random(909)
        for _ in range(25):
            np = random_nested(rng)
            coker_tor_to_l1_sp2(np)
            coker_thm31(np)

    def test_equal_lattices_give_identity(self):
        # the induced map is the identity of L1SP^2(Z/2 + Z/4) = Z/2, so
        # its cokernel is trivial
        u = column_basis(IntMatrix.from_cols([[2, 0], [2, 4]], rows=2))
        np = NestedPresentation.build(2, u, u)
        assert l1_sp(2, Presentation(np.ambient_rank, np.inner)).canonical == CanonicalForm(0, (2,))
        assert coker_thm31(np).canonical.is_trivial

    def test_full_outer_gives_zero_into_trivial(self):
        u = IntMatrix.from_cols([[2, 0], [0, 2]], rows=2)
        np = NestedPresentation.build(2, u, IntMatrix.identity(2))
        assert l1_sp(2, Presentation(np.ambient_rank, np.inner)).canonical == CanonicalForm(0, (2,))
        assert l1_sp(2, Presentation(np.ambient_rank, np.outer)).canonical.is_trivial
        assert coker_thm31(np).canonical.is_trivial

    def test_zero_inner_gives_target(self):
        # U = 0: the source L1SP^2(Z^2) vanishes, so the cokernel is all of
        # L1SP^2(Z/2 + Z/2) = Z/2
        outer = IntMatrix.from_cols([[2, 0], [0, 2]], rows=2)
        np = NestedPresentation.build(2, IntMatrix.zeros(2, 0), outer)
        assert coker_thm31(np).canonical == CanonicalForm(0, (2,))

    def test_tor_comparison_cyclic_target_is_zero(self):
        # E/I = Z^2 / [(2,0),(0,1)] is cyclic, so the target vanishes
        outer = IntMatrix.from_cols([[2, 0], [0, 1]], rows=2)
        inner = column_basis(outer @ IntMatrix.from_rows([[2, 0], [0, 2]]))
        np = NestedPresentation.build(2, inner, outer)
        assert l1_sp(2, Presentation(np.ambient_rank, np.outer)).canonical.is_trivial
        assert coker_tor_to_l1_sp2(np).canonical.is_trivial

    def test_tor_comparison_diagonal_surjective(self):
        # I = 0: Tor(E, E) = (Z/2)^4 -> L1SP^2(E) = Z/2 for E = Z/2 + Z/2
        # is onto, so its cokernel is trivial
        p = pres(2, [[2, 0], [0, 2]])
        np = NestedPresentation.build(2, p.sublattice, p.sublattice)
        assert tor(p, p).canonical == CanonicalForm(0, (2, 2, 2, 2))
        assert l1_sp(2, p).canonical == CanonicalForm(0, (2,))
        assert coker_tor_to_l1_sp2(np).canonical.is_trivial

    def test_exponent_shadow_for_l1sp2(self):
        rng = random.Random(55)
        for _ in range(40):
            c = rng.randint(1, 12)
            divisors = [d for d in range(2, c + 1) if c % d == 0]
            parts = [rng.choice(divisors) for _ in range(rng.randint(0, 3))] if divisors else []
            g = direct_sum(*(PresentedGroup.cyclic(d) for d in parts))
            value = l1_sp(2, Presentation.from_group(g)).canonical
            assert not value.free_rank and all(c % d == 0 for d in value.torsion)


class TestPresentationObjects:
    def test_dependent_columns_rejected(self):
        # neither lattice is in Hermite form, so its independence is read
        # off a column pass that changes it
        for cols in ([[1, 0], [2, 0]], [[2, 3, 1], [4, 6, 2], [0, 1, 5]]):
            m = IntMatrix.from_cols(cols, rows=len(cols[0]))
            assert column_basis(m) != m
            with pytest.raises(ValueError, match="^sublattice columns must be independent$"):
                Presentation(m.rows, m)

    def test_nested_requires_containment(self):
        with pytest.raises(ValueError):
            NestedPresentation.build(
                1,
                IntMatrix.from_rows([[3]]),
                IntMatrix.from_rows([[2]]),
            )

    def test_nested_dependent_columns_rejected(self):
        # outer/inner is 0, but a witness over dependent outer columns
        # would present it as Z
        col = IntMatrix.from_cols([[1, 0]], rows=2)
        with pytest.raises(ValueError, match="outer columns must be independent"):
            NestedPresentation(2, col, IntMatrix.from_cols([[1, 0], [1, 0]], rows=2),
                               IntMatrix.from_cols([[1, 0]], rows=2))
        with pytest.raises(ValueError, match="inner columns must be independent"):
            NestedPresentation.build(2, IntMatrix.from_cols([[1, 0], [2, 0]], rows=2), col)

    def test_independence_and_order_against_oracles(self):
        # one Smith pass per lattice decides independence and gives N:
        # held against the echelon rank and sympy's invariant factors on
        # dependent, zero-column, wide (more columns than rows) and random
        # lattices
        rng = random.Random("one-pass-check")
        rejected = accepted = with_torsion = 0
        for n in range(200):
            r = rng.randint(0, 5)
            if n % 4 == 0:
                c = rng.randint(1, 4)
                k = rng.randint(0, c - 1)
                m = random_matrix(rng, r, k, 4) @ random_matrix(rng, k, c, 4)
            elif n % 4 == 1:
                base = random_matrix(rng, r, rng.randint(0, r), 6)
                cols = [base.col_list(j) for j in range(base.cols)]
                cols.insert(rng.randint(0, len(cols)), [0] * r)
                m = IntMatrix.from_cols(cols, rows=r)
            elif n % 4 == 2:
                r = rng.randint(0, 3)
                m = random_matrix(rng, r, r + rng.randint(1, 2), 6)
            else:
                m = random_matrix(rng, r, rng.randint(0, r), 6)
            dependent = column_echelon(m).rank != m.cols
            order = 0 if dependent else sympy_order(m)
            slots = [
                (lambda: Presentation(r, m).torsion_order, "sublattice", order),
                (lambda: NestedPresentation(r, m, IntMatrix.identity(r), m).outer_torsion_order,
                 "inner", 1),
                (lambda: NestedPresentation(r, IntMatrix.zeros(r, 0), m,
                                            IntMatrix.zeros(m.cols, 0)).outer_torsion_order,
                 "outer", order),
            ]
            for build, name, expected in slots:
                if dependent:
                    with pytest.raises(ValueError, match=f"^{name} columns must be independent$"):
                        build()
                else:
                    assert build() == expected, (name, m)
            rejected += dependent
            accepted += not dependent
            with_torsion += order > 1
        assert rejected >= 150 and accepted >= 40 and with_torsion >= 15

    def test_round_trip_serialization(self):
        rng = random.Random(3)
        for _ in range(10):
            np = random_nested(rng)
            again = NestedPresentation.from_dict(np.to_dict())
            assert again.inner == np.inner and again.outer == np.outer
            p = random_presentation(rng)
            assert Presentation.from_dict(p.to_dict()) == p
            assert hash(Presentation.from_dict(p.to_dict())) == hash(p)

    def test_presentation_equality(self):
        p = pres(2, [[2, 0], [0, 3]])
        assert p == pres(2, [[2, 0], [0, 3]]) and len({p, pres(2, [[2, 0], [0, 3]])}) == 1
        assert p != pres(2, [[2, 0], [0, 5]]) and p != pres(3, [[2, 0, 0], [0, 3, 0]])
        assert p != (2, p.sublattice)

    def test_tor_complex_shapes(self):
        a = pres(2, [[2, 0], [0, 3]])
        b = pres(1, [[4]])
        cx = tor_complex(a.sublattice, b.sublattice)
        assert cx.terms == (2, 2 + 2, 2)


def middle_homology(cx):
    """H1 of a three-term complex by the cycle path: presented on a kernel
    basis of d1, with the boundaries solved against it.  The reference for
    homology_value, independent of its Smith diagonal."""
    d1, d2 = cx.differentials
    cycles = kernel_basis(d1)
    boundaries = solve_matrix(cycles, d2)
    if boundaries is None:
        raise AssertionError("boundaries are not cycles; differentials are inconsistent")
    return PresentedGroup(cycles.cols, boundaries)


def superlie3_maps(p):
    """(R_A, R_B, M): the relations of 𝓛³(Q)/𝓛³(U) on the Lyndon basis,
    those of ((Q(x)Q)/(U(x)U)) (x) Q on the word basis, and the embedding
    of the Lie cube between the two free lattices.  R_A holds the Lie
    coordinates of the bracket expansions of the sublattice, solved
    against the embedding."""
    u, r, s = p.sublattice, p.ambient_rank, p.sublattice.cols
    m = lie3_embedding(r)
    r_a = solve_matrix(m, kron(kron(u, u), u) @ lie3_embedding(s))
    return r_a, kron(kron(u, u), IntMatrix.identity(r)), m


def superlie3_kernel_data(p):
    """Kernel of  𝓛³(Q)/𝓛³(U) -> ((Q(x)Q)/(U(x)U)) (x) Q  together with its
    inclusion and the defining map: the cycle path of l2_superlie3.

    Well-definedness rests on bracket expansions of the sublattice staying
    inside U (x) U (x) Q, which the Hom constructor verifies by solving.
    """
    r_a, r_b, m = superlie3_maps(p)
    h = Hom(PresentedGroup(r_a.rows, r_a), PresentedGroup(r_b.rows, r_b), m)
    ker_group, incl = kernel(h)
    return ker_group, incl, h


def cycle_path_value(name, p):
    """The value of one of theorems._DERIVED_OPS by the cycle path: kernel
    basis of d1, boundaries solved against it."""
    if name == "l2_superlie3":
        return superlie3_kernel_data(p)[0]
    if name == "tor":
        return middle_homology(tor_complex(p.sublattice, p.sublattice))
    degree = {"l1_sp2": 2, "l1_sp3": 3, "l1_sp4": 4}[name]
    return middle_homology(koszul_sp(degree, p.sublattice))


def scrambled_instances(count, max_rank=6):
    """Seeded scrambled presentations of ambient rank <= max_rank.  Even
    instances are random relation matrices as presindep draws them; odd
    ones are sums of small cyclic groups and Z, so that many values are
    nontrivial."""
    out = []
    for i in range(count):
        rng = random.Random(f"value-vs-cycle:{i}")
        if i % 2 == 0:
            r = rng.randint(1, max_rank - 1)
            g = PresentedGroup(r, random_matrix(rng, r, rng.randint(0, r + 1), 6))
        else:
            orders = [rng.choice((2, 3, 4, 6, 8, 12)) for _ in range(rng.randint(1, 3))]
            free = rng.randint(0, 1)
            g = PresentedGroup.from_invariants(free, sorted(orders))
        extra = rng.randint(0, min(2, max_rank - g.rank))
        out.append(scrambled_presentation(rng, g, extra))
    return out


class TestValuePathAgainstCyclePath:
    def test_all_derived_ops_agree(self):
        nontrivial = 0
        ranks = set()
        for p in scrambled_instances(16):
            ranks.add(p.ambient_rank)
            for name, op in _DERIVED_OPS:
                value = op(p).canonical
                assert value == cycle_path_value(name, p).canonical, (name, p.to_dict())
                nontrivial += not value.is_trivial
        assert max(ranks) == 6
        assert nontrivial >= 10


def nested_over(p, rng):
    """U <= V with V the sublattice of p and U = V @ mix."""
    outer = p.sublattice
    mix = random_matrix(rng, outer.cols, rng.randint(0, outer.cols), 3)
    return NestedPresentation.build(p.ambient_rank, column_basis(outer @ mix), outer)


def every_value(p, q, np):
    """Every derived value that homology_value reads: L1SP^m (m = 2, 3,
    and 4 at ambient rank <= 4), L2Ls3, Tor of two different
    presentations, and both induced cokernels."""
    degrees = (2, 3, 4) if p.ambient_rank <= 4 else (2, 3)
    values = [l1_sp(m, p) for m in degrees]
    values += [l2_superlie3(p), tor(p, q), coker_thm31(np), coker_tor_to_l1_sp2(np)]
    return values


def smith_torsion(cx):
    """The invariant factors > 1 of d2 by smith_diagonal_uncached."""
    return tuple(d for d in smith_diagonal_uncached(cx.terms[1], cx.columns[1]) if d > 1)


def sympy_order(m):
    """|tors(Z^rows / span)| of a lattice of independent columns, by
    sympy."""
    if not m.cols:
        return 1
    sm = Matrix(m.rows, m.cols, [e for row in m.to_rows() for e in row])
    return math.prod(int(abs(d)) for d in invariant_factors(sm, domain=ZZ))


def sympy_torsion(cx):
    """The invariant factors > 1 of d2 by sympy."""
    d2 = cx.differentials[1]
    m = Matrix(d2.rows, d2.cols, [e for row in d2.to_rows() for e in row])
    return tuple(sorted(int(abs(d)) for d in invariant_factors(m, domain=ZZ) if abs(d) > 1))


@pytest.fixture(scope="module")
def received():
    """Every (complex, torsion, degree) that homology_value receives
    while every_value runs on 120 scrambled presentations up to rank 6,
    each with its value, and the instances with their counts of
    presentations with a free quotient and of nontrivial values."""
    seen = []
    read = derived.homology_value

    def recording(cx, torsion, degree):
        value = read(cx, torsion, degree)
        seen.append((cx, torsion, degree, value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derived, "homology_value", recording)
        instances = scrambled_instances(120)
        with_free = nontrivial = 0
        for i, p in enumerate(instances):
            q = instances[(i + 1) % len(instances)]
            values = every_value(p, q, nested_over(p, random.Random(f"torsion-oracle-nested:{i}")))
            with_free += p.quotient().canonical.free_rank > 0
            nontrivial += sum(not v.canonical.is_trivial for v in values)
    return instances, seen, with_free, nontrivial


class TestTorsionPrecondition:
    """homology_value reads H1 as tors(coker d2), which needs every
    complex it is given to be exact at C1 after tensoring with the
    rationals: rank(d1) + rank(d2) == c1.  It reads tors(coker d2) in one
    sweep per prime of the torsion order N it is given, which needs every
    invariant factor > 1 of d2 to divide N**degree."""

    def test_every_complex_is_rationally_exact(self, received):
        instances, seen, with_free, nontrivial = received
        for cx, _, _, _ in seen:
            d1, d2 = cx.differentials
            assert column_echelon(d1).rank + column_echelon(d2).rank == cx.terms[1], cx.terms
        assert max(p.ambient_rank for p in instances) == 6
        assert with_free >= 60 and nontrivial >= 200
        assert len(seen) >= 6 * len(instances)

    def test_primes_of_the_torsion_divide_n(self, received):
        _, seen, _, _ = received
        for cx, n, degree, value in seen:
            factors = smith_torsion(cx)
            # so every prime of them divides n
            assert all(n**degree % d == 0 for d in factors), (cx.terms, n, degree, factors)
            assert value.canonical.torsion == factors
        assert sum(n == 1 for _, n, _, _ in seen) >= 300
        assert sum(len(prime_factors(n)) >= 2 for _, n, _, _ in seen) >= 250
        assert {degree for _, _, degree, _ in seen} == {1, 2, 3, 4}

    def test_local_path_against_sympy(self, received):
        # sympy on every complex whose d2 has at most 3000 entries; the
        # larger ones are held against smith_diagonal_uncached above
        _, seen, _, _ = received
        checked = 0
        for cx, n, degree, _ in seen:
            if cx.terms[1] * cx.terms[2] <= 3000:
                local = local_torsion(cx.terms[1], cx.columns[1], n, degree)
                assert local == sympy_torsion(cx), cx.terms
                checked += 1
        assert checked >= 700

    def test_dropping_a_prime_from_n_changes_values(self, received):
        # the mutant passes N without its smallest prime
        _, seen, _, _ = received
        changed = 0
        for cx, n, degree, value in seen:
            if n > 1:
                p, v = prime_factors(n)[0]
                changed += derived.homology_value(cx, n // p**v, degree).canonical != value.canonical
        assert changed >= 200

    def test_sweeping_at_e_one_is_caught(self, received):
        # the mutant passes degree 0, so each prime is swept over Z/p only:
        # it changes the value, or the primes of N disagree on the rank
        _, seen, _, _ = received
        changed = raised = 0
        for cx, n, degree, value in seen:
            if n > 1:
                try:
                    changed += derived.homology_value(cx, n, 0).canonical != value.canonical
                except AssertionError:
                    raised += 1
        assert changed >= 50 and raised >= 50 and changed + raised >= 200

    def test_values_never_read_a_rank(self, monkeypatch):
        # the constructors read N off the Smith diagonal of each sublattice;
        # computing a value then runs no Smith pass over the integers
        def refuse(*args):
            raise AssertionError("Smith pass run while computing a value")

        # Z + Z/2 + Z/4, Z + Z/4 and Z^2 + Z/6, the groups the CI pins
        p = Presentation.from_group(PresentedGroup.from_invariants(1, (2, 4)))
        a = Presentation.from_group(PresentedGroup.from_invariants(1, (4,)))
        b = Presentation.from_group(PresentedGroup.from_invariants(2, (6,)))
        built = [(p, b, nested_over(a, random.Random(3)))]
        instances = scrambled_instances(13)
        for i, (x, y) in enumerate(zip(instances, instances[1:])):
            built.append((x, y, nested_over(x, random.Random(f"no-rank:{i}"))))
        monkeypatch.setattr(derived, "echelon_smith_diagonal", refuse)
        monkeypatch.setattr(linalg, "smith_diagonal_uncached", refuse)
        values = [every_value(*args) for args in built]
        pinned = [str(l1_sp(3, p).canonical), str(l2_superlie3(p).canonical),
                  str(tor(a, b).canonical)]
        monkeypatch.undo()
        assert pinned == ["Z/2 + Z/2 + Z/2", "Z/2 + Z/2", "Z/2"]
        for (x, _, _), vs in zip(built, values):
            assert vs[0].canonical == closed_form_l1sp2(x.quotient())


class TestStallRegressions:
    """Presentations on which l1_sp(4, .) used to run for minutes, in the
    Smith form of the homology relations or in the kernel solve."""

    @pytest.mark.parametrize(
        "rows, quotient, expected",
        [
            ([[2, 0, 0, 0], [2, 4, 0, 0], [3, 2, 4, 0], [3, 0, 3, 5]],
             "Z/4 + Z/40", "Z/4 + Z/4 + Z/4"),
            ([[2, 0, 0, 0], [2, 3, 0, 0], [1, 0, 2, 0], [5, 0, 5, 6], [-5, -4, -4, -5]],
             "Z + Z/3", "0"),
            ([[3, 0, 0], [2, 18, 0], [3, 6, 7], [2, -13, 23], [-3, 5, -13], [-14, 30, -86]],
             "Z^3", "0"),
        ],
    )
    def test_scan_instances(self, rows, quotient, expected):
        u = IntMatrix.from_rows(rows)
        p = Presentation(u.rows, u)
        assert str(p.quotient().canonical) == quotient
        assert str(l1_sp(4, p).canonical) == expected
        assert str(cycle_path_value("l1_sp4", p).canonical) == expected
        # sympy's Smith form does not finish on these d2s within minutes
        cx = koszul_sp(4, u)
        assert local_torsion(cx.terms[1], cx.columns[1], p.torsion_order, 4) == smith_torsion(cx)

    def test_pinned_presindep_instance(self):
        # second presentation of presindep, seed 7, trial 5, --max-rank 6
        p = Presentation.from_dict({
            "ambient_rank": 6,
            "sublattice": [
                [1, 0, 0, 0, 5, 69], [0, 3, 0, 1, 6, 5], [0, 0, 1, 1, 7, 27],
                [0, 0, 0, 2, 2, 71], [0, 0, 0, 0, 9, 61], [0, 0, 0, 0, 0, 89],
            ],
        })
        assert str(p.quotient().canonical) == "Z/4806"
        # L1SP^4 of a cyclic group vanishes
        assert l1_sp(4, p).canonical.is_trivial


class TestSmithBlockGuard:
    """smith_diagonal reduces the unit-free remainder in one column pass
    only; every later Hermite pass works on the k echelon columns it
    leaves (k = rank of the remainder), transposed, and then on a k x k
    block.  Reducing the whole remainder to its Smith form let entries
    swell: on one rank-4 L1SP^4 d2 that took over a minute.  The passes
    are now those of relation matrices and of the fallback of
    local_torsion; homology_value reads these d2s locally, which is held
    against the passes here, and on the cone against sympy (whose Smith
    form does not finish on the 80 x 60 d2 within minutes)."""

    def hermite_calls(self, monkeypatch, cx):
        calls = []
        hermite_cols = _kernels.hermite_cols

        def recording(a, rows, cols, *flags, **kw):
            calls.append((len(a), rows, cols))
            return hermite_cols(a, rows, cols, *flags, **kw)

        m = cx.differentials[1]
        monkeypatch.setattr(_kernels, "hermite_cols", recording)
        diag = smith_diagonal_uncached(cx.terms[1], cx.columns[1])
        monkeypatch.undo()
        assert diag == smith_diagonal(m)
        units, rest, rest_rows = _kernels.eliminate_units(cx.columns[1], m.rows)
        rest_cols = len(rest)
        k = column_echelon(m).rank - units
        assert sum(1 for d in diag if d) == column_echelon(m).rank
        # the first pass sees the remainder; the next one the transpose of
        # its k echelon columns; every later one a k x k block
        assert calls[0] == (rest_rows * rest_cols, rest_rows, rest_cols)
        assert calls[1] == (k * rest_rows, k, rest_rows)
        assert all(call == (k * k, k, k) for call in calls[2:])
        n = math.prod(d for d in diag if d)
        assert local_torsion(cx.terms[1], cx.columns[1], n, 1) == smith_torsion(cx)
        return units, k

    def test_rank4_scan_d2(self, monkeypatch):
        u = IntMatrix.from_rows([[2, 0, 0, 0], [2, 4, 0, 0], [3, 2, 4, 0], [3, 0, 3, 5]])
        cx = koszul_sp(4, u)
        d2 = cx.differentials[1]
        units, k = self.hermite_calls(monkeypatch, cx)
        # the 80 x 60 d2 has rank 45 and no unit entry
        assert (units, k, d2.rows, d2.cols) == (0, 45, 80, 60)

    def test_unit_rich_cone_d2(self, monkeypatch):
        g = PresentedGroup.from_invariants(1, (2, 2, 2))
        p = scrambled_presentation(random.Random(5), g, 2)
        cx = superlie3_cone(p)
        d2 = cx.differentials[1]
        units, k = self.hermite_calls(monkeypatch, cx)
        # most of the rank is split off as unit pivots
        assert 2 * units > column_echelon(d2).rank
        assert local_torsion(cx.terms[1], cx.columns[1], p.torsion_order, 3) == sympy_torsion(cx)


def closed_form_tor(a, b):
    """Tor of two groups in invariant-factor form: the sum of
    Z/gcd(m, n) over pairs of their invariant factors."""
    pairs = [math.gcd(m, n) for m in a.canonical.torsion for n in b.canonical.torsion]
    return PresentedGroup.from_invariants(0, [g for g in pairs if g > 1]).canonical


class TestLocalTorsion:
    """linalg.local_torsion, the Smith form of d2 read at the primes of N,
    against smith_diagonal_uncached, sympy and closed forms."""

    def test_tor_closed_form(self):
        n_one = 0
        for m in range(2, 13):
            for n in range(2, 13):
                for free_a, free_b in ((0, 0), (1, 0), (1, 2)):
                    pa = Presentation.from_group(PresentedGroup.from_invariants(free_a, (m,)))
                    pb = Presentation.from_group(PresentedGroup.from_invariants(free_b, (n,)))
                    cx = tor_complex(pa.sublattice, pb.sublattice)
                    torsion = math.gcd(pa.torsion_order, pb.torsion_order)
                    assert torsion == math.gcd(m, n)
                    value = tor(pa, pb).canonical
                    assert value == CanonicalForm(0, (torsion,) if torsion > 1 else ())
                    assert value.torsion == smith_torsion(cx) == sympy_torsion(cx)
                    n_one += torsion == 1
        assert n_one >= 100

    def test_n_one_reduces_nothing(self, monkeypatch):
        def refuse(columns, rows):
            raise AssertionError("a complex was reduced with N = 1")

        # Tor of coprime orders, and every value of a free group
        a = Presentation.from_group(PresentedGroup.from_invariants(1, (4,)))
        b = Presentation.from_group(PresentedGroup.from_invariants(0, (9,)))
        free = Presentation(3, IntMatrix.zeros(3, 0))
        np = NestedPresentation.build(2, IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
        assert (a.torsion_order, b.torsion_order, free.torsion_order) == (4, 9, 1)
        assert np.outer_torsion_order == 1
        monkeypatch.setattr(_kernels, "eliminate_units", refuse)
        values = [tor(a, b), tor(free, a), l1_sp(2, free), l1_sp(4, free), l2_superlie3(free),
                  coker_thm31(np), coker_tor_to_l1_sp2(np)]
        assert all(v.canonical.is_trivial for v in values)

    def test_valuations_beyond_n(self):
        # diag(8, 16) with N = 2 and k = 4: one sweep over Z/2^5 finds both
        columns = [{0: 8}, {1: 16}]
        assert local_torsion(2, columns, 2, 4) == (8, 16)
        assert _kernels.local_valuations(columns, 2, 2, 2) == []
        assert _kernels.local_valuations(columns, 2, 2, 4) == [3]
        assert _kernels.local_valuations(columns, 2, 2, 5) == [3, 4]
        assert columns == [{0: 8}, {1: 16}]

    def test_bound_broken_at_one_prime_raises(self):
        # diag(24, 48) with N = 6 and k = 1: Z/4 finds no valuation of 24 or
        # 48, Z/9 finds both, and the two primes disagree on the rank
        columns = [{0: 24}, {1: 48}]
        with pytest.raises(AssertionError, match="6\\*\\*1 does not annihilate"):
            local_torsion(2, columns, 6, 1)
        assert local_torsion(2, columns, 6, 4) == (24, 48)

    def test_unfactored_n_falls_back(self, monkeypatch):
        # n = 4099 * 4111, both primes above TRIAL_DIVISION_BOUND = 4096
        n = 4099 * 4111
        assert TRIAL_DIVISION_BOUND == 4096 and isprime(4099) and isprime(4111)
        p = Presentation.from_group(PresentedGroup.from_invariants(0, (n, n)))
        small = Presentation.from_group(PresentedGroup.from_invariants(0, (2, 4099)))
        assert prime_factors(p.torsion_order) is None
        assert prime_factors(small.torsion_order) == [(2, 1), (4099, 1)]
        g, h = p.quotient(), small.quotient()
        closed = [closed_form_tor(g, g), closed_form_l1sp2(g), closed_form_tor(h, h)]
        assert closed == [CanonicalForm(0, (n,) * 4), CanonicalForm(0, (n,)),
                          CanonicalForm(0, (2 * 4099,))]
        fallbacks = []
        fallback = linalg.smith_diagonal_uncached

        def counting(rows, columns):
            fallbacks.append(rows)
            return fallback(rows, columns)

        monkeypatch.setattr(linalg, "smith_diagonal_uncached", counting)
        assert tor(p, p).canonical == closed[0]
        assert l1_sp(2, p).canonical == closed[1]
        assert len(fallbacks) == 2
        # a last cofactor below the bound squared is a prime, read locally
        assert tor(small, small).canonical == closed[2]
        assert len(fallbacks) == 2


CASE_A = Path(__file__).parent / "data" / "case_a.txt"


class TestCaseA:
    """L1SP^4 of a rank-8 scrambled presentation of
    Z + (Z/2)^2 + Z/4 + Z/8 + Z/3 + Z/9, an 840 x 756 d2: the README's
    case (a), pinned by the CI through tests/data/case_a.txt."""

    def presentation(self):
        g = PresentedGroup.from_invariants(1, (2, 2, 4, 8, 3, 9))
        return scrambled_presentation(random.Random(5), g, 1)

    def test_file_is_the_scrambled_presentation(self):
        p = self.presentation()
        assert load_relations(str(CASE_A)).relations == p.sublattice
        assert Presentation.from_group(load_relations(str(CASE_A))) == p

    def test_value(self):
        p = self.presentation()
        assert koszul_sp(4, p.sublattice).terms[1:] == (840, 756)
        assert l1_sp(4, p).canonical == CanonicalForm(0, (2,) * 65 + (12,) * 6)
