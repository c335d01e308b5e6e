import math
import random

import pytest

from dfw import _kernels, derived
from dfw.abelian import CanonicalForm, Hom, PresentedGroup, cokernel, direct_sum
from dfw.derived import (
    NestedPresentation,
    Presentation,
    _tor_koszul_chain_map,
    coker_induced_l1_sp2,
    coker_tor_to_l1_sp2,
    homology_value,
    induced_cokernel,
    l1_sp,
    l1_sp2_kernel_form,
    l2_superlie3,
    middle_homology,
    sp2_bottom_row,
    superlie3_cone,
    superlie3_kernel_data,
    tor,
    tor_complex,
)
from dfw.functors import FreeComplex, induced_map, koszul_sp, lie3_embedding, lie3_split
from dfw.linalg import (
    IntMatrix,
    column_basis,
    dict_columns,
    hstack,
    kernel_basis,
    kron,
    rank,
    smith_diagonal,
    smith_diagonal_uncached,
    solve_matrix,
    vstack,
)
from dfw.theorems import _DERIVED_OPS, random_matrix, scrambled_presentation


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
            assert l1_sp2_kernel_form(p).canonical == l1_sp(2, p).canonical

    def test_rank_one_and_free(self):
        assert l1_sp2_kernel_form(pres(1, [[7]])).canonical.is_trivial
        assert l1_sp2_kernel_form(Presentation(2, IntMatrix.zeros(2, 0))).canonical.is_trivial

    def test_bottom_row_composes_to_zero(self):
        p = pres(2, [[2, 0], [0, 4]])
        alpha, beta, gamma = sp2_bottom_row(p)
        assert (beta @ alpha).is_zero()
        assert (gamma @ beta).is_zero()
        assert gamma.is_surjective()
        assert alpha.is_injective()


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
            assert incl.is_injective()
            assert (h @ incl).is_zero()


def unreduced_superlie3_cone(p):
    """The mapping cone before the Lyndon pivots are cancelled:
    d1 = [M | R_B], d2 = (R_A; -W), with R_A the Lie coordinates of the
    bracket expansions of the sublattice, solved against the embedding."""
    u, r, s = p.sublattice, p.ambient_rank, p.sublattice.cols
    m = lie3_embedding(r)
    r_a = solve_matrix(m, induced_map("tensor", 3, u) @ lie3_embedding(s))
    r_b = kron(kron(u, u), IntMatrix.identity(r))
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
            assert value == homology_value(unreduced_superlie3_cone(p)).canonical, p.to_dict()
            nontrivial += not value.is_trivial
        assert max(ranks) == 6
        assert nontrivial >= 30

    def test_differentials_are_the_dense_products(self):
        rng = random.Random(4242)
        for _ in range(12):
            p = random_presentation(rng, 5)
            u, r, s = p.sublattice, p.ambient_rank, p.sublattice.cols
            d1, d2 = superlie3_cone(p).differentials
            assert d1 == lie3_split(r).defect @ kron(kron(u, u), IntMatrix.identity(r))
            assert d2 == kron(IntMatrix.identity(s * s), u) @ lie3_embedding(s)

    @pytest.mark.parametrize(
        "invariants, expected",
        [((2, 4), "Z/2 + Z/2"), ((2, 2, 2), " + ".join(["Z/2"] * 8))],
    )
    def test_pinned_values(self, invariants, expected):
        p = Presentation.from_group(PresentedGroup.from_invariants(0, invariants))
        assert str(l2_superlie3(p).canonical) == expected
        assert str(homology_value(unreduced_superlie3_cone(p)).canonical) == expected


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


def identity_koszul(np):
    """koszul_sp(2, I_r) of the identity lattice of np's ambient rank."""
    return koszul_sp(2, IntMatrix.identity(np.ambient_rank))


def coker_thm31(np):
    """coker_induced_l1_sp2 with the Koszul complex of np.outer."""
    return coker_induced_l1_sp2(np, koszul_sp(2, np.outer))


def coker_thm32(np):
    """coker_tor_to_l1_sp2 with the Koszul complex of the identity lattice."""
    return coker_tor_to_l1_sp2(np, identity_koszul(np))


def l1_sp2_chain(np):
    """The complexes and chain map of coker_induced_l1_sp2, built apart."""
    src, dst = koszul_sp(2, np.inner), koszul_sp(2, np.outer)
    f = np.witness
    chain = (IntMatrix.identity(dst.terms[0]), kron(f, IntMatrix.identity(np.ambient_rank)),
             induced_map("ext", 2, f))
    return src, dst, chain


def tor_chain(np):
    """The complexes and chain map of coker_tor_to_l1_sp2."""
    src = tor_complex(np.outer_presentation, np.inner_presentation)
    return src, koszul_sp(2, np.outer), _tor_koszul_chain_map(np, identity_koszul(np))


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
                                       ("thm32", coker_thm32, tor_chain)):
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
        induced_cokernel(src, dst, maps)  # the chain map itself passes
        broken = list(maps)
        f = maps[degree]  # f0, f1 or f2, with one entry bumped
        broken[degree] = IntMatrix(f.rows, f.cols, (f.entries[0] + 1,) + f.entries[1:])
        # f0 and f1 meet in the degree-1 square
        with pytest.raises(AssertionError, match=f"degree-{max(degree, 1)} chain square"):
            induced_cokernel(src, dst, tuple(broken))

    def test_chain_squares_random(self):
        # both cokernels verify their chain squares internally
        rng = random.Random(909)
        for _ in range(25):
            np = random_nested(rng)
            coker_thm32(np)
            coker_thm31(np)

    def test_equal_lattices_give_identity(self):
        # the induced map is the identity of L1SP^2(Z/2 + Z/4) = Z/2, so
        # its cokernel is trivial
        u = column_basis(IntMatrix.from_cols([[2, 0], [2, 4]], rows=2))
        np = NestedPresentation.build(2, u, u)
        assert l1_sp(2, np.inner_presentation).canonical == CanonicalForm(0, (2,))
        assert coker_thm31(np).canonical.is_trivial

    def test_full_outer_gives_zero_into_trivial(self):
        u = IntMatrix.from_cols([[2, 0], [0, 2]], rows=2)
        np = NestedPresentation.build(2, u, IntMatrix.identity(2))
        assert l1_sp(2, np.inner_presentation).canonical == CanonicalForm(0, (2,))
        assert l1_sp(2, np.outer_presentation).canonical.is_trivial
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
        assert l1_sp(2, np.outer_presentation).canonical.is_trivial
        assert coker_thm32(np).canonical.is_trivial

    def test_tor_comparison_diagonal_surjective(self):
        # I = 0: Tor(E, E) = (Z/2)^4 -> L1SP^2(E) = Z/2 for E = Z/2 + Z/2
        # is onto, so its cokernel is trivial
        p = pres(2, [[2, 0], [0, 2]])
        np = NestedPresentation.build(2, p.sublattice, p.sublattice)
        assert tor(p, p).canonical == CanonicalForm(0, (2, 2, 2, 2))
        assert l1_sp(2, p).canonical == CanonicalForm(0, (2,))
        assert coker_thm32(np).canonical.is_trivial

    def test_exponent_shadow_for_l1sp2(self):
        rng = random.Random(55)
        for _ in range(40):
            c = rng.randint(1, 12)
            divisors = [d for d in range(2, c + 1) if c % d == 0]
            parts = [rng.choice(divisors) for _ in range(rng.randint(0, 3))] if divisors else []
            g = direct_sum(*(PresentedGroup.cyclic(d) for d in parts))
            value = l1_sp(2, Presentation.from_group(g))
            assert value.canonical.is_trivial or value.canonical.exponent_divides(c)


class TestPresentationObjects:
    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            Presentation(2, IntMatrix.from_cols([[1, 0], [2, 0]], rows=2))

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
        cx = tor_complex(a, b)
        assert cx.terms == (2, 2 + 2, 2)


def cycle_path_value(name, p):
    """The value of one of theorems._DERIVED_OPS by the cycle path: kernel
    basis of d1, boundaries solved against it."""
    if name == "l2_superlie3":
        return superlie3_kernel_data(p)[0]
    if name == "tor":
        return middle_homology(tor_complex(p, p))
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
    values += [l2_superlie3(p), tor(p, q), coker_thm31(np), coker_thm32(np)]
    return values


class TestTorsionPrecondition:
    """homology_value reads H1 as tors(coker d2), which needs every
    complex it is given to be exact at C1 after tensoring with the
    rationals: rank(d1) + rank(d2) == c1."""

    def test_every_complex_is_rationally_exact(self, monkeypatch):
        seen = []
        read = derived.homology_value

        def recording(cx):
            seen.append(cx)
            return read(cx)

        monkeypatch.setattr(derived, "homology_value", recording)
        instances = scrambled_instances(120)
        with_free = nontrivial = 0
        for i, p in enumerate(instances):
            q = instances[(i + 1) % len(instances)]
            values = every_value(p, q, nested_over(p, random.Random(f"torsion-oracle-nested:{i}")))
            with_free += p.quotient().canonical.free_rank > 0
            nontrivial += sum(not v.canonical.is_trivial for v in values)
        for cx in seen:
            d1, d2 = cx.differentials
            assert rank(d1) + rank(d2) == cx.terms[1], cx.terms
        assert max(p.ambient_rank for p in instances) == 6
        assert with_free >= 60 and nontrivial >= 200
        assert len(seen) >= 6 * len(instances)

    def test_values_never_read_a_rank(self, monkeypatch):
        def refuse(m):
            raise AssertionError("rank called while computing a value")

        # Z + Z/2 + Z/4, Z + Z/4 and Z^2 + Z/6, the groups the CI pins
        p = Presentation.from_group(PresentedGroup.from_invariants(1, (2, 4)))
        a = Presentation.from_group(PresentedGroup.from_invariants(1, (4,)))
        b = Presentation.from_group(PresentedGroup.from_invariants(2, (6,)))
        built = [(p, b, nested_over(a, random.Random(3)))]
        instances = scrambled_instances(13)
        for i, (x, y) in enumerate(zip(instances, instances[1:])):
            built.append((x, y, nested_over(x, random.Random(f"no-rank:{i}"))))
        monkeypatch.setattr(derived, "rank", refuse)
        values = [every_value(*args) for args in built]
        assert str(l1_sp(3, p).canonical) == "Z/2 + Z/2 + Z/2"
        assert str(l2_superlie3(p).canonical) == "Z/2 + Z/2"
        assert str(tor(a, b).canonical) == "Z/2"
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
    are those of homology_value, on the columns of the complex."""

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
        units, _, rest_rows, rest_cols = _kernels.eliminate_units(cx.columns[1], m.rows)
        k = rank(m) - units
        assert sum(1 for d in diag if d) == rank(m)
        # the first pass sees the remainder; the next one the transpose of
        # its k echelon columns; every later one a k x k block
        assert calls[0] == (rest_rows * rest_cols, rest_rows, rest_cols)
        assert calls[1] == (k * rest_rows, k, rest_rows)
        assert all(call == (k * k, k, k) for call in calls[2:])
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
        assert 2 * units > rank(d2)
