import math
import random

import pytest

from dfw import abelian
from dfw.abelian import (
    CanonicalForm,
    ContainmentError,
    Hom,
    PresentedGroup,
    canonical_form,
    cokernel,
    direct_sum,
    image,
    kernel,
    purified_relations,
    subgroup_contains,
    subgroup_leq,
    subquotient,
    tensor,
)
from dfw.linalg import IntMatrix, smith_diagonal


def grp(rank, cols):
    return PresentedGroup(rank, IntMatrix.from_cols(cols, rows=rank))


def random_group(rng, max_rank=4, max_entry=6):
    r = rng.randint(1, max_rank)
    k = rng.randint(0, r + 1)
    return grp(r, [[rng.randint(-max_entry, max_entry) for _ in range(r)] for _ in range(k)])


def scrambled(rng, g, extra_gens=1):
    """An isomorphic group on a different presentation: redundant
    generators with defining relations, then a unimodular change of basis."""
    r2 = g.rank + extra_gens
    cols = []
    for j in range(g.relations.cols):
        cols.append(g.relations.col_list(j) + [0] * extra_gens)
    for e in range(extra_gens):
        col = [-rng.randint(-3, 3) for _ in range(g.rank)] + [0] * extra_gens
        col[g.rank + e] = 1
        cols.append(col)
    rel = IntMatrix.from_cols(cols, rows=r2)
    u = IntMatrix.identity(r2).to_rows()
    for _ in range(3 * r2):
        i, j = rng.randrange(r2), rng.randrange(r2)
        if i != j:
            c = rng.randint(-2, 2)
            for t in range(r2):
                u[i][t] += c * u[j][t]
    return PresentedGroup(r2, IntMatrix.from_rows(u) @ rel)


class TestCanonicalForm:
    def test_cyclic_pair(self):
        # SNF of diag(2,3) is diag(1,6) by the minor-gcd oracle
        g = grp(2, [[2, 0], [0, 3]])
        assert g.canonical == CanonicalForm(0, (6,))

    def test_free(self):
        g = PresentedGroup.free(3)
        assert canonical_form(g) == CanonicalForm(3, ())

    @pytest.mark.parametrize("bad", [1.5, "3", True])
    def test_from_invariants_rejects_non_int(self, bad):
        with pytest.raises(TypeError):
            PresentedGroup.from_invariants(0, [bad])

    @pytest.mark.parametrize("free, torsion", [(0, ()), (2, ()), (0, (2, 2, 4)), (1, (3, 6, 12))])
    def test_from_invariants_chain_needs_no_reduction(self, monkeypatch, free, torsion):
        def refuse(m):
            raise AssertionError("smith_diagonal called on an invariant-factor chain")

        monkeypatch.setattr(abelian, "smith_diagonal", refuse)
        g = PresentedGroup.from_invariants(free, torsion)
        assert g.canonical == CanonicalForm(free, torsion)

    @pytest.mark.parametrize(
        "torsion, expected",
        [((4, 6), CanonicalForm(0, (2, 12))), ((1,), CanonicalForm(0, ())),
         ((0,), CanonicalForm(1, ())), ((-4,), CanonicalForm(0, (4,))),
         ((6, 4), CanonicalForm(0, (2, 12))), ((2, -2), CanonicalForm(0, (2, 2)))],
    )
    def test_from_invariants_reduces_other_torsion(self, monkeypatch, torsion, expected):
        calls = []

        def counted(m):
            calls.append(m)
            return smith_diagonal(m)

        monkeypatch.setattr(abelian, "smith_diagonal", counted)
        assert PresentedGroup.from_invariants(0, torsion).canonical == expected
        assert len(calls) == 1

    def test_already_diagonal(self):
        g = grp(2, [[2, 0], [0, 2]])
        assert g.canonical == CanonicalForm(0, (2, 2))

    def test_printing(self):
        assert str(CanonicalForm(0, ())) == "0"
        assert str(CanonicalForm(1, ())) == "Z"
        assert str(CanonicalForm(2, (2, 6))) == "Z^2 + Z/2 + Z/6"

    def test_invariant_under_presentation_changes(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_group(rng)
            assert scrambled(rng, g, extra_gens=rng.randint(0, 2)).canonical == g.canonical


class TestHom:
    def test_well_definedness_enforced(self):
        z4 = PresentedGroup.cyclic(4)
        z2 = PresentedGroup.cyclic(2)
        Hom(z4, z2, IntMatrix.from_rows([[1]]))  # reduction mod 2 is fine
        with pytest.raises(ValueError):
            Hom(z2, z4, IntMatrix.from_rows([[1]]))  # 2*1 = 2 is not 0 mod 4

    def test_composition_is_matrix_product(self):
        a = PresentedGroup.free(2)
        f = Hom(a, a, IntMatrix.from_rows([[1, 1], [0, 1]]))
        g = Hom(a, a, IntMatrix.from_rows([[1, 0], [1, 1]]))
        assert (g @ f).matrix == g.matrix @ f.matrix

    def test_equality_mod_relations(self):
        z2 = PresentedGroup.cyclic(2)
        f = Hom(z2, z2, IntMatrix.from_rows([[1]]))
        g = Hom(z2, z2, IntMatrix.from_rows([[3]]))
        h = Hom(z2, z2, IntMatrix.from_rows([[2]]))
        assert f == g
        assert f != h
        assert h.is_zero()


class TestKernel:
    def test_multiplication_by_two_on_z4(self):
        z4 = PresentedGroup.cyclic(4)
        f = Hom(z4, z4, IntMatrix.from_rows([[2]]))
        k, incl = kernel(f)
        assert k.canonical == CanonicalForm(0, (2,))
        # enumeration oracle: kernel of x -> 2x on {0,1,2,3} is {0, 2}
        assert incl.is_injective()
        assert subgroup_contains(incl, [2])
        assert not subgroup_contains(incl, [1])

    def test_identity_and_zero(self):
        g = grp(2, [[2, 0], [0, 4]])
        k, _ = kernel(Hom.identity(g))
        assert k.canonical.is_trivial
        k2, incl2 = kernel(Hom.zero(g, g))
        assert k2.canonical == g.canonical
        assert incl2.is_injective()


class TestCokernel:
    def test_multiplication_by_two_on_z(self):
        z = PresentedGroup.free(1)
        c, proj = cokernel(Hom(z, z, IntMatrix.from_rows([[2]])))
        assert c.canonical == CanonicalForm(0, (2,))
        assert proj.is_surjective()

    def test_surjection_has_trivial_cokernel(self):
        z = PresentedGroup.free(1)
        z3 = PresentedGroup.cyclic(3)
        c, _ = cokernel(Hom(z, z3, IntMatrix.from_rows([[1]])))
        assert c.canonical.is_trivial

    def test_sublattice_inclusion(self):
        # 2Z + 0 inside Z^2 leaves Z/2 + Z
        z = PresentedGroup.free(1)
        z2 = PresentedGroup.free(2)
        c, _ = cokernel(Hom(z, z2, IntMatrix.from_cols([[2, 0]], rows=2)))
        assert c.canonical == CanonicalForm(1, (2,))


class TestImage:
    def test_two_torsion_in_z4(self):
        z2 = PresentedGroup.cyclic(2)
        z4 = PresentedGroup.cyclic(4)
        f = Hom(z2, z4, IntMatrix.from_rows([[2]]))
        img, epi, mono = image(f)
        assert img.canonical == CanonicalForm(0, (2,))
        assert (mono @ epi) == f
        assert mono.is_injective()
        assert epi.is_surjective()
        # enumeration oracle: image of Z/2 -> Z/4, 1 |-> 2 is {0, 2}
        assert subgroup_contains(mono, [2])
        assert not subgroup_contains(mono, [1])

    def test_zero_and_identity(self):
        g = grp(2, [[2, 0], [0, 4]])
        img, _, _ = image(Hom.zero(g, g))
        assert img.canonical.is_trivial
        img2, _, mono2 = image(Hom.identity(g))
        assert img2.canonical == g.canonical
        assert mono2.is_surjective()


class TestSubquotient:
    def test_whole_by_zero(self):
        g = grp(2, [[3, 0], [0, 9]])
        k = Hom.identity(g)
        j = Hom(PresentedGroup.trivial(), g, IntMatrix.zeros(2, 0), check=False)
        assert subquotient(k, j).canonical == g.canonical

    def test_self_quotient(self):
        g = grp(1, [[5]])
        k = Hom.identity(g)
        assert subquotient(k, k).canonical.is_trivial

    def test_index_three(self):
        # A = Z, K = 2Z, J = 6Z gives Z/3
        z = PresentedGroup.free(1)
        k = Hom(z, z, IntMatrix.from_rows([[2]]))
        j = Hom(z, z, IntMatrix.from_rows([[6]]))
        assert subquotient(k, j).canonical == CanonicalForm(0, (3,))

    def test_containment_violation(self):
        z = PresentedGroup.free(1)
        k = Hom(z, z, IntMatrix.from_rows([[4]]))
        j = Hom(z, z, IntMatrix.from_rows([[6]]))
        with pytest.raises(ContainmentError):
            subquotient(k, j)


class TestSums:
    def test_cyclic_sum_merges(self):
        s = direct_sum(PresentedGroup.cyclic(2), PresentedGroup.cyclic(3))
        assert s.canonical == CanonicalForm(0, (6,))

    def test_unit_and_free(self):
        g = grp(2, [[2, 0], [0, 4]])
        assert direct_sum(g, PresentedGroup.trivial()).canonical == g.canonical
        assert direct_sum(PresentedGroup.free(1), PresentedGroup.free(1)).canonical == CanonicalForm(2, ())


class TestTensor:
    def test_gcd_oracle(self):
        t = tensor(PresentedGroup.cyclic(4), PresentedGroup.cyclic(6))
        assert t.canonical == CanonicalForm(0, (math.gcd(4, 6),))
        t2 = tensor(PresentedGroup.cyclic(2), PresentedGroup.cyclic(3))
        assert t2.canonical.is_trivial

    def test_unit(self):
        g = grp(2, [[2, 1], [0, 3]])
        assert tensor(g, PresentedGroup.free(1)).canonical == g.canonical

    def test_symmetry_and_additivity(self):
        rng = random.Random(77)
        for _ in range(40):
            a, b, c = (random_group(rng, 3, 4) for _ in range(3))
            assert tensor(a, b).canonical == tensor(b, a).canonical
            lhs = tensor(direct_sum(a, c), b).canonical
            rhs = direct_sum(tensor(a, b), tensor(c, b)).canonical
            assert lhs == rhs


class TestFirstIsomorphismTheorem:
    def test_random_homs(self):
        rng = random.Random(13)
        trials = 0
        while trials < 60:
            src = random_group(rng, 4, 5)
            tgt = random_group(rng, 4, 5)
            mat = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(src.rank)] for _ in range(tgt.rank)],
                cols=src.rank,
            )
            try:
                f = Hom(src, tgt, mat)
            except ValueError:
                continue
            trials += 1
            img, _, mono = image(f)
            k, incl = kernel(f)
            # source / kernel is isomorphic to the image
            q = subquotient(Hom.identity(src), incl)
            assert q.canonical == img.canonical
            assert subgroup_leq(mono, Hom.identity(tgt))

    def test_purified_relations_span(self):
        g = grp(2, [[2, 4], [0, 0]])
        p = purified_relations(g)
        assert p.cols == 1
        assert PresentedGroup(2, p).canonical == g.canonical
