import math
import random

import pytest

from dfw.abelian import CanonicalForm, PresentedGroup
from dfw.derived import Presentation, l1_sp
from dfw.functors import (
    FreeComplex,
    basis,
    ext_relations,
    functor_on_group,
    induced_map,
    is_lyndon,
    koszul_sp,
    lie3_columns,
    lie3_defect,
    sym_relations,
)
from dfw.linalg import (
    IntMatrix,
    column_echelon,
    dict_columns,
    from_dict_columns,
    kron,
    smith_diagonal,
    solve_matrix,
)


def random_matrix(rng, rows, cols, bound=3):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def lie3_embedding(r):
    """The inclusion of the Lie cube into the tensor cube, laid out dense
    from its columns lie3_columns(r)."""
    return from_dict_columns(r**3, [dict(c) for c in lie3_columns(r)])


def lie3_defect_matrix(r):
    """K: Z^{r³} -> Z^{r³ - lie(r)}, laid out dense from its columns
    lie3_defect(r)."""
    return from_dict_columns(r**3 - len(lie3_columns(r)), [dict(c) for c in lie3_defect(r)])


def lie3_induced(f):
    """𝓛³(f) in the Lyndon bases: the tensor cube of f on the Lie cube of
    its source, solved against the embedding of the Lie cube of its
    target (None if the image left the Lie lattice)."""
    return solve_matrix(lie3_embedding(f.rows), kron(kron(f, f), f) @ lie3_embedding(f.cols))


def induced(kind, degree, f):
    """functors.induced_map, with the tensor square as kron(f, f) and 𝓛³(f)
    from lie3_induced."""
    if kind == "tensor":
        return kron(f, f)
    if kind == "lie3":
        return lie3_induced(f)
    return induced_map(kind, degree, f)


class TestBases:
    def test_counts_match_closed_formulas(self):
        for r in range(0, 7):
            assert basis("tensor", 3, r).size == r**3
            assert basis("sym", 2, r).size == math.comb(r + 1, 2)
            assert basis("sym", 4, r).size == math.comb(r + 3, 4)
            assert basis("ext", 2, r).size == math.comb(r, 2)
            assert basis("ext", 3, r).size == math.comb(r, 3)
            assert basis("lie3", 3, r).size == (r**3 - r) // 3

    def test_index_round_trips(self):
        for kind, degree in [("tensor", 2), ("sym", 3), ("ext", 2), ("lie3", 3)]:
            b = basis(kind, degree, 4)
            for i in range(b.size):
                assert b.rank_of(b.elements[i]) == i

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            basis("sym", 6, 2)
        with pytest.raises(ValueError):
            basis("ext", 4, 5)
        with pytest.raises(ValueError):
            basis("lie3", 2, 2)

    def test_lyndon_words(self):
        assert is_lyndon((0, 0, 1))
        assert is_lyndon((0, 1, 1))
        assert not is_lyndon((0, 0, 0))
        assert not is_lyndon((1, 0, 1))
        assert basis("lie3", 3, 2).elements == ((0, 0, 1), (0, 1, 1))


class TestInducedMaps:
    def test_sym2_identity(self):
        m = induced_map("sym", 2, IntMatrix.identity(2))
        assert m == IntMatrix.identity(3)

    def test_sym2_swap(self):
        # hand expansion of (x <-> y) on monomials x^2, xy, y^2
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        m = induced_map("sym", 2, swap)
        assert m == IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    def test_ext2_diagonal(self):
        # 2e1 ∧ 3e2 = 6 (e1 ∧ e2)
        m = induced_map("ext", 2, IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert m == IntMatrix.from_rows([[6]])

    def test_functoriality_random_pairs(self):
        rng = random.Random(42)
        for kind, degree in [("tensor", 2), ("sym", 2), ("sym", 3), ("ext", 2), ("lie3", 3)]:
            for _ in range(100):
                a = rng.randint(1, 3)
                b = rng.randint(1, 3)
                c = rng.randint(1, 3)
                f = random_matrix(rng, a, b)
                g = random_matrix(rng, b, c)
                lhs = induced(kind, degree, f @ g)
                rhs = induced(kind, degree, f) @ induced(kind, degree, g)
                assert lhs == rhs
            n = rng.randint(1, 4)
            assert induced(kind, degree, IntMatrix.identity(n)) == IntMatrix.identity(
                basis(kind, degree, n).size
            )

    def test_only_sym_and_ext(self):
        f = IntMatrix.identity(2)
        for kind, degree in (("tensor", 2), ("lie3", 3)):
            with pytest.raises(ValueError):
                induced_map(kind, degree, f)
            with pytest.raises(ValueError):
                functor_on_group(kind, degree, PresentedGroup.cyclic(4))


class TestLie3Embedding:
    def test_rank_one_is_zero(self):
        assert lie3_embedding(1).cols == 0

    def test_rank_two_hand_expansion(self):
        # [x,[x,y]] = xxy - 2 xyx + yxx ; [[x,y],y] = xyy - 2 yxy + yyx
        emb = lie3_embedding(2)
        cube = basis("tensor", 3, 2)
        col0 = emb.col_list(0)
        assert col0[cube.rank_of((0, 0, 1))] == 1
        assert col0[cube.rank_of((0, 1, 0))] == -2
        assert col0[cube.rank_of((1, 0, 0))] == 1
        assert sum(abs(c) for c in col0) == 4
        col1 = emb.col_list(1)
        assert col1[cube.rank_of((0, 1, 1))] == 1
        assert col1[cube.rank_of((1, 0, 1))] == -2
        assert col1[cube.rank_of((1, 1, 0))] == 1

    def test_full_column_rank_matches_witt_count(self):
        for r in range(1, 5):
            emb = lie3_embedding(r)
            expected = (r**3 - r) // 3
            assert emb.cols == expected
            assert column_echelon(emb).rank == expected
            # saturated sublattice: all invariant factors are 1
            assert all(d == 1 for d in smith_diagonal(emb))

    def test_sublattice_expansion_stays_in_u_u_q(self):
        # expansions of brackets of U-columns keep the first two tensor
        # factors inside U
        rng = random.Random(9)
        for _ in range(10):
            r = rng.randint(2, 4)
            s = rng.randint(2, r)
            u = random_matrix(rng, r, s)
            from dfw.linalg import column_basis

            u = column_basis(u)
            if u.cols < 2:
                continue
            mapped = kron(kron(u, u), u) @ lie3_embedding(u.cols)
            uuq = kron(kron(u, u), IntMatrix.identity(r))
            assert solve_matrix(uuq, mapped) is not None


class TestLie3Split:
    """The columns of K, read off the unitriangular Lyndon block, against
    the embedding itself and against solving over the integers."""

    def test_defect_of_the_embedding(self):
        for r in range(0, 7):
            emb = lie3_embedding(r)
            k = lie3_defect_matrix(r)
            assert len(lie3_defect(r)) == r**3
            assert k.rows == r**3 - emb.cols and k.cols == r**3
            assert (k @ emb).is_zero

    def test_defect_is_identity_on_non_lyndon_words(self):
        for r in range(0, 7):
            cube = basis("tensor", 3, r)
            other = [i for i, w in enumerate(cube.elements) if not is_lyndon(w)]
            assert lie3_defect_matrix(r).select_columns(other) == IntMatrix.identity(len(other))

    def test_defect_vanishes_exactly_on_the_lie_lattice(self):
        rng = random.Random(31)
        for r in range(0, 7):
            emb = lie3_embedding(r)
            k = lie3_defect_matrix(r)
            for trial in range(12):
                if trial % 3 == 0:  # a random Lie element
                    y = random_matrix(rng, emb.cols, 1)
                    x = emb @ y
                else:  # a random word vector, almost never a Lie element
                    x = random_matrix(rng, r**3, 1, bound=rng.choice((0, 1, 3)))
                coords = solve_matrix(emb, x)
                assert (k @ x).is_zero == (coords is not None)
                if trial % 3 == 0:
                    assert coords == y

    def test_defect_columns_are_the_nonzero_entries(self):
        # no zero entry and no row listed twice, so the dense layout keeps
        # every entry of every column
        for r in range(0, 7):
            columns = [dict(c) for c in lie3_defect(r)]
            assert all(len(dict(c)) == len(c) for c in lie3_defect(r))
            assert dict_columns(lie3_defect_matrix(r)) == columns

    def test_tensor_cube_of_f_keeps_the_lie_lattice(self):
        # K of the target vanishes on the tensor cube of f applied to the
        # Lie cube of the source, which is then 𝓛³(f) read back through
        # the embedding
        rng = random.Random(77)
        for _ in range(30):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            f = random_matrix(rng, a, b)
            image = kron(kron(f, f), f) @ lie3_embedding(b)
            assert (lie3_defect_matrix(a) @ image).is_zero
            assert lie3_embedding(a) @ lie3_induced(f) == image


class TestKoszul:
    def test_rank_one_collapse(self):
        u = IntMatrix.from_rows([[5]])
        cx = koszul_sp(2, u)
        assert cx.terms == (1, 1, 0)
        assert cx.differentials[0] == IntMatrix.from_rows([[5]])

    def test_rank_one_degree_three(self):
        u = IntMatrix.from_rows([[2]])
        cx = koszul_sp(3, u)
        assert cx.terms == (1, 1, 0)
        assert cx.differentials[0] == IntMatrix.from_rows([[2]])

    def test_d_compose_d_zero_random(self):
        rng = random.Random(31)
        for _ in range(25):
            r = rng.randint(1, 4)
            s = rng.randint(0, r)
            from dfw.linalg import column_basis

            u = column_basis(random_matrix(rng, r, s, 5))
            for m in (2, 3, 4):
                cx = koszul_sp(m, u)  # constructor asserts d o d = 0
                assert (cx.differentials[0] @ cx.differentials[1]).is_zero

    def test_dependent_columns_rejected(self):
        # koszul_sp takes independence as a precondition; a dependent
        # lattice is rejected where it enters, by Presentation
        u = IntMatrix.from_cols([[1, 0], [2, 0]], rows=2)
        with pytest.raises(ValueError, match="independent"):
            l1_sp(2, Presentation(2, u))

    def test_free_complex_validates(self):
        with pytest.raises(ValueError, match="d o d is nonzero"):
            FreeComplex(terms=(1, 1, 1), columns=([{0: 1}], [{0: 1}]))

    @pytest.mark.parametrize("terms", [(1, 2, 1), (1, 1, 2), (1, 1), (1, 1, 1, 0)])
    def test_free_complex_column_counts(self, terms):
        columns = ([{0: 1}], [{}])
        assert FreeComplex((1, 1, 1), columns).differentials == (
            IntMatrix.from_rows([[1]]), IntMatrix.zeros(1, 1))
        with pytest.raises(ValueError, match="differential"):
            FreeComplex(terms, columns)


class TestFunctorOnGroup:
    def test_sym2_of_cyclic(self):
        for n in (2, 3, 6):
            g = functor_on_group("sym", 2, PresentedGroup.cyclic(n))
            assert g.canonical == CanonicalForm(0, (n,))

    def test_ext2_of_two_torsion(self):
        g = PresentedGroup.from_invariants(0, (2, 2))
        v = functor_on_group("ext", 2, g)
        assert v.canonical == CanonicalForm(0, (2,))

    def test_superlie3_of_z(self):
        # one bracket {x,x,x} with the cyclic relation 3{x,x,x} = 0
        v = functor_on_group("superlie3", 3, PresentedGroup.free(1))
        assert v.canonical == CanonicalForm(0, (3,))

    def test_sym_relations_free_quotient(self):
        u = IntMatrix.zeros(3, 0)
        assert sym_relations(2, u).cols == 0
        assert ext_relations(2, u).cols == 0
