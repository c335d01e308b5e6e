import functools
import itertools
import math
import random

import pytest

from dfw import _kernels, linalg
from dfw.linalg import (
    IntMatrix,
    block_diag,
    column_basis,
    column_echelon,
    hstack,
    kernel_basis,
    kron,
    preimage_basis,
    smith_diagonal,
    solve_matrix,
    span_contains,
)
from test_builders import vstack


def _laplace_det(m, rows, cols):
    # Independent determinant for the minor-gcd oracle and the unimodular
    # transforms: recursive Laplace expansion, memoized on the index subsets.
    @functools.lru_cache(maxsize=None)
    def det(rs, cs):
        if not rs:
            return 1
        r0 = rs[0]
        total = 0
        sign = 1
        for pos, c in enumerate(cs):
            e = m.entry(r0, c)
            if e:
                total += sign * e * det(rs[1:], cs[:pos] + cs[pos + 1:])
            sign = -sign
        return total

    return det(rows, cols)


def minor_gcd_diagonal(m):
    """Expected Smith diagonal via d_k = g_k / g_{k-1}, g_k the gcd of all
    k x k minors (g_0 = 1)."""
    n = min(m.rows, m.cols)
    diag = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, _laplace_det(m, rs, cs))
        if g == 0:
            diag.extend([0] * (n - k + 1))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def random_matrix(rng, rows, cols, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


class TestSmith:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        # minor-gcd oracle: g1 = gcd(2,4,6,8) = 2, g2 = |det| = 8, d2 = 8/2
        assert smith_diagonal(m) == minor_gcd_diagonal(m) == (2, 4)

    def test_identity(self):
        assert smith_diagonal(IntMatrix.identity(3)) == (1, 1, 1)

    def test_zero(self):
        assert smith_diagonal(IntMatrix.zeros(2, 2)) == (0, 0)

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            assert smith_diagonal(IntMatrix.zeros(r, c)) == ()

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(20210)
        for _ in range(120):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
            assert smith_diagonal(m) == minor_gcd_diagonal(m)


class TestKernel:
    def test_line(self):
        m = IntMatrix.from_rows([[1, 1]])
        k = kernel_basis(m)
        assert k.cols == 1
        assert (m @ k).is_zero
        assert sorted(k.col_list(0)) == [-1, 1]

    def test_injective(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert kernel_basis(m).cols == 0

    def test_primitive(self):
        # exhaustive search over small coordinates confirms primitivity
        m = IntMatrix.from_rows([[2, 4]])
        k = kernel_basis(m)
        assert k.cols == 1
        for x in range(-5, 6):
            for y in range(-5, 6):
                if 2 * x + 4 * y == 0:
                    assert solve_matrix(k, IntMatrix.from_cols([[x, y]], rows=k.rows)) is not None

    def test_saturation_random(self):
        rng = random.Random(4711)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), 4)
            k = kernel_basis(m)
            assert (m @ k).is_zero
            # rejection-sampled kernel vectors must be solvable in the basis
            for vec in itertools.product(range(-3, 4), repeat=m.cols):
                if any(vec) and all(
                    sum(m.entry(i, j) * vec[j] for j in range(m.cols)) == 0
                    for i in range(m.rows)
                ):
                    assert solve_matrix(k, IntMatrix.from_cols([vec], rows=k.rows)) is not None


class TestSolve:
    def test_diagonal(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert solve_matrix(m, IntMatrix.from_cols([[4, 9]], rows=m.rows)) == IntMatrix.from_cols([[2, 3]])

    def test_parity_obstruction(self):
        assert solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])) is None

    def test_multiply_back_random(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 6)
            x0 = [rng.randint(-5, 5) for _ in range(m.cols)]
            b = [sum(m.entry(i, j) * x0[j] for j in range(m.cols)) for i in range(m.rows)]
            x = solve_matrix(m, IntMatrix.from_cols([b], rows=m.rows))
            assert x is not None
            x = x.col_list(0)
            got = [sum(m.entry(i, j) * x[j] for j in range(m.cols)) for i in range(m.rows)]
            assert got == b
            # any two solutions differ by a kernel element
            k = kernel_basis(m)
            diff = [a - c for a, c in zip(x0, x)]
            assert solve_matrix(k, IntMatrix.from_cols([diff], rows=k.rows)) is not None

    def test_solve_matrix_batches(self):
        rng = random.Random(5)
        m = random_matrix(rng, 3, 4, 5)
        x0 = random_matrix(rng, 4, 3, 4)
        b = m @ x0
        x = solve_matrix(m, b)
        assert x is not None and m @ x == b

    def test_zero_rows(self):
        m = IntMatrix.zeros(0, 3)
        assert solve_matrix(m, IntMatrix.from_cols([[]], rows=0)) == IntMatrix.from_cols([[0, 0, 0]])


class TestEchelonAndPreimage:
    def test_echelon_properties(self):
        rng = random.Random(7)
        for _ in range(80):
            m = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 5), 7)
            ech = column_echelon(m)
            n = m.cols
            assert abs(_laplace_det(ech.transform, tuple(range(n)), tuple(range(n)))) == 1
            assert m @ ech.transform == ech.echelon
            # pivots positive, strictly descending start rows, zero tail
            for j, prow in enumerate(ech.pivot_rows):
                col = ech.echelon.col_list(j)
                assert col[prow] > 0
                assert not any(col[:prow])
            for j in range(ech.rank, m.cols):
                assert not any(ech.echelon.col_list(j))

    def test_hermite_without_transform_same_echelon(self):
        rng = random.Random(17)
        for _ in range(80):
            m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), 7)
            h, v, piv = _kernels.hermite_cols(m.entries, m.rows, m.cols)
            h2, v2, piv2 = _kernels.hermite_cols(m.entries, m.rows, m.cols, False)
            assert (h2, piv2) == (h, piv)
            assert v2 is None

    def test_rank_is_pivot_count(self):
        rng = random.Random(23)
        for n in range(80):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            if n % 2:
                m = random_matrix(rng, r, c, 7)
            else:
                # through a thinner middle, so that pivot rows skip
                k = rng.randint(0, 3)
                m = random_matrix(rng, r, k, 4) @ random_matrix(rng, k, c, 4)
            _, _, piv = _kernels.hermite_cols(m.entries, m.rows, m.cols)
            # the pass without transform, which the Smith diagonal runs
            assert _kernels.hermite_cols(m.entries, m.rows, m.cols, False)[2] == piv
            assert sum(1 for d in smith_diagonal(m) if d) == len(piv)

    def test_column_basis_spans(self):
        m = IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]])
        cb = column_basis(m)
        assert cb.cols == 1
        assert solve_matrix(cb, m) is not None

    def test_preimage(self):
        # {x : 2x in 4Z} = 2Z
        m = IntMatrix.from_rows([[2]])
        span = IntMatrix.from_rows([[4]])
        p = preimage_basis(m, span)
        assert p.cols == 1 and abs(p.entry(0, 0)) == 2


def two_pass_preimage(m, span):
    """The preimage {x : m x in span(span)} by the formula that the stacked
    pass of preimage_basis replaced: the kernel of [m | span], with its
    transform, projected onto m's coordinates, then its echelon basis."""
    return column_basis(kernel_basis(hstack(m, span)).top_rows(m.cols))


def sample_matrices(rng, count, max_dim=5, rows=None):
    """Seeded random matrices up to max_dim x max_dim (with `rows` rows if
    given): every empty shape (0 rows or 0 columns) first, and then in
    turn random, zero, full-rank (independent columns or rows) and
    low-rank ones."""
    out = [IntMatrix.zeros(r, c) for r in range(3) for c in range(3)
           if not r * c and rows in (None, r)]
    for n in range(count):
        r = rng.randint(0, max_dim) if rows is None else rows
        c = rng.randint(0, max_dim)
        if n % 4 == 0:
            m = random_matrix(rng, r, c, 7)
        elif n % 4 == 1:
            m = IntMatrix.zeros(r, c)
        elif n % 4 == 2:
            while True:
                m = random_matrix(rng, r, c, 7)
                if column_echelon(m).rank == min(r, c):
                    break
        else:
            k = rng.randint(0, 2)
            m = random_matrix(rng, r, k, 4) @ random_matrix(rng, k, c, 4)
        out.append(m)
    return out


def in_and_out_of_span(rng, m):
    """Right-hand sides for m: columns in its span, random columns, and
    span columns with one random column among them."""
    inside = m @ random_matrix(rng, m.cols, rng.randint(0, 3), 5)
    outside = random_matrix(rng, m.rows, rng.randint(1, 3), 5)
    return [inside, outside, hstack(inside, outside.select_columns([0]))]


class TestTransformFreePaths:
    """column_basis, span_contains and preimage_basis run one Hermite pass
    without transform; the Hermite form is unique for a lattice, so each
    agrees entry for entry with the transform path it replaced."""

    def test_span_contains_agrees_with_solve(self):
        rng = random.Random("span-contains")
        seen = {True: 0, False: 0}
        for m in sample_matrices(rng, 160):
            for b in in_and_out_of_span(rng, m):
                got = span_contains(m, b)
                assert got == (solve_matrix(m, b) is not None), (m, b)
                seen[got] += 1
        assert min(seen.values()) > 50

    def test_span_contains_needs_divisibility(self):
        # 3 is not in 2Z, 6 is; a row outside every pivot rules a column out
        two = IntMatrix.from_rows([[2]])
        assert not span_contains(two, IntMatrix.from_rows([[3]]))
        assert span_contains(two, IntMatrix.from_rows([[6, -4]]))
        assert not span_contains(two, IntMatrix.from_rows([[6, 3]]))
        assert not span_contains(IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[0], [1]]))
        assert span_contains(IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 3))
        assert span_contains(IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 2))
        with pytest.raises(ValueError):
            span_contains(two, IntMatrix.zeros(2, 1))

    def test_column_basis_is_the_echelon_of_the_transform_pass(self):
        rng = random.Random("column-basis")
        for m in sample_matrices(rng, 160):
            ech = column_echelon(m)
            assert column_basis(m) == ech.echelon.select_columns(range(ech.rank)), m

    def test_preimage_matches_two_pass_formula(self):
        rng = random.Random("preimage")
        proper = 0
        for m in sample_matrices(rng, 120):
            for s in sample_matrices(rng, 4, max_dim=4, rows=m.rows):
                got = preimage_basis(m, s)
                assert got == two_pass_preimage(m, s), (m, s)
                assert span_contains(s, m @ got)
                proper += got != IntMatrix.identity(m.cols)
        assert proper > 150

    def test_preimage_empty_shapes(self):
        for r, c, k in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 3)]:
            m, s = IntMatrix.zeros(r, c), IntMatrix.zeros(r, k)
            assert preimage_basis(m, s) == IntMatrix.identity(c) == two_pass_preimage(m, s)
        with pytest.raises(ValueError):
            preimage_basis(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 1))


def test_clear_caches_empties_every_cache():
    # the benchmark's reset relies on clear_caches reaching every cache of
    # the module, including any added later
    caches = [f for f in vars(linalg).values() if hasattr(f, "cache_info")]
    assert len(caches) >= 3
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    column_basis(m)
    kernel_basis(m)
    smith_diagonal(m)
    span_contains(m, m)
    assert all(f.cache_info().currsize for f in caches)
    linalg.clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)


class TestMatrixBasics:
    def test_matmul_and_stacks(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
        assert hstack(a, b).cols == 4
        assert vstack(a, b).rows == 4
        assert block_diag(a, b).rows == 4
        assert kron(IntMatrix.identity(2), a).rows == 4

    def test_kron_indexing(self):
        a = IntMatrix.from_rows([[2]])
        b = IntMatrix.from_rows([[1, 0], [0, 1]])
        k = kron(a, b)
        assert k == IntMatrix.from_rows([[2, 0], [0, 2]])

    @pytest.mark.parametrize("bad", [1.5, "3", True])
    def test_public_constructors_reject_non_int_entries(self, bad):
        # entry types are checked where data enters; nothing is converted
        with pytest.raises(TypeError):
            IntMatrix(2, 1, (1, bad))
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[bad, 1]])
        with pytest.raises(TypeError):
            IntMatrix.from_cols([[1], [bad]])

    def test_validation(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, (1.5,))
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix.identity(2).top_rows(3)
        for j in (-1, 2):
            with pytest.raises(IndexError):
                IntMatrix.identity(2).select_columns([0, j])
        big = 10**40
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert smith_diagonal(m) == (1, big * big - 1)

