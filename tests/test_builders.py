"""The sparse builders of the Koszul, Tor and L2Ls3 complexes against the
dense constructions they replaced, the letter tables of koszul_sp against
sorted monomials, the d o d check of FreeComplex against mutants of the
columns the builders hand to it and of a letter table, and the value
path, which reads the builders' columns without a dense differential."""

import random
from collections import Counter

import pytest

from dfw import derived, functors
from dfw.abelian import PresentedGroup
from dfw.derived import (
    NestedPresentation,
    Presentation,
    _tor_koszul_chain_map,
    homology_value,
    induced_cokernel,
    l1_sp,
    l2_superlie3,
    superlie3_cone,
    tor,
    tor_complex,
)
from dfw.functors import (
    FreeComplex,
    basis,
    identity_koszul_sp2,
    koszul_sp,
    lie3_columns,
    lie3_defect,
    sym_relations,
)
from dfw.linalg import (
    IntMatrix,
    clear_caches,
    dict_columns,
    from_dict_columns,
    hstack,
    kernel_basis,
    kron,
    smith_diagonal,
)
from dfw.theorems import SUITES, TrialConfig
from test_derived import nested_over, scrambled_instances


# ------------------------------------------------ the dense constructions

def _sym_times_letter(mono, j):
    return tuple(sorted(mono + (j,)))


def dense_koszul_sp(m, u):
    """(d1, d2) of functors.koszul_sp, one dense column at a time."""
    r, s = u.rows, u.cols
    sp_top, sp_mid, sp_low = (basis("sym", k, r) for k in (m, m - 1, m - 2))
    support = [[(j, v) for j, v in enumerate(u.col_list(i)) if v] for i in range(s)]
    d1_cols = []
    for i in range(s):
        for mono in sp_mid.elements:
            col = [0] * sp_top.size
            for j, v in support[i]:
                col[sp_top.rank_of(_sym_times_letter(mono, j))] += v
            d1_cols.append(col)
    mid_dim = s * sp_mid.size
    d2_cols = []
    for (a, b) in basis("ext", 2, s).elements:
        for mono in sp_low.elements:
            col = [0] * mid_dim
            for j, vb in support[b]:
                col[a * sp_mid.size + sp_mid.rank_of(_sym_times_letter(mono, j))] += vb
            for j, va in support[a]:
                col[b * sp_mid.size + sp_mid.rank_of(_sym_times_letter(mono, j))] -= va
            d2_cols.append(col)
    return (IntMatrix.from_cols(d1_cols, rows=sp_top.size),
            IntMatrix.from_cols(d2_cols, rows=mid_dim))


def vstack(*mats):
    """The matrices, all with the same number of columns, stacked top to
    bottom."""
    return IntMatrix.from_rows([row for m in mats for row in m.to_rows()], cols=mats[0].cols)


def kron_tor(ua, ub):
    """(d1, d2) of the Tor total complex from Kronecker products:
    d1 = [u_a (x) I | I (x) u_b], d2 = (-I (x) u_b; u_a (x) I)."""
    ia, ib = IntMatrix.identity(ua.rows), IntMatrix.identity(ub.rows)
    isa, isb = IntMatrix.identity(ua.cols), IntMatrix.identity(ub.cols)
    return (hstack(kron(ua, ib), kron(ia, ub)),
            vstack(-kron(isa, ub), kron(ua, isb)))


def dense_defect_of_uuq(u):
    """K R_B = K @ ((u (x) u) (x) I_r), with K the columns lie3_defect(r),
    summed over the nonzero entries of u into dense columns."""
    r, s = u.rows, u.cols
    k_cols, k_rows = lie3_defect(r), r**3 - len(lie3_columns(r))
    support = [[(i, v) for i, v in enumerate(u.col_list(a)) if v] for a in range(s)]
    cols = []
    for a in range(s):
        for b in range(s):
            pairs = [((i * r + j) * r, x * y) for i, x in support[a] for j, y in support[b]]
            for c in range(r):
                col = [0] * k_rows
                for base, xy in pairs:
                    for row, v in k_cols[base + c]:
                        col[row] += xy * v
                cols.append(col)
    return IntMatrix.from_cols(cols, rows=k_rows)


def dense_lie3_in_uuq(u):
    """W = (I_{s²} (x) u) emb(s), from the sparse columns of emb(s) into
    dense columns."""
    r, s = u.rows, u.cols
    support = [[(i, v) for i, v in enumerate(u.col_list(c)) if v] for c in range(s)]
    cols = []
    for entries in lie3_columns(s):
        col = [0] * (s * s * r)
        for t, coeff in entries:
            ab, c = divmod(t, s)
            for i, v in support[c]:
                col[ab * r + i] += coeff * v
        cols.append(col)
    return IntMatrix.from_cols(cols, rows=s * s * r)


def oracle_presentations():
    """The 120 seeded scrambled presentations of ambient rank <= 6, then
    quotients with no relations (s = 0), of rank 1 (r = 1) and with free
    summands."""
    out = scrambled_instances(120)
    out += [Presentation(r, IntMatrix.zeros(r, 0)) for r in (1, 2, 4)]
    out += [Presentation(1, IntMatrix.from_rows([[n]])) for n in (1, 2, 6)]
    out += [Presentation.from_group(PresentedGroup.from_invariants(f, t))
            for f, t in ((1, (2, 4)), (2, (6,)), (3, (2, 2)))]
    return out


class TestBuildersAgainstDenseOracles:
    def test_presentations_cover_the_edge_cases(self):
        ps = oracle_presentations()
        assert max(p.ambient_rank for p in ps) == 6
        assert any(p.sublattice.cols == 0 for p in ps)
        assert any(p.ambient_rank == 1 and p.sublattice.cols == 1 for p in ps)
        assert sum(p.quotient().canonical.free_rank > 0 for p in ps) >= 60

    def test_koszul_sp(self):
        for p in oracle_presentations():
            u = p.sublattice
            for m in (2, 3, 4):
                assert koszul_sp(m, u).differentials == dense_koszul_sp(m, u), (m, p.to_dict())

    def test_sym_relations(self):
        # d1 written alone, without d2
        for p in oracle_presentations():
            u = p.sublattice
            for n in (2, 3, 4, 5):
                assert sym_relations(n, u) == dense_koszul_sp(n, u)[0], (n, p.to_dict())

    def test_sym_letter_table(self):
        for r in range(7):
            for d in range(5):
                index = basis("sym", d + 1, r).index
                table = functors._sym_letter_table(d, r)
                assert len(table) == basis("sym", d, r).size
                for mono, row in zip(basis("sym", d, r).elements, table):
                    assert row == tuple(index[_sym_times_letter(mono, j)] for j in range(r)), (d, r, mono)

    def test_tor_complex(self):
        ps = oracle_presentations()
        for p, q in zip(ps, ps[1:] + ps[:1]):
            for a, b in ((p, q), (p, p)):
                assert tor_complex(a.sublattice, b.sublattice).differentials == kron_tor(
                    a.sublattice, b.sublattice), (
                    a.to_dict(), b.to_dict())

    def test_superlie3_cone(self):
        for p in oracle_presentations():
            u = p.sublattice
            assert superlie3_cone(p).differentials == (
                dense_defect_of_uuq(u), dense_lie3_in_uuq(u)), p.to_dict()

    def test_dict_columns_round_trip(self):
        rng = random.Random(11)
        for _ in range(40):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            m = IntMatrix(rows, cols, [rng.choice((0, 0, 1, -3, 2**70)) for _ in range(rows * cols)])
            columns = dict_columns(m)
            assert all(0 not in c.values() for c in columns)
            assert from_dict_columns(rows, columns) == m


# ---------------------------------------------------- the d o d mutants

def bumped(columns, k):
    """A copy of the builder's dict columns with one entry of differential
    k + 1 raised by 1 where d o d must then fail: in d2, an entry in row t
    with column t of d1 nonzero; in d1, an entry in column t with row t
    of d2 nonzero."""
    out = [[dict(c) for c in cols] for cols in columns]
    d1, d2 = out
    j, t = next((j, t) for j, col in enumerate(d2) for t, v in col.items() if v and any(d1[t].values()))
    if k == 1:
        d2[j][t] += 1
    else:
        d1[t][0] = d1[t].get(0, 0) + 1
    return out


BUILDERS = {
    "koszul_sp2": lambda p: koszul_sp(2, p.sublattice),
    "koszul_sp3": lambda p: koszul_sp(3, p.sublattice),
    "tor_complex": lambda p: tor_complex(p.sublattice, p.sublattice),
    "superlie3_cone": superlie3_cone,
}


class TestSparseDodCheck:
    P = Presentation.from_group(PresentedGroup.from_invariants(1, (2, 4)))

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("k", [0, 1])
    def test_bumped_builder_entry_raises(self, monkeypatch, name, k):
        build = BUILDERS[name]
        build(self.P)  # the builder's own columns pass
        real = FreeComplex.__init__

        def mutant(self, terms, columns):
            real(self, terms, bumped(columns, k))

        monkeypatch.setattr(FreeComplex, "__init__", mutant)
        with pytest.raises(ValueError, match="d o d is nonzero"):
            build(self.P)

    def test_swapped_letter_table_raises(self, monkeypatch):
        # swap two entries of the row of x_0 in the table that d2 of
        # koszul_sp(3) reads, at the letters of the first two sublattice
        # vectors
        u = self.P.sublattice
        p, q = (next(iter(c)) for c in dict_columns(u)[:2])
        real = functors._sym_letter_table
        real.cache_clear()

        def mutant(d, r):
            table = real(d, r)
            if d != 1:
                return table
            row = list(table[0])
            row[p], row[q] = row[q], row[p]
            return (tuple(row),) + table[1:]

        monkeypatch.setattr(functors, "_sym_letter_table", mutant)
        try:
            with pytest.raises(ValueError, match="d o d is nonzero"):
                koszul_sp(3, u)
        finally:
            real.cache_clear()

    @pytest.mark.parametrize("k", [0, 1])
    def test_bumped_dense_entry_raises(self, k):
        # a complex given by matrices is checked on the columns listed
        # from their entries
        cx = koszul_sp(3, self.P.sublattice)
        columns = bumped([dict_columns(d) for d in cx.differentials], k)
        dense = tuple(from_dict_columns(n, c) for n, c in zip(cx.terms, columns))
        with pytest.raises(ValueError, match="d o d is nonzero"):
            FreeComplex(cx.terms, tuple(dict_columns(d) for d in dense))

    def test_non_lie_column_of_w_raises(self, monkeypatch):
        # the pure tensor e0 (x) e0 (x) e0 in place of the first Lyndon
        # bracket: W sends it to u0 (x) u0 (x) u0, which is no Lie element
        real = lie3_columns
        monkeypatch.setattr(derived, "lie3_columns", lambda s: (((0, 1),),) + real(s)[1:])
        p = Presentation.from_group(PresentedGroup.from_invariants(0, (2, 4)))
        with pytest.raises(ValueError, match="d o d is nonzero"):
            superlie3_cone(p)

    def test_f1_off_the_cycles_raises(self):
        outer = IntMatrix.from_cols([[2, 0, 0], [1, 3, 0]], rows=3)
        np = nested_over(Presentation(3, outer), random.Random(5))
        src = tor_complex(np.outer, np.inner)
        dst = koszul_sp(2, np.outer)
        f0, f1, f2 = _tor_koszul_chain_map(np)
        induced_cokernel(src, dst, (f0, f1, f2), np.outer_torsion_order, 2)
        d1, d2 = dst.differentials
        cycles = kernel_basis(src.differentials[0])
        # raise one entry (i, t) of f1 with column i of d1 and row t of
        # the source cycles nonzero, so that d1 f1 is nonzero on a cycle
        i, t = next((i, t) for i in range(f1.rows) for t in range(f1.cols)
                    if any(d1.col_list(i)) and any(cycles.entry(t, c) for c in range(cycles.cols)))
        entries = list(f1.entries)
        entries[t * f1.rows + i] += 1
        bad = IntMatrix(f1.rows, f1.cols, entries)
        with pytest.raises(AssertionError, match="degree-1 chain square"):
            induced_cokernel(src, dst, (f0, bad, f2), np.outer_torsion_order, 2)
        # the complex induced_cokernel reads, built from the bad f1
        d2_aug = hstack(d2, bad @ cycles)
        with pytest.raises(ValueError, match="d o d is nonzero"):
            FreeComplex((d1.rows, d1.cols, d2_aug.cols), (dst.columns[0], dict_columns(d2_aug)))


class TestSmithCache:
    def test_derived_values_stay_out_of_the_cache(self):
        p = Presentation.from_group(PresentedGroup.from_invariants(1, (2, 4)))
        clear_caches()
        values = [l1_sp(2, p), l1_sp(3, p), l2_superlie3(p), tor(p, p),
                  homology_value(koszul_sp(4, p.sublattice), p.torsion_order, 4)]
        assert smith_diagonal.cache_info().currsize == 0
        assert [str(v.canonical) for v in values] == [
            "Z/2", "Z/2 + Z/2 + Z/2", "Z/2 + Z/2", "Z/2 + Z/2 + Z/2 + Z/4", " + ".join(["Z/2"] * 6)]
        # relation matrices still go through it
        g = PresentedGroup(2, IntMatrix.from_cols([[2, 2], [0, 4]], rows=2))
        assert str(g.canonical) == "Z/2 + Z/4"
        assert smith_diagonal.cache_info().misses == 1


class TestValuePathIsSparse:
    def test_values_build_no_dense_differential(self, monkeypatch):
        def refuse(rows, columns):
            raise AssertionError("a dense differential was built")

        monkeypatch.setattr(functors, "from_dict_columns", refuse)
        p = Presentation.from_group(PresentedGroup.from_invariants(1, (2, 4)))
        q = Presentation.from_group(PresentedGroup.from_invariants(0, (2, 4, 8)))
        values = [l1_sp(2, p), l1_sp(3, p), l1_sp(4, p), tor(p, p), l2_superlie3(p),
                  l1_sp(4, q), l2_superlie3(q)]
        assert [str(v.canonical) for v in values] == [
            "Z/2", "Z/2 + Z/2 + Z/2", " + ".join(["Z/2"] * 6), "Z/2 + Z/2 + Z/2 + Z/4",
            "Z/2 + Z/2", " + ".join(["Z/2"] * 12 + ["Z/4"] * 3),
            " + ".join(["Z/2"] * 6 + ["Z/4"] * 2)]
        # a caller that asks for the matrices still gets them laid out
        with pytest.raises(AssertionError, match="dense differential"):
            koszul_sp(2, p.sublattice).differentials


class TestIdentityKoszul:
    """identity_koszul_sp2(r), the Koszul complex of the identity lattice
    that sp2_bottom_row, the Tor comparison map and thm32 read, is
    koszul_sp(2, I_r) built once per rank."""

    def test_equals_a_fresh_build(self):
        for r in range(1, 7):
            cx, fresh = identity_koszul_sp2(r), koszul_sp(2, IntMatrix.identity(r))
            assert cx.terms == fresh.terms
            assert cx.columns == fresh.columns
            assert cx.differentials == fresh.differentials
            assert identity_koszul_sp2(r) is cx

    def test_built_once_per_rank(self, monkeypatch):
        # count the builds of the identity complex, leaving out those of a
        # trial's own lattices, which may happen to be the identity
        real = functors.koszul_sp
        builds, own = Counter(), []

        def counting(m, u):
            if u == IntMatrix.identity(u.rows) and u not in own:
                builds[u.rows] += 1
            return real(m, u)

        monkeypatch.setattr(functors, "koszul_sp", counting)
        identity_koszul_sp2.cache_clear()
        cfg, rng = TrialConfig(), random.Random(29)
        trials = Counter()
        for name in ("exact4", "thm32"):
            suite = SUITES[name]
            for _ in range(25):
                instance = suite.sample(rng, cfg)
                if name == "exact4":
                    p = Presentation.from_dict(instance["presentation"])
                    own[:] = [p.sublattice]
                else:
                    np = NestedPresentation.from_dict(instance["nested"])
                    own[:] = [np.inner, np.outer]
                trials[own[0].rows] += 1
                assert suite.evaluate(instance)[0], (name, instance)
        # some rank sees several trials, so building per trial would show
        assert max(trials.values()) > 1 and builds
        assert all(n == 1 for n in builds.values()), builds
