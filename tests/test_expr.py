import random

import pytest

from dfw.abelian import CanonicalForm, PresentedGroup
from dfw.derived import Presentation, superlie3_cone, tor_complex
from dfw.expr import (
    TERM_BUDGET,
    CyclicAtom,
    FreeAtom,
    FunctorCall,
    ParseError,
    RelationsAtom,
    SemanticError,
    SumExpr,
    TrivialAtom,
    evaluate,
    parse,
    term_dimensions,
)
from dfw.functors import functor_on_group, koszul_sp
from dfw.linalg import IntMatrix


class TestParsing:
    def test_functor_over_sum(self):
        node = parse("L1SP^2(Z/2 + Z/4)")
        assert isinstance(node, FunctorCall)
        assert node.name == "L1SP" and node.degree == 2
        assert node.args == (SumExpr((CyclicAtom(2), CyclicAtom(4))),)

    def test_binary_tor(self):
        node = parse("Tor(Z/4, Z/6)")
        assert node == FunctorCall("Tor", None, (CyclicAtom(4), CyclicAtom(6)))

    def test_atoms(self):
        assert parse("Z") == FreeAtom(1)
        assert parse("Z^0") == FreeAtom(0)
        assert parse("Z^3") == FreeAtom(3)
        assert parse("0") == TrivialAtom()
        assert parse("(Z/2 + Z) + Z/9") == SumExpr(
            (SumExpr((CyclicAtom(2), FreeAtom(1))), CyclicAtom(9))
        )

    def test_nodes_compare_without_offsets(self):
        assert parse("Tor(Z/4, Z^2)") == FunctorCall("Tor", None, (CyclicAtom(4, 7), FreeAtom(2, 12)))
        assert FreeAtom(2, 0) == FreeAtom(2, 9) and hash(FreeAtom(2, 0)) == hash(FreeAtom(2, 9))
        assert SumExpr((TrivialAtom(3),), 1) == SumExpr((TrivialAtom(),))
        assert FreeAtom(2) != FreeAtom(3)

    def test_nodes_of_different_types_differ(self):
        # equal fields, different node types
        assert FreeAtom(2) != CyclicAtom(2)
        assert TrivialAtom() != RelationsAtom()
        assert parse("Z^2") != parse("Z/2")
        assert len({FreeAtom(2), CyclicAtom(2), TrivialAtom(), RelationsAtom()}) == 4

    def test_cyclic_order_validation(self):
        with pytest.raises(SemanticError):
            parse("Z/1")
        with pytest.raises(SemanticError):
            parse("Z/0")

    def test_degree_bounds(self):
        parse("SP^5(Z)")
        with pytest.raises(SemanticError):
            parse("SP^6(Z)")
        with pytest.raises(SemanticError):
            parse("L1SP^5(Z)")
        with pytest.raises(SemanticError):
            parse("Lambda^3(Z)")

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(ParseError) as err:
            parse("Z/2 + $")
        assert err.value.offset == 6
        with pytest.raises(ParseError) as err:
            parse("Tor(Z/2)")
        assert err.value.offset == 7
        with pytest.raises(ParseError) as err:
            parse("Z/2 Z")
        assert err.value.offset == 4
        with pytest.raises(ParseError):
            parse("Frob(Z)")
        with pytest.raises(ParseError):
            parse("")

    def test_nodes_carry_their_offsets(self):
        node = parse("Tor(Z/2 + Z^3, (0 + G))")
        assert node.offset == 0
        first, second = node.args
        assert [first.offset] + [p.offset for p in first.parts] == [4, 4, 10]
        assert [second.offset] + [p.offset for p in second.parts] == [16, 16, 20]

    def test_nested_functors_rejected(self):
        with pytest.raises(ParseError):
            parse("SP^2(L1SP^2(Z/2))")


class TestEvaluation:
    def test_tor_gcd(self):
        assert str(evaluate(parse("Tor(Z/4, Z/6)")).canonical) == "Z/2"

    def test_l1sp2_closed_form(self):
        assert str(evaluate(parse("L1SP^2(Z/2 + Z/4)")).canonical) == "Z/2"

    def test_l2ls3_rank_one(self):
        assert str(evaluate(parse("L2Ls3(Z/5)")).canonical) == "0"

    def test_plain_functors(self):
        assert str(evaluate(parse("SP^2(Z/3)")).canonical) == "Z/3"
        assert str(evaluate(parse("Lambda^2(Z/2 + Z/2)")).canonical) == "Z/2"
        assert str(evaluate(parse("Ls3(Z)")).canonical) == "Z/3"
        assert str(evaluate(parse("H2(Z/2 + Z/2)")).canonical) == "Z/2"

    def test_lie3_embedding_rank(self):
        assert evaluate(parse("Lie3embed-rank(Z^2)")).canonical == CanonicalForm(2, ())
        for text, offset in (("Lie3embed-rank(Z/2)", 15), ("Lie3embed-rank( Z + Z/2)", 16)):
            with pytest.raises(SemanticError) as err:
                evaluate(parse(text))
            assert err.value.offset == offset

    def test_relations_atom(self):
        g = PresentedGroup.cyclic(6)
        assert str(evaluate(parse("G + Z/4"), g).canonical) == "Z/2 + Z/12"
        for text, offset in (("G", 0), ("Z + G", 4), ("SP^2(Z/2 + G)", 11)):
            with pytest.raises(SemanticError) as err:
                evaluate(parse(text))
            assert err.value.offset == offset

    def test_round_trip_random_groups(self):
        rng = random.Random(1234)
        for _ in range(100):
            free = rng.randint(0, 3)
            tors = []
            d = 1
            for _ in range(rng.randint(0, 3)):
                d *= rng.randint(2, 5)
                tors.append(d)
            g = PresentedGroup.from_invariants(free, tors)
            printed = str(g.canonical)
            again = evaluate(parse(printed))
            assert again.canonical == g.canonical


def lower_sublattice(rng, r, s):
    """An r x s lattice with independent columns: 2 on the diagonal,
    random entries below it."""
    return IntMatrix.from_cols(
        [[0] * j + [2] + [rng.randint(-3, 3) for _ in range(r - j - 1)] for j in range(s)],
        rows=r,
    )


class TestBudgets:
    def test_closed_forms_match_the_built_terms(self):
        rng = random.Random(55)
        for r in range(0, 5):
            for s in range(0, r + 1):
                u = lower_sublattice(rng, r, s)
                p = Presentation(r, u)
                g = PresentedGroup(r, u)
                for m in (2, 3, 4, 5):
                    built = koszul_sp(m, u).terms
                    assert term_dimensions("SP", m, [(r, s)]) == built
                    sp = functor_on_group("sym", m, g)
                    assert (sp.rank, sp.relations.cols) == built[:2]
                    if m <= 4:
                        assert term_dimensions("L1SP", m, [(r, s)]) == built
                assert term_dimensions("L2Ls3", None, [(r, s)]) == superlie3_cone(p).terms
                for name, kind, degree in (("Lambda", "ext", 2), ("Ls3", "superlie3", 3)):
                    value = functor_on_group(kind, degree, g)
                    assert term_dimensions(name, degree, [(r, s)]) == (
                        value.rank, value.relations.cols
                    )
                r2 = rng.randint(0, 4)
                s2 = rng.randint(0, r2)
                q = Presentation(r2, lower_sublattice(rng, r2, s2))
                assert term_dimensions("Tor", None, [(r, s), (r2, s2)]) == tor_complex(p, q).terms

    def test_over_budget_is_rejected_before_building(self, monkeypatch):
        def never(*args):
            raise AssertionError("an over-budget expression reached a functor")

        monkeypatch.setattr("dfw.expr.functor_on_group", never)
        with pytest.raises(SemanticError) as err:
            evaluate(parse("SP^5(Z^200)"))
        assert err.value.offset == 0 and "budget" in str(err.value)
        with pytest.raises(SemanticError) as err:
            evaluate(parse("Z/2 + Z^%d" % TERM_BUDGET))
        assert err.value.offset == 0
        with pytest.raises(SemanticError):
            evaluate(parse("Lambda^2(G)"), PresentedGroup.free(TERM_BUDGET))

    def test_budget_is_inclusive(self):
        assert evaluate(parse("Z^%d" % TERM_BUDGET)).canonical == CanonicalForm(TERM_BUDGET, ())
        with pytest.raises(SemanticError):
            evaluate(parse("Z^%d" % (TERM_BUDGET + 1)))
