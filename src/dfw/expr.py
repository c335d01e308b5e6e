"""Expression language for groups and functor applications.

Group expressions are sums of atoms: Z, Z^k, Z/n (n >= 2), the literal 0,
parenthesized sums, and G for a group loaded from a relations file.
Functor expressions apply one functor to group arguments:

    SP^n(_)  Lambda^2(_)  Ls3(_)  L1SP^n(_)  L2Ls3(_)  Tor(_, _)
    H2(_)    Lie3embed-rank(_)

Degree bounds: SP 2..5, L1SP 2..4, Lambda exactly 2.  Parse and
evaluation errors carry the byte offset of the offending token; every
AST node records the offset where it starts.

Before anything is built, evaluate computes in closed form the ranks of
the free lattices the expression would build (term_dimensions) and
rejects the expression when one of them exceeds TERM_BUDGET.

Names are ASCII letters and digits, words joined by a dash as in
Lie3embed-rank; an integer is a run of decimal digits of any script
(str.isdecimal), so Z/3 written with the Arabic-Indic three (U+0663) is
Z/3.  Importing the module builds its classes and a few tables, nothing
more: the tokenizer is a scanner written out by hand rather than a
compiled regular expression, tokens are __slots__ objects rather than
named tuples, and no typing alias is made, so `dfw eval` starts quickly.
dfw.functors and dfw.derived are imported where a functor call is
evaluated, so a plain group expression loads neither.
"""

from collections.abc import Sequence
from math import comb

from .abelian import PresentedGroup, direct_sum


class ExprError(ValueError):
    """Base for parse and semantic failures, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ParseError(ExprError):
    pass


class SemanticError(ExprError):
    pass


# ------------------------------------------------------------------- AST
# offset: the byte offset where the node starts in the source; it plays
# no part in comparing nodes.  Nodes are equal when they have the same
# type and equal fields, so FreeAtom(2) != CyclicAtom(2).

class _Node:
    __slots__ = ("offset",)
    _fields: tuple[str, ...] = ()

    def __init__(self, offset: int = 0):
        self.offset = offset

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields + ("offset",))
        return f"{type(self).__name__}({fields})"


class FreeAtom(_Node):
    __slots__ = _fields = ("copies",)

    def __init__(self, copies: int, offset: int = 0):
        self.copies = copies
        self.offset = offset


class CyclicAtom(_Node):
    __slots__ = _fields = ("order",)

    def __init__(self, order: int, offset: int = 0):
        self.order = order
        self.offset = offset


class TrivialAtom(_Node):
    __slots__ = ()


class RelationsAtom(_Node):
    __slots__ = ()


class SumExpr(_Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple["GroupExpr", ...], offset: int = 0):
        self.parts = parts
        self.offset = offset


# A GroupExpr, as the annotations name it, is a FreeAtom, CyclicAtom,
# TrivialAtom, RelationsAtom or SumExpr.  The annotations quote it, so
# no typing alias is built for it.


class FunctorCall(_Node):
    __slots__ = _fields = ("name", "degree", "args")

    def __init__(self, name: str, degree: int | None, args: tuple["GroupExpr", ...],
                 offset: int = 0):
        self.name = name
        self.degree = degree
        self.args = args
        self.offset = offset


# -------------------------------------------------------------- tokenizer

_KEYWORDS = ("Lie3embed-rank", "Lambda", "L2Ls3", "L1SP", "Ls3", "Tor", "SP", "H2", "Z", "G")
_PUNCTUATION = "^/+(),"

_UNARY = {"SP", "Lambda", "Ls3", "L1SP", "L2Ls3", "H2", "Lie3embed-rank"}
_DEGREES = {"SP": (2, 5), "L1SP": (2, 4), "Lambda": (2, 2)}


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind  # keyword text, "INT", a punctuation char, or "END"
        self.text = text
        self.offset = offset  # byte offset into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _word_end(text: str, pos: int) -> int:
    """End of the run of ASCII letters and digits that starts at pos."""
    n = len(text)
    while pos < n and text[pos].isascii() and text[pos].isalnum():
        pos += 1
    return pos


def _tokenize(text: str) -> list[_Token]:
    """Split text into tokens, skipping whitespace.  A token is a name
    (ASCII letters and digits that start with a letter, dash-joined words
    such as Lie3embed-rank), a run of decimal digits (str.isdecimal, so
    other scripts' digits too) or one of the characters ^/+(),."""
    out: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        off = _byte_offset(text, pos)
        if ch.isascii() and ch.isalpha():
            end = _word_end(text, pos)
            # a dash continues a name only when a letter follows it
            while (end + 1 < n and text[end] == "-" and text[end + 1].isascii()
                   and text[end + 1].isalpha()):
                end = _word_end(text, end + 1)
            tok = text[pos:end]
            if tok not in _KEYWORDS:
                raise ParseError(f"unknown name {tok!r}", off)
            out.append(_Token(tok, tok, off))
        elif ch.isdecimal():
            end = pos + 1
            while end < n and text[end].isdecimal():
                end += 1
            out.append(_Token("INT", text[pos:end], off))
        elif ch in _PUNCTUATION:
            end = pos + 1
            out.append(_Token(ch, ch, off))
        else:
            raise ParseError(f"unexpected character {ch!r}", off)
        pos = end
    out.append(_Token("END", "", _byte_offset(text, n)))
    return out


# ----------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {what!r}", tok.offset)
        return self.advance()

    def parse(self) -> "GroupExpr | FunctorCall":
        tok = self.peek()
        if tok.kind in _UNARY or tok.kind == "Tor":
            node = self.functor()
        else:
            node = self.sum()
        end = self.peek()
        if end.kind != "END":
            raise ParseError(f"trailing input {end.text!r}", end.offset)
        return node

    def functor(self) -> FunctorCall:
        tok = self.advance()
        name = tok.kind
        degree = None
        if name in _DEGREES:
            self.expect("^")
            dtok = self.expect("INT")
            degree = int(dtok.text)
            lo, hi = _DEGREES[name]
            if not lo <= degree <= hi:
                raise SemanticError(f"{name} degree must be in {lo}..{hi}", dtok.offset)
        self.expect("(")
        args = [self.sum()]
        if name == "Tor":
            self.expect(",")
            args.append(self.sum())
        self.expect(")")
        return FunctorCall(name, degree, tuple(args), tok.offset)

    def sum(self) -> "GroupExpr":
        parts = [self.term()]
        while self.peek().kind == "+":
            self.advance()
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        return SumExpr(tuple(parts), parts[0].offset)

    def term(self) -> "GroupExpr":
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.sum()
            self.expect(")")
            return inner
        if tok.kind == "Z":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "^":
                self.advance()
                k = int(self.expect("INT").text)
                return FreeAtom(k, tok.offset)
            if nxt.kind == "/":
                self.advance()
                ntok = self.expect("INT")
                n = int(ntok.text)
                if n < 2:
                    raise SemanticError("cyclic order must be >= 2", ntok.offset)
                return CyclicAtom(n, tok.offset)
            return FreeAtom(1, tok.offset)
        if tok.kind == "INT":
            if tok.text == "0":
                self.advance()
                return TrivialAtom(tok.offset)
            raise ParseError("bare integers other than 0 are not groups", tok.offset)
        if tok.kind == "G":
            self.advance()
            return RelationsAtom(tok.offset)
        what = tok.text or "end of input"
        raise ParseError(f"expected a group atom, found {what!r}", tok.offset)


def parse(text: str) -> "GroupExpr | FunctorCall":
    """Parse a group or functor expression; raises ParseError or
    SemanticError with the byte offset of the problem."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- budgets

TERM_BUDGET = 2048
"""The largest rank of a free lattice that evaluating an expression may
build; larger inputs are rejected before anything is built."""


def _multisets(letters: int, size: int) -> int:
    return comb(letters + size - 1, size) if size else 1


def _lie3(rank: int) -> int:
    return (rank**3 - rank) // 3


def term_dimensions(name: str, degree: int | None,
                    dims: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Ranks of the free lattices that the functor `name` builds on
    arguments with (generators, independent relations) = dims, in closed
    form: the terms of the complex its value is read from, or the
    generators and relations of the presentation it returns."""
    p, s = dims[0]
    if name in ("SP", "L1SP"):  # the Koszul-type complex of functors.koszul_sp
        return (_multisets(p, degree), s * _multisets(p, degree - 1),
                comb(s, 2) * _multisets(p, degree - 2))
    if name in ("Lambda", "H2"):
        return (comb(p, 2), s * p)
    if name == "Ls3":  # three slot families, symmetric and cyclic relations
        return (p**3, 3 * s * p * p + comb(p, 2) * p + (p**3 + 2 * p) // 3)
    if name == "L2Ls3":  # the reduced cone of derived.superlie3_cone
        return (p**3 - _lie3(p), s * s * p, _lie3(s))
    if name == "Tor":
        q, t = dims[1]
        return (p * q, s * q + p * t, s * t)
    if name == "Lie3embed-rank":
        return (p, s)
    raise TypeError(f"unknown functor {name!r}")


def _dims(node: "GroupExpr", relations_group: PresentedGroup | None) -> tuple[int, int]:
    """(generators, bound on independent relations) of a group expression,
    read from the syntax tree without building the group."""
    if isinstance(node, FreeAtom):
        return node.copies, 0
    if isinstance(node, CyclicAtom):
        return 1, 1
    if isinstance(node, TrivialAtom):
        return 0, 0
    if isinstance(node, RelationsAtom):
        if relations_group is None:
            raise SemanticError("no relations file loaded for G", node.offset)
        g = relations_group
        return g.rank, min(g.rank, g.relations.cols)
    if isinstance(node, SumExpr):
        parts = [_dims(p, relations_group) for p in node.parts]
        p = sum(d[0] for d in parts)
        return p, min(p, sum(d[1] for d in parts))
    raise TypeError(f"not a group expression: {node!r}")


def _check_budget(node, relations_group: PresentedGroup | None) -> None:
    """Raise SemanticError when evaluating node would build a free lattice
    of rank over TERM_BUDGET."""
    if isinstance(node, FunctorCall):
        what = node.name
        dims = [_dims(a, relations_group) for a in node.args]
        largest = max(term_dimensions(node.name, node.degree, dims) + tuple(p for p, _ in dims))
    else:
        what = "the group"
        largest = _dims(node, relations_group)[0]
    if largest > TERM_BUDGET:
        raise SemanticError(
            f"{what} needs a free lattice of rank {largest}, over the budget of {TERM_BUDGET}",
            node.offset,
        )


# -------------------------------------------------------------- evaluator

def _eval_group(node: "GroupExpr", relations_group: PresentedGroup | None) -> PresentedGroup:
    if isinstance(node, FreeAtom):
        return PresentedGroup.free(node.copies)
    if isinstance(node, CyclicAtom):
        return PresentedGroup.cyclic(node.order)
    if isinstance(node, TrivialAtom):
        return PresentedGroup.trivial()
    if isinstance(node, RelationsAtom):  # _check_budget has found it bound
        return relations_group
    if isinstance(node, SumExpr):
        return direct_sum(*(_eval_group(p, relations_group) for p in node.parts))
    raise TypeError(f"not a group expression: {node!r}")


def evaluate(node, relations_group: PresentedGroup | None = None) -> PresentedGroup:
    """Evaluate a parsed expression to a presented group; raises
    SemanticError, before building anything, when the expression would
    build a free lattice of rank over TERM_BUDGET."""
    _check_budget(node, relations_group)
    if isinstance(node, FunctorCall):
        # a plain group expression needs neither module
        from .derived import Presentation, l1_sp, l2_superlie3, tor
        from .functors import functor_on_group

        args = [_eval_group(a, relations_group) for a in node.args]
        if node.name == "SP":
            return functor_on_group("sym", node.degree, args[0])
        if node.name == "Lambda":
            return functor_on_group("ext", 2, args[0])
        if node.name == "Ls3":
            return functor_on_group("superlie3", 3, args[0])
        if node.name == "H2":
            return functor_on_group("ext", 2, args[0])
        if node.name == "L1SP":
            return l1_sp(node.degree, Presentation.from_group(args[0]))
        if node.name == "L2Ls3":
            return l2_superlie3(Presentation.from_group(args[0]))
        if node.name == "Tor":
            return tor(
                Presentation.from_group(args[0]),
                Presentation.from_group(args[1]),
            )
        if node.name == "Lie3embed-rank":
            cf = args[0].canonical
            if cf.torsion:
                raise SemanticError(
                    "Lie3embed-rank needs a torsion-free group", node.args[0].offset
                )
            return PresentedGroup.free(_lie3(cf.free_rank))
        raise TypeError(f"unknown functor {node.name!r}")
    return _eval_group(node, relations_group)
