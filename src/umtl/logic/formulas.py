"""Formula trees and the ASCII formula language.

Primitive signature: variables, bot, strong conjunction (&), implication
(->), lattice meet (^), and box.  The sugared connectives (top, neg, |,
<->) expand at parse time, and the printer re-sugars them for display, so
parse(print(f)) == f on the primitive trees.

Precedence, tightest first: box/neg, &, then ^ and | (left-associative),
then -> and <-> (right-associative).

Parsing rejects a formula whose tree is more than MAX_DEPTH nodes deep, or
whose text nests parentheses, prefixes and implications more than
MAX_DEPTH levels deep, so the recursive evaluator, printer and proof
checker stay within Python's default recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class Formula:
    __slots__ = ()


@dataclass(frozen=True, repr=False, slots=True)
class Var(Formula):
    index: int

    def __repr__(self):
        return f"p{self.index}"


@dataclass(frozen=True, repr=False, slots=True)
class Bot(Formula):
    def __repr__(self):
        return "bot"


@dataclass(frozen=True, repr=False, slots=True)
class Impl(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} -> {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Min(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} ^ {self.right!r})"


@dataclass(frozen=True, repr=False, slots=True)
class Box(Formula):
    arg: Formula

    def __repr__(self):
        return f"box {self.arg!r}"


@dataclass(frozen=True, repr=False, slots=True)
class MetaVar(Formula):
    """Schema metavariable; appears only in axiom patterns."""

    label: str

    def __repr__(self):
        return f"<{self.label}>"


def top() -> Formula:
    return Impl(Bot(), Bot())


def neg(a: Formula) -> Formula:
    return Impl(a, Bot())


def lor(a: Formula, b: Formula) -> Formula:
    return Min(Impl(Impl(a, b), b), Impl(Impl(b, a), a))


def iff(a: Formula, b: Formula) -> Formula:
    return And(Impl(a, b), Impl(b, a))


def leaves_of(f: Formula) -> tuple[Formula, ...]:
    """The distinct leaves of `f` (variables, metavariables, bot), left to
    right in order of first occurrence."""
    out: dict[Formula, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        kids = _children(g)
        if kids:
            stack.extend(reversed(kids))
        else:
            out.setdefault(g)
    return tuple(out)


def variables_of(f: Formula) -> tuple[int, ...]:
    return tuple(sorted(g.index for g in leaves_of(f) if isinstance(g, Var)))


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"\s*(->|<->|[&^|()]|[A-Za-z][A-Za-z0-9]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            rest = text[pos:].strip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Impl, And, Min)):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.arg,)
    return ()


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.nesting = 0
        # tree depths keyed by id(): every node stays referenced by the tree
        # under construction, and the sugar shares subtrees, so this also
        # keeps the depth computation linear
        self.depths: dict[int, int] = {}

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self) -> int:
        return (
            self.tokens[self.pos][1] if self.pos < len(self.tokens) else self.length
        )

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.length)
        self.pos += 1
        return tok

    def too_deep(self) -> FormulaSyntaxError:
        return FormulaSyntaxError(
            f"formula nested more than {MAX_DEPTH} levels deep", self.here()
        )

    def descend(self) -> None:
        """Enter one level of parser recursion."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.too_deep()

    def depth(self, f: Formula) -> int:
        d = self.depths.get(id(f))
        if d is None:
            d = 1 + max((self.depth(c) for c in _children(f)), default=0)
            self.depths[id(f)] = d
        return d

    def built(self, f: Formula) -> Formula:
        """`f`, once its tree is known to be at most MAX_DEPTH deep."""
        if self.depth(f) > MAX_DEPTH:
            raise self.too_deep()
        return f

    def formula(self) -> Formula:
        self.descend()
        left = self.lattice_tier()
        tok = self.peek()
        if tok in ("->", "<->"):
            self.take()
            right = self.formula()
            left = self.built(Impl(left, right) if tok == "->" else iff(left, right))
        self.nesting -= 1
        return left

    def lattice_tier(self) -> Formula:
        acc = self.conj_tier()
        while self.peek() in ("^", "|"):
            op = self.take()
            rhs = self.conj_tier()
            acc = self.built(Min(acc, rhs) if op == "^" else lor(acc, rhs))
        return acc

    def conj_tier(self) -> Formula:
        acc = self.unary_tier()
        while self.peek() == "&":
            self.take()
            acc = self.built(And(acc, self.unary_tier()))
        return acc

    def unary_tier(self) -> Formula:
        tok = self.peek()
        if tok not in ("box", "neg"):
            return self.atom()
        self.take()
        self.descend()
        arg = self.unary_tier()
        self.nesting -= 1
        return self.built(Box(arg) if tok == "box" else neg(arg))

    def atom(self) -> Formula:
        where = self.here()
        tok = self.take()
        if tok == "(":
            inner = self.formula()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.here())
            self.take()
            return inner
        if tok == "bot":
            return Bot()
        if tok == "top":
            return top()
        m = re.fullmatch(r"p(\d+)", tok)
        if m:
            return Var(int(m.group(1)))
        raise FormulaSyntaxError(f"unknown identifier {tok!r}", where)


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text), len(text))
    f = parser.formula()
    if parser.peek() is not None:
        raise FormulaSyntaxError(
            f"unexpected token {parser.peek()!r}", parser.here()
        )
    return f


# printer tiers: 1 implication, 2 lattice, 3 strong conjunction, 4 unary/atom
def _sugar_view(f: Formula):
    if isinstance(f, Impl) and f.left == Bot() and f.right == Bot():
        return ("top",)
    if isinstance(f, Min):
        l, r = f.left, f.right
        if (
            isinstance(l, Impl)
            and isinstance(l.left, Impl)
            and l.left.right == l.right
            and isinstance(r, Impl)
            and isinstance(r.left, Impl)
            and r.left.right == r.right
            and l.left.left == r.left.right
            and r.left.left == l.left.right
            and l.left.left == r.right
        ):
            return ("lor", l.left.left, r.left.left)
        return ("min", l, r)
    if isinstance(f, And):
        l, r = f.left, f.right
        if (
            isinstance(l, Impl)
            and isinstance(r, Impl)
            and l.left == r.right
            and l.right == r.left
        ):
            return ("iff", l.left, l.right)
        return ("and", l, r)
    if isinstance(f, Impl):
        if f.right == Bot() and f.left != Bot():
            return ("neg", f.left)
        return ("impl", f.left, f.right)
    if isinstance(f, Box):
        return ("box", f.arg)
    if isinstance(f, Var):
        return ("var", f.index)
    if isinstance(f, Bot):
        return ("bot",)
    if isinstance(f, MetaVar):
        return ("meta", f.label)
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    def emit(g: Formula, min_tier: int) -> str:
        view = _sugar_view(g)
        kind = view[0]
        if kind == "top":
            return "top"
        if kind == "bot":
            return "bot"
        if kind == "var":
            return f"p{view[1]}"
        if kind == "meta":
            return f"{view[1]}"
        if kind == "box":
            return _wrap("box " + emit(view[1], 4), 4, min_tier)
        if kind == "neg":
            return _wrap("neg " + emit(view[1], 4), 4, min_tier)
        if kind == "and":
            return _wrap(
                emit(view[1], 3) + " & " + emit(view[2], 4), 3, min_tier
            )
        if kind in ("min", "lor"):
            op = "^" if kind == "min" else "|"
            return _wrap(
                emit(view[1], 2) + f" {op} " + emit(view[2], 3), 2, min_tier
            )
        if kind == "impl":
            return _wrap(
                emit(view[1], 2) + " -> " + emit(view[2], 1), 1, min_tier
            )
        if kind == "iff":
            return _wrap(
                emit(view[1], 2) + " <-> " + emit(view[2], 1), 1, min_tier
            )
        raise AssertionError(kind)

    def _wrap(text: str, tier: int, min_tier: int) -> str:
        return text if tier >= min_tier else "(" + text + ")"

    return emit(f, 1)
