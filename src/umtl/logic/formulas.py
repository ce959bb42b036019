"""Formula trees and the ASCII formula language.

Primitive signature: variables, bot, strong conjunction (&), implication
(->), lattice meet (^), and box.  The sugared connectives (top, neg, |,
<->) expand at parse time, and the printer re-sugars them for display, so
parse(print(f)) == f on the primitive trees.  The printer is one recursive
function: it dispatches once on each node's class and recognises `top`,
`neg`, `|` and `<->` there, in place.  Every other walk takes a node's
children from `children`, except equality (`_same_tree`), the hot path.

Precedence, tightest first: box/neg, &, then ^ and | (left-associative),
then -> and <-> (right-associative).

Parsing rejects a formula whose tree is more than MAX_DEPTH nodes deep, or
whose text nests parentheses, prefixes and implications more than
MAX_DEPTH levels deep, so the recursive evaluator, printer and proof
checker stay within Python's default recursion limit.

The parse is one pass: one regex scan yields the tokens, a list index
walks them, and each tier returns its node with its tree depth, computed
from its children's depths as it is built.  Token positions are recovered
by a second scan only when a syntax error is raised.  An error is located
at the index of the token it names (the end of the text for a formula cut
short); a character that no token starts with is reported first, at its
own index.  The earlier parser, which tokenized first and derived each
depth by a walk over the new node's children, is kept as the test oracle
`umtl.oracles.parse_formula_reference`.
"""

from __future__ import annotations

import re

# sets a slot of a node past its read-only `__setattr__`
_set = object.__setattr__


class Formula:
    """A formula node: immutable, compared and hashed by its fields.

    A copy or a pickle is rebuilt from the fields alone."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in self.__match_args__)


class Var(Formula):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash((self.index,))

    def __repr__(self):
        return f"p{self.index}"


class Bot(Formula):
    __slots__ = __match_args__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return "bot"


class MetaVar(Formula):
    """Schema metavariable; appears only in axiom patterns."""

    __slots__ = __match_args__ = ("label",)

    def __init__(self, label: str):
        _set(self, "label", label)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label

    def __hash__(self):
        return hash((self.label,))

    def __repr__(self):
        return f"<{self.label}>"


class _Connective(Formula):
    """A node with children.

    Its hash is computed on first use, from its children's cached
    hashes, and kept in a slot that is no field, so a copy or a pickle
    recomputes it; it equals the hash of the children tuple.  Equality
    returns early on the same object or on two cached hashes that
    differ, and otherwise walks the two trees iteratively, visiting each
    pair of node objects once.  The sugared `a | b` holds each side two
    or three times, so a recursive walk of a `|` chain would take time
    exponential in its length; these, and the repr (the printed
    formula), take time linear in its distinct nodes.  Neither computes
    a hash it does not need: most formulas are built, printed and
    evaluated, never hashed."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(children(self))
            _set(self, "_hash", h)
            return h

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            if self._hash != other._hash:
                return False
        except AttributeError:  # a hash not computed yet
            pass
        return _same_tree(self, other)

    def __repr__(self):
        return print_formula(self)


def _same_tree(f: Formula, g: Formula) -> bool:
    seen: set[tuple[int, int]] = set()  # by id(): f and g keep every node alive
    stack = [(f, g)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is Box:
            key = (id(x), id(y))
            if key not in seen:
                seen.add(key)
                stack.append((x.arg, y.arg))
        elif cls in _BINARY:
            key = (id(x), id(y))
            if key not in seen:
                seen.add(key)
                stack.append((x.left, y.left))
                stack.append((x.right, y.right))
        elif x != y:
            return False
    return True


class _Binary(_Connective):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Impl(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Min(_Binary):
    __slots__ = ()


class Box(_Connective):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Formula):
        _set(self, "arg", arg)


_BINARY = (Impl, And, Min)


def top() -> Formula:
    return Impl(Bot(), Bot())


def neg(a: Formula) -> Formula:
    return Impl(a, Bot())


def lor(a: Formula, b: Formula) -> Formula:
    return Min(Impl(Impl(a, b), b), Impl(Impl(b, a), a))


def iff(a: Formula, b: Formula) -> Formula:
    return And(Impl(a, b), Impl(b, a))


def children(f: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of `f`, left to right; none for a leaf.

    A connective is rebuilt from its children by `type(f)(*children(f))`."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.arg,)
    return ()


def leaves_of(f: Formula) -> tuple[Formula, ...]:
    """The distinct leaves of `f` (variables, metavariables, bot), left to
    right in order of first occurrence.

    Each distinct node object is visited once: the leaves under a repeated
    shared subtree were already seen, so a sugared `|` chain costs time
    linear in its length, not in its expanded tree."""
    out: dict[Formula, None] = {}
    seen: set[int] = set()  # by id(): `f` keeps every node alive
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        kids = children(g)
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
_TOO_DEEP = f"formula nested more than {MAX_DEPTH} levels deep"

_TOKEN = r"->|<->|[&^|()]|[A-Za-z][A-Za-z0-9]*"
# the tokens, and any other non-space character alone, which no tier accepts
_TOKEN_RE = re.compile(_TOKEN + r"|\S")
# the longest prefix of tokens and whitespace, which ends at the first
# character that starts no token
_READABLE_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")
_VAR_RE = re.compile(r"p(\d+)")


class _Stop(Exception):
    """A syntax error (message, token index); `parse_formula` locates it."""


def _parse(tokens: list[str]) -> Formula:
    """The formula that `tokens`, ended by the sentinel "", spell.

    Each tier returns its node with its tree depth, from the children's
    depths: the sugar adds levels (`neg` 1, `<->` 2, `|` 3, `top` is 2
    deep).  `nesting` counts the open parentheses, prefixes and
    implications."""
    i = 0
    nesting = 0

    def formula():  # -> and <->, right-associative
        nonlocal i, nesting
        nesting += 1
        if nesting > MAX_DEPTH:
            raise _Stop(_TOO_DEEP, i)
        left, d = lattice()
        tok = tokens[i]
        if tok == "->" or tok == "<->":
            i += 1
            right, e = formula()
            if tok == "->":
                left, d = Impl(left, right), (d if d > e else e) + 1
            else:
                left, d = iff(left, right), (d if d > e else e) + 2
            if d > MAX_DEPTH:
                raise _Stop(_TOO_DEEP, i)
        nesting -= 1
        return left, d

    def lattice():  # ^ and |, left-associative
        nonlocal i
        acc, d = conjunction()
        tok = tokens[i]
        while tok == "^" or tok == "|":
            i += 1
            rhs, e = conjunction()
            if tok == "^":
                acc, d = Min(acc, rhs), (d if d > e else e) + 1
            else:
                acc, d = lor(acc, rhs), (d if d > e else e) + 3
            if d > MAX_DEPTH:
                raise _Stop(_TOO_DEEP, i)
            tok = tokens[i]
        return acc, d

    def conjunction():  # &, left-associative
        nonlocal i
        acc, d = unary()
        while tokens[i] == "&":
            i += 1
            rhs, e = unary()
            acc, d = And(acc, rhs), (d if d > e else e) + 1
            if d > MAX_DEPTH:
                raise _Stop(_TOO_DEEP, i)
        return acc, d

    def unary():  # box and neg prefixes, then an atom
        nonlocal i, nesting
        tok = tokens[i]
        i += 1
        if tok == "box" or tok == "neg":
            nesting += 1
            if nesting > MAX_DEPTH:
                raise _Stop(_TOO_DEEP, i)
            arg, d = unary()
            nesting -= 1
            if d + 1 > MAX_DEPTH:
                raise _Stop(_TOO_DEEP, i)
            return (Box(arg) if tok == "box" else neg(arg)), d + 1
        m = _VAR_RE.fullmatch(tok)
        if m:
            return Var(int(m[1])), 1
        if tok == "(":
            inner = formula()
            if tokens[i] != ")":
                raise _Stop("expected ')'", i)
            i += 1
            return inner
        if tok == "bot":
            return Bot(), 1
        if tok == "top":
            return top(), 2
        if not tok:
            raise _Stop("unexpected end of formula", i - 1)
        if tok[0].isalpha():
            raise _Stop(f"unknown identifier {tok!r}", i - 1)
        raise _Stop(f"unexpected token {tok!r}", i - 1)

    f, _ = formula()
    if tokens[i]:
        raise _Stop(f"unexpected token {tokens[i]!r}", i)
    return f


def parse_formula(text: str) -> Formula:
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    try:
        return _parse(tokens)
    except _Stop as stop:
        message, index = stop.args
    # a character that starts no token is reported first, wherever it is
    bad = _READABLE_RE.match(text).end()
    if bad < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    raise FormulaSyntaxError(message, (starts + [len(text)])[index])


def print_formula(f: Formula) -> str:
    """The text of `f`, re-sugared, with only the parentheses it needs.

    Each node sits in a tier: 1 implication and `<->`, 2 `^` and `|`,
    3 `&`, 4 `box`, `neg` and the atoms.  A child is parenthesised when
    its tier is below the one its place asks for."""

    def emit(g: Formula, min_tier: int) -> str:
        cls = g.__class__
        if cls is Var:
            return f"p{g.index}"
        if cls is Bot:
            return "bot"
        if cls is MetaVar:
            return f"{g.label}"
        if cls is Box:
            text, tier = "box " + emit(g.arg, 4), 4
        elif cls is Impl:
            a, b = g.left, g.right
            if b.__class__ is not Bot:
                text, tier = emit(a, 2) + " -> " + emit(b, 1), 1
            elif a.__class__ is Bot:
                return "top"
            else:
                text, tier = "neg " + emit(a, 4), 4
        elif cls is And:
            a, b = g.left, g.right
            impls = a.__class__ is b.__class__ is Impl
            if impls and a.left == b.right and a.right == b.left:  # (x -> y) & (y -> x)
                text, tier = emit(a.left, 2) + " <-> " + emit(a.right, 1), 1
            else:
                text, tier = emit(a, 3) + " & " + emit(b, 4), 3
        elif cls is Min:
            a, b = g.left, g.right
            tier = 2
            # x | y is ((x -> y) -> y) ^ ((y -> x) -> x)
            if (
                a.__class__ is b.__class__ is Impl
                and a.left.__class__ is b.left.__class__ is Impl
                and a.right == a.left.right == b.left.left
                and b.right == b.left.right == a.left.left
            ):
                text = emit(a.left.left, 2) + " | " + emit(a.right, 3)
            else:
                text = emit(a, 2) + " ^ " + emit(b, 3)
        else:
            raise TypeError(f"not a formula: {g!r}")
        return text if tier >= min_tier else "(" + text + ")"

    return emit(f, 1)
