"""Formula trees and the ASCII formula language.

Primitive signature: variables, bot, strong conjunction (&), implication
(->), lattice meet (^), and box.  The sugared connectives (top, neg, |,
<->) expand at parse time, and the printer re-sugars them for display, so
parse(print(f)) is f on the primitive trees.  The printer is one recursive
function: it dispatches once on each node's class and recognises `top`,
`neg`, `|` and `<->` there, in place.  Every other walk takes a node's
children from `children`.

Nodes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): each class's constructor looks its
fields up in one table keyed by `(class, *fields)` and returns the node
already there, so there is one object per distinct formula, and `==` and
`hash` are `object`'s identity, O(1) however large the formula.  The
children in a key are interned already, so the key hashes by identity
too.  The table holds weak references, each with a callback that removes
its entry once the node is gone.

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
`parse_formula_reference` in `tests/oracles.py`.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref

# sets a slot of a node past its read-only `__setattr__`
_set = object.__setattr__


class _Entry(weakref.ref):
    """A weak reference to an interned node, which knows its table key."""

    __slots__ = ("key",)


# (class, *fields) -> the entry of the one live node with those fields; a
# node is always true, so `(entry and entry()) or _store(key)` is the node
_nodes: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    # removes the key only while it holds a dead reference, never a live
    # node interned under the same key after this one died
    _remove_dead_weakref(_nodes, entry.key)


def _store(key: tuple) -> Formula:
    """The node for `key`, (class, *fields), that a lookup missed.

    It is built and stored with `setdefault`, so when two threads build
    the same formula, both get the node stored first."""
    cls, *fields = key
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        _set(node, name, value)
    entry = _Entry(node, _forget)
    entry.key = key
    while (held := _nodes.setdefault(key, entry)) is not entry:
        live = held()
        if live is not None:
            return live
        _remove_dead_weakref(_nodes, key)  # a dead node whose callback is due
    return node


class Formula:
    """A formula node: immutable and interned, so equal formulas are one
    object, compared and hashed by identity.

    A copy or a pickle is rebuilt from the fields, so it is the interned
    node again.  The repr is the printed formula, which takes time linear
    in the distinct nodes: the sugared `a | b` holds each side two or
    three times, so a walk of the expanded tree of a `|` chain would take
    time exponential in its length."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in self.__match_args__)

    def __repr__(self):
        return print_formula(self)


class Var(Formula):
    __slots__ = __match_args__ = ("index",)

    def __new__(cls, index: int):
        key = (cls, index)
        entry = _nodes.get(key)
        return (entry and entry()) or _store(key)


class Bot(Formula):
    __slots__ = __match_args__ = ()

    def __new__(cls):
        entry = _nodes.get((cls,))
        return (entry and entry()) or _store((cls,))


class MetaVar(Formula):
    """Schema metavariable; appears only in axiom patterns."""

    __slots__ = __match_args__ = ("label",)

    def __new__(cls, label: str):
        key = (cls, label)
        entry = _nodes.get(key)
        return (entry and entry()) or _store(key)

    def __repr__(self):
        return f"<{self.label}>"


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        entry = _nodes.get(key)
        return (entry and entry()) or _store(key)


class Impl(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Min(_Binary):
    __slots__ = ()


class Box(Formula):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Formula):
        key = (cls, arg)
        entry = _nodes.get(key)
        return (entry and entry()) or _store(key)


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
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
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
            if impls and a.left is b.right and a.right is b.left:  # (x -> y) & (y -> x)
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
                and a.right is a.left.right is b.left.left
                and b.right is b.left.right is a.left.left
            ):
                text = emit(a.left.left, 2) + " | " + emit(a.right, 3)
            else:
                text = emit(a, 2) + " ^ " + emit(b, 3)
        else:
            raise TypeError(f"not a formula: {g!r}")
        return text if tier >= min_tier else "(" + text + ")"

    return emit(f, 1)
