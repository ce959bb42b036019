"""Finite MTL-algebras given as operation tables.

An algebra lives on the carrier {0, .., n-1} with 0 as bottom.  Only the
monoid table (odot) and the residuum table (arrow) are supplied; the order
is derived from arrow (x <= y iff x->y = top), and meet/join tables are
computed from the order.  Supplying the lattice structure separately would
admit inconsistent inputs, so we never do.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import eq, getitem, itemgetter, ne, or_
from typing import NamedTuple

Table = tuple[tuple[int, ...], ...]


class InvalidAlgebraError(ValueError):
    """Raised when operation tables violate the MTL axioms."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in violations[:6])
        more = "" if len(violations) <= 6 else f" (+{len(violations) - 6} more)"
        super().__init__(f"not an MTL-algebra: {lines}{more}")


# the axioms whose witness counts sizes or lengths, not elements
_SHAPE_AXIOMS = frozenset(
    ("degenerate-size", "top-out-of-range", "odot-non-square",
     "arrow-non-square", "forall-wrong-length")
)


class Violation(NamedTuple):
    """A failed axiom together with its lexicographically least witness."""

    axiom: str
    witness: tuple[int, ...]

    @property
    def shape(self) -> bool:
        """Whether the witness counts sizes or lengths, not elements, so
        it is never rendered through element names."""
        return self.axiom in _SHAPE_AXIOMS

    def _witness(self, names: tuple[str, ...] | None) -> list:
        if names is None or self.shape:
            return list(self.witness)
        return [names[i] for i in self.witness]

    def describe(self, names: tuple[str, ...] | None = None) -> str:
        w = ",".join(str(x) for x in self._witness(names))
        return f"{self.axiom} fails at ({w})"

    def as_dict(self, names: tuple[str, ...] | None = None) -> dict:
        return {"axiom": self.axiom, "witness": self._witness(names)}


class SubvarietyProfile(NamedTuple):
    """Which of the standard subvariety identities hold."""

    imtl: bool
    nm: bool
    mv: bool
    boolean: bool
    linear: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "imtl": self.imtl,
            "nm": self.nm,
            "mv": self.mv,
            "boolean": self.boolean,
            "linear": self.linear,
        }


class FiniteMTLAlgebra:
    """A validated finite MTL-algebra with cached order/meet/join.

    Immutable.  Equality and the hash read the given tables (size, odot,
    arrow, top, names), not the derived leq/meet/join tables nor the
    cache; a copy or a pickle starts with an empty cache.  Bottom is 0 on
    every carrier.
    """

    __match_args__ = ("size", "odot", "arrow", "top", "names", "leq", "meet", "join")
    # `cache` holds derived values (the profile, filter families,
    # quotients, ...) keyed by name and, for those that read a quantifier,
    # by its table
    __slots__ = (*__match_args__, "cache")
    bottom = 0

    def __init__(
        self,
        size: int,
        odot: Table,
        arrow: Table,
        top: int,
        names: tuple[str, ...],
        leq: Table,
        meet: Table,
        join: Table,
    ):
        values = (size, odot, arrow, top, names, leq, meet, join)
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.size, self.odot, self.arrow, self.top, self.names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, k) for k in self.__match_args__)

    @property
    def elements(self) -> range:
        return range(self.size)

    def cached(self, key, compute):
        """`self.cache[key]`, computed on first use."""
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def neg(self, x: int) -> int:
        return self.arrow[x][self.bottom]

    def ord_of(self, x: int) -> int | None:
        """Least k with x^k = bottom, or None when no power vanishes.

        Powers of x weakly decrease, so until they stop moving they
        strictly decrease, and a vanishing power comes within `size`
        steps.  The scan stops there, so it ends on any table, even one
        that is not MTL, where the powers can cycle.
        """
        acc = x
        for k in range(1, self.size + 1):
            if acc == self.bottom:
                return k
            nxt = self.odot[acc][x]
            if nxt == acc:
                return None
            acc = nxt
        return None

    def name_of(self, x: int) -> str:
        return self.names[x]

    def table_key(self) -> tuple:
        return (self.size, self.odot, self.arrow, self.top)

    def __repr__(self) -> str:  # keep pytest output readable
        return f"FiniteMTLAlgebra(size={self.size}, top={self.top})"


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


class Verdict(NamedTuple):
    """A named check with its least failing witness, None when it holds.

    The name is an axiom or condition name, or a property's item number.
    """

    name: str | int
    witness: tuple[int, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


def first_witnesses(checks):
    """The verdict of each (name, witnesses) pair, in order: the witnesses
    are listed least first, and each iterable runs only until its first
    item."""
    for name, witnesses in checks:
        yield Verdict(name, next(iter(witnesses), None))


def first_violations(checks):
    """A violation with the first witness of each (axiom, witnesses) pair
    that has one, in order."""
    for v in first_witnesses(checks):
        if not v.passed:
            yield Violation(v.name, v.witness)


def closure(forced, seed, mask: int = 0, members=None, floor: int = 0) -> int | None:
    """Bitmask of the least closed set containing `seed` and the closed
    set `mask`, or None once the table forces in an element below `floor`
    outside `mask`.  `members`, when given, lists the elements of `mask`
    and receives the new ones; after None its last entry is the element
    that stopped the closure.

    The closure system is given by the table `forced`: `forced[a][b]`
    lists the elements that a new member `a` forces in together with a
    member `b`, `b == a` included.  Members added earlier are not visited
    again, so the entry must cover both orders of a non-commutative
    operation.  Only the new elements are paired with the members, so
    closing a closed set under one more element is incremental.
    """
    if members is None:
        members = []
    pending = []
    for s in seed:
        if not mask >> s & 1:
            mask |= 1 << s
            members.append(s)
            pending.append(s)
    while pending:
        row = forced[pending.pop()]
        for b in members:
            for c in row[b]:
                if not mask >> c & 1:
                    if c < floor:
                        members.append(c)
                        return None
                    mask |= 1 << c
                    members.append(c)
                    pending.append(c)
    return mask


def closed_masks(n: int, base, forced, cut=None) -> list[int]:
    """Bitmasks of every set of {0, .., n-1} closed under the table
    `forced` (see `closure`) that contains `base`.

    Close-by-one depth-first search (Kuznetsov; the canonicity test of
    Ganter's NextClosure): a child adds one element i to a closed set and
    closes incrementally.  The child is kept only if its closure adds no
    element below i, so every closed set is reached from exactly one
    parent, with delay polynomial in n and no pairwise join of closed sets.

    A node is a closed set S, its members and `start`, the least element
    its children may add.  Every set T in its subtree is closed, contains
    S and agrees with S on the elements below `start`.  Closing S with a
    rejected child x stops at an element c < x outside S, and closing any
    superset of S with x forces c in as well.  So while c stays outside,
    x is rejected again with no closure; and once c lies below `start`, x
    is excluded: no set in the subtree holds x, since it would hold c.
    Children inherit these stops, so a partial record is still sound.

    `cut`, when given, is called with the mask, the members, `start` and
    the mask of excluded elements of each node before its children are
    closed, and again when closing them excluded more; it returns true
    to skip the node and its whole subtree.
    """
    out = []
    members: list[int] = []
    # each node's stops: rejected child -> the element that stopped it
    stack = [(closure(forced, base, 0, members), members, 0, {})]
    while stack:
        mask, members, start, stops = stack.pop()
        excluded = sum(1 << x for x, c in stops.items() if c < start)
        if cut is not None and cut(mask, members, start, excluded):
            continue
        children = []
        grown = excluded
        for i in range(start, n):
            if mask >> i & 1 or i in stops:
                continue
            child_members = members.copy()
            child = closure(forced, (i,), mask, child_members, i)
            if child is not None:
                children.append((child, child_members, i + 1))
                continue
            stops[i] = child_members[-1]
            if stops[i] < start:
                grown |= 1 << i
        if grown != excluded and cut is not None and cut(mask, members, start, grown):
            continue
        out.append(mask)
        for child, child_members, child_start in children:
            kept = {
                x: c for x, c in stops.items() if x >= child_start and not child >> c & 1
            }
            stack.append((child, child_members, child_start, kept))
    return out


def lower_covers(leq: Table) -> list[list[int]]:
    """For each element d, the elements c < d with nothing strictly
    between them, in index order.

    O(n^2) with cone bitmasks: d covers c exactly when the interval
    up(c) & down(d) is {c, d}."""
    up, down = _masks(leq), _masks(zip(*leq))
    rng = range(len(up))
    return [
        [c for c in rng if c != d and up[c] & down_d == 1 << c | 1 << d]
        for d, down_d in enumerate(down)
    ]


# a row of 0/1 bytes to ASCII digits, read as a binary numeral
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _masks(rows) -> list[int]:
    """The bitmask of each 0/1 row: bit z is set iff row[z] is 1."""
    return [int(bytes(row).translate(_DIGITS)[::-1], 2) for row in rows]


def _low(mask: int) -> int:
    """The least element of a nonempty bitmask."""
    return (mask & -mask).bit_length() - 1


def _least_pair(left, right) -> tuple[int, int] | None:
    """The least (x, y) in row-major order with left[x][y] != right[x][y],
    or None; rows are compared whole and only a differing pair is scanned."""
    for x, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return x, list(map(ne, a, b)).index(True)
    return None


def _shape_violations(size: int, odot, arrow, top: int) -> list[Violation]:
    out: list[Violation] = []
    if size < 2:
        out.append(Violation("degenerate-size", (size,)))
        return out
    if not (0 <= top < size):
        out.append(Violation("top-out-of-range", (top,)))
        return out
    if top == 0:
        out.append(Violation("top-equals-bottom", (0,)))
    carrier = set(range(size))
    for tag, table in (("odot", odot), ("arrow", arrow)):
        if len(table) != size:
            out.append(Violation(f"{tag}-non-square", (len(table),)))
            continue
        for i, row in enumerate(table):
            if len(row) != size:
                out.append(Violation(f"{tag}-non-square", (i, len(row))))
                break
            if not carrier.issuperset(row):
                bad = next(j for j, v in enumerate(row) if v not in carrier)
                out.append(Violation(f"{tag}-entry-out-of-range", (i, bad)))
                break
    return out


def _lattice(down: list[int], up: list[int]):
    """(meet, join, None) for a lattice order, or (None, None, (x, y))
    with the first pair in row-major order that lacks a meet or a join.

    `down` and `up` are the cone bitmasks of a partial order.  The common
    lower bounds of a pair have a greatest element exactly when they are
    that element's down-set, and distinct elements have distinct
    down-sets, so each meet is one dict lookup of `down[x] & down[y]`;
    joins likewise with up-sets.  C-level maps do a whole row at once."""
    by_down = {d: z for z, d in enumerate(down)}
    by_up = {u: z for z, u in enumerate(up)}
    meet_rows, join_rows = [], []
    for x, (down_x, up_x) in enumerate(zip(down, up)):
        mrow = tuple(map(by_down.get, map(down_x.__and__, down)))
        jrow = tuple(map(by_up.get, map(up_x.__and__, up)))
        if None in mrow or None in jrow:
            y = min(row.index(None) for row in (mrow, jrow) if None in row)
            return None, None, (x, y)
        meet_rows.append(mrow)
        join_rows.append(jrow)
    return tuple(meet_rows), tuple(join_rows), None


def check_mtl_tables(size: int, odot, arrow, top: int) -> list[Violation]:
    """Scan every MTL axiom, returning all failures with least witnesses.

    The scan is complete for the listed axioms: it accepts exactly the
    operation tables of finite MTL-algebras.  The cell-by-cell O(n^3) scan
    `check_mtl_tables_reference` in `tests/oracles.py` must agree with it.
    """
    return _scan(size, odot, arrow, top)[0]


def _scan(size: int, odot, arrow, top: int):
    """The violations of `check_mtl_tables`, with the (leq, meet, join)
    tables derived on the way, or None when the order is no lattice.

    No axiom loops in Python over more than the n^2 pairs: the order
    axioms compare cone bitmasks, the pair axioms compare a row of n
    cells at once and the triple axioms (associativity, residuation) a
    string of n^2 cells per x, all in C.  Only a row that differs is
    searched for its least witness, so each witness is the least in
    row-major order, as a cell-by-cell scan finds it.
    """
    out = _shape_violations(size, odot, arrow, top)
    if out:
        return out, None
    rng = range(size)
    odot = tuple(map(tuple, odot))
    arrow = tuple(map(tuple, arrow))
    leq = tuple(tuple(bytes(map(eq, row, repeat(top)))) for row in arrow)
    up, down = _masks(leq), _masks(zip(*leq))
    full = (1 << size) - 1

    def antisymmetric():
        for x in rng:
            both = up[x] & down[x] & ~(1 << x)
            if both:
                return x, _low(both)

    def transitive():
        # x <= y <= z with x </= z: z lies in up[y] but not in up[x]
        for x in rng:
            up_x = up[x]
            if reduce(or_, compress(up, leq[x]), 0) & ~up_x:
                y = next(y for y in rng if leq[x][y] and up[y] & ~up_x)
                return x, y, _low(up[y] & ~up_x)

    order_checks = (
        ("order-reflexive", next(((x,) for x in rng if not leq[x][x]), None)),
        ("order-antisymmetric", antisymmetric()),
        ("order-transitive", transitive()),
        ("bottom-least", (_low(full & ~up[0]),) if up[0] != full else None),
        ("top-greatest", (_low(full & ~down[top]),) if down[top] != full else None),
    )
    out.extend(Violation(name, w) for name, w in order_checks if w is not None)
    if out:
        return out, None

    meet, join, no_bound = _lattice(down, up)
    if no_bound is not None:
        out.append(Violation("order-not-a-lattice", no_bound))

    def least_triple(rows, inner):
        # the least (x, y, z) with rows[x y][z] != rows[x][inner[y][z]]:
        # for each x, each side is one string of n^2 characters, chr(v)
        # for the value v at y, z; the right side is one translate
        text = ["".join(map(chr, row)) for row in rows]
        inner_text = "".join(["".join(map(chr, row)) for row in inner])
        for x in rng:
            left = "".join(itemgetter(*odot[x])(text))
            right = inner_text.translate(text[x])
            if left != right:
                return (x, *divmod(list(map(ne, left, right)).index(True), size))

    checks = [
        (
            "monoid-unit",
            next(((x,) for x in rng if odot[x][top] != x or odot[top][x] != x), None),
        ),
        ("monoid-commutative", _least_pair(odot, zip(*odot))),
        # (x y) z = x (y z)
        ("monoid-associative", least_triple(odot, odot)),
        # x y <= z iff x <= y -> z
        ("residuation", least_triple(leq, arrow)),
    ]
    if no_bound is None:
        # (x -> y) v (y -> x) = top: row x of join read at row x and
        # column x of arrow
        arrow_cols = tuple(zip(*arrow))
        prelinear = (
            tuple(map(getitem, itemgetter(*arrow[x])(join), arrow_cols[x])) for x in rng
        )
        checks.append(("prelinearity", _least_pair(prelinear, repeat((top,) * size))))
    out.extend(Violation(name, w) for name, w in checks if w is not None)
    return out, None if no_bound is not None else (leq, meet, join)


def validate(
    size: int,
    odot,
    arrow,
    top: int,
    names: tuple[str, ...] | None = None,
) -> FiniteMTLAlgebra:
    """Build a fully cached algebra, or raise with the violation list."""
    violations, lattice = _scan(size, odot, arrow, top)
    if violations:
        raise InvalidAlgebraError(violations)
    leq, meet, join = lattice
    if names is None:
        names = default_names(size)
    if len(names) != size:
        raise ValueError(f"expected {size} names, got {len(names)}")
    return FiniteMTLAlgebra(
        size=size,
        odot=tuple(tuple(row) for row in odot),
        arrow=tuple(tuple(row) for row in arrow),
        top=top,
        names=tuple(names),
        leq=leq,
        meet=meet,
        join=join,
    )


def classify(alg: FiniteMTLAlgebra) -> SubvarietyProfile:
    """Decide the subvariety identities by exhaustive scan, once per
    algebra object (kept in `alg.cache`)."""
    return alg.cached("profile", lambda: _profile(alg))


def _profile(alg: FiniteMTLAlgebra) -> SubvarietyProfile:
    n, top = alg.size, alg.top
    rng = range(n)
    inv = all(alg.neg(alg.neg(x)) == x for x in rng)
    wnm = all(
        alg.join[alg.neg(alg.odot[x][y])][alg.arrow[alg.meet[x][y]][alg.odot[x][y]]]
        == top
        for x in rng
        for y in rng
    )
    mv = all(
        alg.arrow[alg.arrow[x][y]][y] == alg.arrow[alg.arrow[y][x]][x]
        for x in rng
        for y in rng
    )
    em = all(alg.join[x][alg.neg(x)] == top for x in rng)
    linear = all(alg.leq[x][y] or alg.leq[y][x] for x in rng for y in rng)
    return SubvarietyProfile(imtl=inv, nm=inv and wnm, mv=mv, boolean=em, linear=linear)


CHAIN_KINDS = ("lukasiewicz", "goedel", "nilpotent-minimum")


def chain_algebra(kind: str, n: int) -> FiniteMTLAlgebra:
    """The n-element chain with the named t-norm analog (validated)."""
    if n < 2:
        raise ValueError("chain needs at least 2 elements")
    top = n - 1
    rng = range(n)
    if kind == "lukasiewicz":
        odot = [[max(0, x + y - top) for y in rng] for x in rng]
        arrow = [[min(top, top - x + y) for y in rng] for x in rng]
    elif kind == "goedel":
        odot = [[min(x, y) for y in rng] for x in rng]
        arrow = [[top if x <= y else y for y in rng] for x in rng]
    elif kind == "nilpotent-minimum":
        odot = [[0 if x + y <= top else min(x, y) for y in rng] for x in rng]
        arrow = [[top if x <= y else max(top - x, y) for y in rng] for x in rng]
    else:
        raise ValueError(f"unknown chain kind: {kind!r}")
    return validate(n, odot, arrow, top)
