"""Universal quantifiers on finite MTL-algebras.

A quantifier is a unary table satisfying U1-U3.  The U2 axiom is
parenthesization-sensitive; `u2_parse` selects between the reading used
throughout this package ("standard") and the right-associated alternative
("alt"), which collapses the left side to a constant and is kept only for
audit comparisons.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    FiniteMTLAlgebra,
    Verdict,
    Violation,
    classify,
    closed_masks,
    first_violations,
    first_witnesses,
    lower_covers,
)

U2_PARSES = ("standard", "alt")


class InvalidQuantifierError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in violations[:6])
        super().__init__(f"not a universal quantifier: {lines}")


class UniversalQuantifier(NamedTuple):
    """A validated unary table together with its fixpoint set."""

    base: FiniteMTLAlgebra
    table: tuple[int, ...]
    fixpoints: frozenset[int]


class UMTLAlgebra(NamedTuple):
    """An algebra paired with a validated quantifier on it."""

    algebra: FiniteMTLAlgebra
    quantifier: UniversalQuantifier
    name: str = ""

    @property
    def forall(self) -> tuple[int, ...]:
        return self.quantifier.table

    def label(self) -> str:
        if self.name:
            return self.name
        t = ",".join(str(v) for v in self.forall)
        return f"size{self.algebra.size}[forall={t}]"


def quantifier_violations(
    alg: FiniteMTLAlgebra, table, u2_parse: str = "standard"
) -> list[Violation]:
    """All U1-U3 failures, each with its least witness.

    A table with none also passes items 1-4 of `properties_suite` (fixed
    bounds, idempotence, monotonicity): they follow from U1-U3, so they
    are not scanned here.
    """
    return list(_violations(alg, table, u2_parse))


def _violations(alg: FiniteMTLAlgebra, table, u2_parse: str):
    """The failures of `quantifier_violations`, one axiom at a time, so a
    caller that needs only a yes/no answer stops at the first."""
    if u2_parse not in U2_PARSES:
        raise ValueError(f"unknown u2 parse: {u2_parse!r}")
    n = alg.size
    if len(table) != n:
        yield Violation("forall-wrong-length", (len(table),))
        return
    bad = next((x for x in range(n) if not (0 <= table[x] < n)), None)
    if bad is not None:
        yield Violation("forall-entry-out-of-range", (bad,))
        return
    arrow = alg.arrow
    q = tuple(table)
    if u2_parse == "standard":
        u2 = (
            (x, y)
            for x in range(n)
            for y in range(n)
            if q[arrow[arrow[x][q[y]]][q[y]]] != arrow[arrow[q[x]][q[y]]][q[y]]
        )
    else:
        u2 = (
            (x, y)
            for x in range(n)
            for y in range(n)
            if q[arrow[x][arrow[q[y]][q[y]]]] != arrow[arrow[q[x]][q[y]]][q[y]]
        )
    axioms = (
        ("U1", ((x,) for x in range(n) if not alg.leq[q[x]][x])),
        ("U2", u2),
        (
            "U3",
            (
                (x, y)
                for x in range(n)
                for y in range(n)
                if q[arrow[q[x]][y]] != arrow[q[x]][q[y]]
            ),
        ),
    )
    yield from first_violations(axioms)


def validate_quantifier(
    alg: FiniteMTLAlgebra, table, u2_parse: str = "standard"
) -> UniversalQuantifier:
    violations = quantifier_violations(alg, table, u2_parse)
    if violations:
        raise InvalidQuantifierError(violations)
    q = tuple(table)
    fix = frozenset(x for x in range(alg.size) if q[x] == x)
    return UniversalQuantifier(base=alg, table=q, fixpoints=fix)


def make_umtl(
    alg: FiniteMTLAlgebra, table, u2_parse: str = "standard", name: str = ""
) -> UMTLAlgebra:
    return UMTLAlgebra(alg, validate_quantifier(alg, table, u2_parse), name)


def unchecked_pair(alg: FiniteMTLAlgebra, table, name: str = "") -> UMTLAlgebra:
    """Pair a table with an algebra without validating U1-U3.

    Only for audits that deliberately inspect invalid tables (e.g. delta
    forced onto a non-involutive chain).
    """
    q = tuple(table)
    fix = frozenset(x for x in range(alg.size) if q[x] == x)
    return UMTLAlgebra(alg, UniversalQuantifier(alg, q, fix), name)


def delta_table(alg: FiniteMTLAlgebra) -> tuple[int, ...]:
    """top -> top, everything else -> bottom.  Not a quantifier on every
    algebra; callers validate."""
    return tuple(alg.top if x == alg.top else alg.bottom for x in alg.elements)


def identity_table(alg: FiniteMTLAlgebra) -> tuple[int, ...]:
    return tuple(alg.elements)


def relativization_table(alg: FiniteMTLAlgebra, subset) -> tuple[int, ...]:
    """Map each x to the largest member of `subset` below x.

    Requires bottom and top in the subset and, for every x, a maximum among
    the subset elements below x; callers still validate U1-U3.  The join of
    the subset elements below x is at most x, so it is that maximum exactly
    when it lies in the subset: one O(n * |subset|) fold.
    """
    s = set(subset)
    if alg.bottom not in s or alg.top not in s:
        raise ValueError("subset must contain bottom and top")
    leq, join = alg.leq, alg.join
    table = []
    for x in alg.elements:
        acc = alg.bottom
        for v in s:
            if leq[v][x]:
                acc = join[acc][v]
        if acc not in s:
            raise ValueError(
                f"no maximum fixpoint below element {alg.name_of(x)} (index {x})"
            )
        table.append(acc)
    return tuple(table)


def subalgebra_table(alg: FiniteMTLAlgebra):
    """The closure system of odot, arrow, meet and join as a `core.closure`
    table."""
    odot, arrow, meet, join = alg.odot, alg.arrow, alg.meet, alg.join
    return [
        [
            (odot[a][b], arrow[a][b], arrow[b][a], meet[a][b], join[a][b])
            for b in alg.elements
        ]
        for a in alg.elements
    ]


def _image_tables(alg: FiniteMTLAlgebra, u2_parse: str) -> list[tuple[int, ...]]:
    """The floor maps onto the subalgebras containing bottom and top that
    satisfy U2, found by one close-by-one search over the subalgebras that
    skips every subtree holding a U2 failure that no descendant can undo.

    For the floor map q onto a subalgebra S, U2 reads its second argument
    y only through q(y), which ranges over S and is s at y = s; so it
    holds iff q(outer_s(x)) = (q(x) -> s) -> s for all x and all s in S,
    where outer_s(x) is (x -> s) -> s under the standard parse and
    x -> (s -> s) = top under "alt".

    The search runs over the ranks of a linear extension of the order
    (elements sorted by down-set size), so everything below x ranks below
    x.  Take a node (S, start) of `core.closed_masks`.  Its descendants
    add only elements of rank at least `start`, so for every x of rank
    below `start` they keep S ∩ ↓x, hence the floor value q(x); q(top) =
    top always.  Call those x frozen.  A U2 failure at (x, s) with x and
    outer_s(x) frozen and s in S then recurs in every descendant, as each
    still holds s: the node and its subtree are cut.  Under "alt",
    outer_s(x) is top, so the cut holds for both parses.  The sets that
    survive are checked against U2 in full.
    """
    n, leq, arrow = alg.size, alg.leq, alg.arrow
    order = sorted(alg.elements, key=lambda x: sum(row[x] for row in leq))
    rank = [0] * n
    for r, x in enumerate(order):
        rank[x] = r

    def in_ranks(op):
        return [[rank[op(order[a], order[b])] for b in range(n)] for a in range(n)]

    join = in_ranks(lambda a, b: alg.join[a][b])
    inner = in_ranks(lambda s, x: arrow[arrow[x][s]][s])
    if u2_parse == "standard":
        outer = inner
    else:
        outer = in_ranks(lambda s, x: arrow[x][arrow[s][s]])
    covers = [[rank[c] for c in cs] for cs in lower_covers(leq)]

    def closure_table_in_ranks(table):
        return [[tuple([rank[c] for c in table[a][b]]) for b in order] for a in order]

    forced = closure_table_in_ranks(subalgebra_table(alg))

    def floor_map(mask, stop):
        # q on the ranks below `stop` and on top, None elsewhere: the
        # largest member below x is x itself or the join of the values
        # on x's lower covers
        q = [None] * n
        q[n - 1] = n - 1
        for r in range(stop):
            if mask >> r & 1:
                q[r] = r
            else:
                acc = 0
                for c in covers[order[r]]:
                    acc = join[acc][q[c]]
                q[r] = acc
        return q

    def u2_fails(q, members, stop):
        for s in members:
            outer_s, inner_s = outer[s], inner[s]
            for x in range(stop):
                z = q[outer_s[x]]
                if z is not None and z != inner_s[q[x]]:
                    return True
        return False

    def cut(mask, members, start):
        return u2_fails(floor_map(mask, start), members, start)

    out = []
    for mask in closed_masks(n, (rank[alg.bottom], rank[alg.top]), forced, cut):
        q = floor_map(mask, n)
        if not u2_fails(q, [r for r in range(n) if mask >> r & 1], n):
            out.append(tuple(order[q[rank[x]]] for x in range(n)))
    return out


def enumerate_quantifiers(
    alg: FiniteMTLAlgebra,
    u2_parse: str = "standard",
    method: str = "fixpoint",
    jobs: int = 1,
) -> list[UniversalQuantifier]:
    """All quantifiers on the algebra, sorted by table lexicographically.

    `jobs` is ignored: the search is serial.  It stays a positional
    parameter because `perfbench/ops.py` passes it.

    method="fixpoint" relativizes to subalgebras containing bottom and
    top: a quantifier is an interior operator, hence the floor map onto
    its fixpoint set, and that set is a subalgebra (it is the image, closed
    under odot, arrow, meet and join by the basic properties checked in
    `properties_suite`).  The floor map q onto a subalgebra S satisfies U1
    and U3 by construction: q(x) <= x, and for s in S, s odot q(s -> y)
    lies in S and below y, so q(s -> y) <= s -> q(y) by residuation, while
    s -> q(y) lies in S and below s -> y, which gives equality.  So the
    search (`_image_tables`) tests U2 alone and cuts whole subtrees of the
    subalgebra search at U2 failures that persist in them.  Every table it
    returns still passes the full U1-U3 scan of `validate_quantifier`.
    method="brute" scans all n^n unary maps and is intended as an oracle
    for small n.
    """
    if u2_parse not in U2_PARSES:
        raise ValueError(f"unknown u2 parse: {u2_parse!r}")
    if method == "fixpoint":
        valid = _image_tables(alg, u2_parse)
    elif method == "brute":
        candidates = itertools.product(range(alg.size), repeat=alg.size)
        # a candidate is dropped at its first failing axiom
        valid = [t for t in candidates if next(_violations(alg, t, u2_parse), None) is None]
    else:
        raise ValueError(f"unknown enumeration method: {method!r}")
    return [validate_quantifier(alg, t, u2_parse) for t in sorted(valid)]


def properties_suite(q: UMTLAlgebra) -> list[Verdict]:
    """The fourteen structural properties every quantifier must satisfy,
    as verdicts named by item number.

    Failures are reported rather than raised: the suite doubles as a
    theorem audit.
    """
    alg = q.algebra
    f = q.forall
    n, top, bot = alg.size, alg.top, alg.bottom
    rng = range(n)
    arrow, odot, meet, join, leq = alg.arrow, alg.odot, alg.meet, alg.join, alg.leq
    image = sorted(set(f))
    fixed = sorted(x for x in rng if f[x] == x)

    def subalgebra_witnesses():
        img = set(image)
        for x in img:
            for y in img:
                if any(op[x][y] not in img for op in (meet, join, odot, arrow)):
                    yield (x, y)
            if f[x] not in img:
                yield (x,)
        if not {bot, top} <= img:
            yield (bot,)

    checks = [
        # forall bottom = bottom
        (1, [(bot,)] if f[bot] != bot else ()),
        # forall top = top
        (2, [(top,)] if f[top] != top else ()),
        # idempotent
        (3, ((x,) for x in rng if f[f[x]] != f[x])),
        # monotone
        (
            4,
            ((x, y) for x in rng for y in rng if leq[x][y] and not leq[f[x]][f[y]]),
        ),
        # forall(x->y) <= forall x -> forall y (and negation case)
        (
            5,
            (
                (x, y)
                for x in rng
                for y in rng
                if not leq[f[arrow[x][y]]][arrow[f[x]][f[y]]]
                or (y == bot and not leq[f[arrow[x][bot]]][arrow[f[x]][bot]])
            ),
        ),
        # forall x <= y iff forall x <= forall y
        (
            6,
            (
                (x, y)
                for x in rng
                for y in rng
                if bool(leq[f[x]][y]) != bool(leq[f[x]][f[y]])
            ),
        ),
        # forall(forall x -> forall y) = forall x -> forall y
        (
            7,
            (
                (x, y)
                for x in rng
                for y in rng
                if f[arrow[f[x]][f[y]]] != arrow[f[x]][f[y]]
            ),
        ),
        # forall neg forall x = neg forall x
        (
            8,
            ((x,) for x in rng if f[arrow[f[x]][bot]] != arrow[f[x]][bot]),
        ),
        # forall(x meet y) = forall x meet forall y
        (
            9,
            ((x, y) for x in rng for y in rng if f[meet[x][y]] != meet[f[x]][f[y]]),
        ),
        # forall(forall x join forall y) = forall x join forall y
        (
            10,
            (
                (x, y)
                for x in rng
                for y in rng
                if f[join[f[x]][f[y]]] != join[f[x]][f[y]]
            ),
        ),
        # forall(x odot y) >= forall x odot forall y
        (
            11,
            (
                (x, y)
                for x in rng
                for y in rng
                if not leq[odot[f[x]][f[y]]][f[odot[x][y]]]
            ),
        ),
        # forall(forall x odot forall y) = forall x odot forall y
        (
            12,
            (
                (x, y)
                for x in rng
                for y in rng
                if f[odot[f[x]][f[y]]] != odot[f[x]][f[y]]
            ),
        ),
        # image equals fixpoint set
        (13, [tuple(image)] if image != fixed else ()),
        # image is a subalgebra
        (14, subalgebra_witnesses()),
    ]
    return list(first_witnesses(checks))


class SubvarietyAxiomReport(NamedTuple):
    variety: str
    precondition_ok: bool
    verdicts: tuple[Verdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def check_umv_axioms(q: UMTLAlgebra) -> SubvarietyAxiomReport:
    """Verify the five quantified-MV axioms; meaningful on MV bases."""
    alg = q.algebra
    f = q.forall
    n, top = alg.size, alg.top
    rng = range(n)
    arrow, join, leq = alg.arrow, alg.join, alg.leq
    pre = classify(alg).mv
    checks = (
        ("forall1", [(top,)] if f[top] != top else ()),
        ("forall2", ((x,) for x in rng if not leq[f[x]][x])),
        (
            "forall3",
            (
                (x, y)
                for x in rng
                for y in rng
                if f[join[x][f[y]]] != join[f[x]][f[y]]
            ),
        ),
        (
            "forall4",
            (
                (x, y)
                for x in rng
                for y in rng
                if arrow[f[arrow[x][y]]][arrow[f[x]][f[y]]] != top
            ),
        ),
        (
            "forall5",
            (
                (x, y)
                for x in rng
                for y in rng
                if f[arrow[f[x]][f[y]]] != arrow[f[x]][f[y]]
            ),
        ),
    )
    return SubvarietyAxiomReport("UMV", pre, tuple(first_witnesses(checks)))


def check_mba_axioms(q: UMTLAlgebra) -> SubvarietyAxiomReport:
    """Verify the monadic-Boolean axioms for exists x := neg forall neg x."""
    alg = q.algebra
    f = q.forall
    n, bot = alg.size, alg.bottom
    rng = range(n)
    meet, leq = alg.meet, alg.leq
    pre = classify(alg).boolean
    ex = tuple(alg.neg(f[alg.neg(x)]) for x in rng)
    checks = (
        ("exists1", [(bot,)] if ex[bot] != bot else ()),
        ("exists2", ((x,) for x in rng if not leq[x][ex[x]])),
        (
            "exists3",
            (
                (x, y)
                for x in rng
                for y in rng
                if ex[meet[x][ex[y]]] != meet[ex[x]][ex[y]]
            ),
        ),
    )
    return SubvarietyAxiomReport("MBA", pre, tuple(first_witnesses(checks)))
