"""Universal quantifiers on finite MTL-algebras.

A quantifier is a unary table satisfying U1-U3, with U2 read as
forall((x -> forall y) -> forall y) = (forall x -> forall y) -> forall y.
The right-associated reading forall(x -> (forall y -> forall y)) of the
left side admits no quantifier on any algebra of two or more elements, so
it is not offered: U1 gives forall bottom = bottom, that reading at
x = bottom then forces forall top = bottom, and U3 at (top, bottom) then
gives bottom = top.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import NamedTuple

from .core import (
    FiniteMTLAlgebra,
    Verdict,
    Violation,
    closed_masks,
    first_violations,
    first_witnesses,
)


def check_u2_parse(u2_parse: str) -> None:
    """Reject every U2 reading but "standard", the only one there is.

    `enumerate_quantifiers`, `analysis.theorem_audit`,
    `audit.corpus_pairs`, `audit.corpus_pairs_with_rejects`,
    `audit.fixture_audits` and `SchemaCatalog.mmtl` keep a `u2_parse`
    parameter only because `perfbench/ops.py` passes "standard" to them
    positionally.  It is checked here and read nowhere else, and it leaves
    with the benchmark change of ROADMAP item 6, as `jobs` does.
    """
    if u2_parse != "standard":
        raise ValueError(f"unknown u2 parse: {u2_parse!r}")


class InvalidQuantifierError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in violations[:6])
        super().__init__(f"not a universal quantifier: {lines}")


class UniversalQuantifier(NamedTuple):
    """A validated unary table."""

    table: tuple[int, ...]

    @property
    def fixpoints(self) -> frozenset[int]:
        return frozenset(x for x, y in enumerate(self.table) if x == y)


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


def quantifier_violations(alg: FiniteMTLAlgebra, table) -> list[Violation]:
    """All U1-U3 failures, each with its least witness.

    A table with none also passes items 1-4 of `properties_suite` (fixed
    bounds, idempotence, monotonicity): they follow from U1-U3, so they
    are not scanned here.
    """
    return list(_violations(alg, table))


def _violations(alg: FiniteMTLAlgebra, table):
    """The failures of `quantifier_violations`, one axiom at a time, so a
    caller that needs only a yes/no answer stops at the first."""
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
    axioms = (
        ("U1", ((x,) for x in range(n) if not alg.leq[q[x]][x])),
        (
            "U2",
            (
                (x, y)
                for x in range(n)
                for y in range(n)
                if q[arrow[arrow[x][q[y]]][q[y]]] != arrow[arrow[q[x]][q[y]]][q[y]]
            ),
        ),
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


def validate_quantifier(alg: FiniteMTLAlgebra, table) -> UniversalQuantifier:
    violations = quantifier_violations(alg, table)
    if violations:
        raise InvalidQuantifierError(violations)
    return UniversalQuantifier(tuple(table))


def make_umtl(alg: FiniteMTLAlgebra, table, name: str = "") -> UMTLAlgebra:
    return UMTLAlgebra(alg, validate_quantifier(alg, table), name)


def unchecked_pair(alg: FiniteMTLAlgebra, table, name: str = "") -> UMTLAlgebra:
    """Pair a table with an algebra without validating U1-U3.

    For tests that need a pair whose table may be no quantifier, such as
    the constant maps that the soundness tests add to their pools.  No
    audit uses it: `analysis.audit_delta_on_linear` pairs delta through
    `make_umtl` and records the `InvalidQuantifierError` it raises.
    """
    return UMTLAlgebra(alg, UniversalQuantifier(tuple(table)), name)


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


def subalgebra_table(alg: FiniteMTLAlgebra, order=None):
    """The closure system of odot, arrow, meet and join as a `core.closure`
    table; with `order`, a list of every element, each element is named by
    its position in it."""
    order = list(alg.elements) if order is None else order
    position = [0] * alg.size
    for i, x in enumerate(order):
        position[x] = i
    pick = itemgetter(*order)

    def rows(table):
        return [list(map(position.__getitem__, pick(table[x]))) for x in order]

    odot, arrow, meet, join = map(rows, (alg.odot, alg.arrow, alg.meet, alg.join))
    return [list(zip(*cells)) for cells in zip(odot, arrow, zip(*arrow), meet, join)]


def _image_tables(alg: FiniteMTLAlgebra) -> list[tuple[int, ...]]:
    """The floor maps onto the subalgebras containing bottom and top that
    satisfy U2, found by one close-by-one search over the subalgebras that
    skips every subtree holding a U2 failure that no descendant can undo.

    For the floor map q onto a subalgebra S, U2 reads its second argument
    y only through q(y), which ranges over S and is s at y = s; so it
    holds iff q(inner_s(x)) = inner_s(q(x)) for all x and all s in S,
    where inner_s(x) = (x -> s) -> s.  It holds at every x in S, where
    both sides are inner_s(x), so only x outside S is tested.

    The search runs over the ranks of a linear extension of the order
    (elements sorted by down-set size), so everything below x ranks below
    x, and q(x), the largest member of S below x, is the member of S ∩ ↓x
    of highest rank.  Take a node (S, start) of `core.closed_masks`, with
    its excluded elements E, which no descendant holds: closing S with one
    of them forces in an element outside S of rank below `start`.  Every
    descendant T is closed, contains S and agrees with S on the ranks
    below `start`.  Let D be the ranks below `start` together with S and
    E, and call y decided when every element of ↓y that is not below
    q_S(y) lies in D.  Then q_T(y) = q_S(y) in every descendant T:
    q_T(y) = max(T ∩ ↓y) is at least q_S(y), and a larger t would lie in
    D, which each part of D rules out (below `start`, t in T is in S, so
    below q_S(y); in S, t is below q_S(y); in E, t is not in T).  Every
    rank below `start` is decided, and so is every member of S; any other
    decided y is in E, as y itself lies in ↓y and not below q_S(y) < y.

    A U2 failure at (x, s) with s in S and x decided then recurs in every
    descendant T, which still holds s.  The right side inner_s(q(x)) keeps
    its value, as q_T(x) = q_S(x).  The left side never lies below it:
    inner_s is monotone, so inner_s(q_S(x)) is at most inner_s(x), and it
    is a member of S, so it is at most q_S(inner_s(x)); a failure is
    therefore a strict inequality, and q_T(inner_s(x)) >= q_S(inner_s(x))
    keeps it strict whether or not inner_s(x) is decided.  So the node and
    its subtree are cut.  At start = n every element is decided, so the
    same test, run on each set the search keeps, is the full U2 check.
    The floor map and the members of a set do not change between the
    calls for it, so each call tests only the decided elements that no
    earlier call tested against the same set.
    """
    n, leq, arrow = alg.size, alg.leq, alg.arrow
    order = sorted(alg.elements, key=lambda x: sum(row[x] for row in leq))
    rank = [0] * n
    for r, x in enumerate(order):
        rank[x] = r
    # inner_s in ranks as a string, chr(inner_s(x)) at x, so that a
    # translate composes it with a map in C
    inner = ["".join([chr(rank[arrow[arrow[x][s]][s]]) for x in order]) for s in order]
    down = [sum(1 << rank[z] for z in order if leq[z][x]) for x in order]
    # bottom, rank 0, is in every S, so q(y) is the bit length of S ∩ ↓y
    # with both shifted down one place
    above_bottom = [d >> 1 for d in down]
    forced = subalgebra_table(alg, order)
    # each closed set visited: its floor map as a string, its members and
    # the elements outside it already tested against it
    seen = {}

    def u2_fails(mask, members, start, excluded):
        if mask in seen:
            q, members, done = seen[mask]
        else:
            floors = map(int.bit_length, map((mask >> 1).__and__, above_bottom))
            q, done = "".join(map(chr, floors)), mask
        low = (1 << start) - 1
        known = low | mask | excluded
        new = low & ~done
        rest = excluded & ~done & ~low
        while rest:
            y = rest.bit_length() - 1
            rest ^= 1 << y
            if not down[y] & ~down[ord(q[y])] & ~known:
                new |= 1 << y
        seen[mask] = q, members, done | new
        if not new:
            return False
        # q(inner_s(x)) against inner_s(q(x)) at the new x, one s at a
        # time, the newest members first: the older ones met most of these
        # x at the ancestors already
        pick = itemgetter(*[y for y in range(n) if new >> y & 1])
        q_new = "".join(pick(q))
        return any(
            "".join(pick(inner_s)).translate(q) != q_new.translate(inner_s)
            for inner_s in map(inner.__getitem__, reversed(members))
        )

    out = []
    by_element = itemgetter(*rank)
    for mask in closed_masks(n, (rank[alg.bottom], rank[alg.top]), forced, u2_fails):
        if not u2_fails(mask, None, n, 0):
            q = by_element(seen[mask][0])
            out.append(tuple(map(order.__getitem__, map(ord, q))))
    return out


def enumerate_quantifiers(
    alg: FiniteMTLAlgebra,
    u2_parse: str = "standard",
    method: str = "fixpoint",
    jobs: int = 1,
) -> list[UniversalQuantifier]:
    """All quantifiers on the algebra, sorted by table lexicographically.

    `jobs` is ignored: the search is serial.  It and `u2_parse`, which
    accepts only "standard" (`check_u2_parse`), stay positional
    parameters because `perfbench/ops.py` passes them; they leave with
    the benchmark change of ROADMAP item 6.

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
    check_u2_parse(u2_parse)
    if method == "fixpoint":
        valid = _image_tables(alg)
    elif method == "brute":
        candidates = itertools.product(range(alg.size), repeat=alg.size)
        # a candidate is dropped at its first failing axiom
        valid = [t for t in candidates if next(_violations(alg, t), None) is None]
    else:
        raise ValueError(f"unknown enumeration method: {method!r}")
    return [validate_quantifier(alg, t) for t in sorted(valid)]


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
        # the image holds f of each of its members by definition, so only
        # the operations and the bounds are tested
        img = set(image)
        for x in img:
            for y in img:
                if any(op[x][y] not in img for op in (meet, join, odot, arrow)):
                    yield (x, y)
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


def check_umv_axioms(q: UMTLAlgebra) -> list[Verdict]:
    """The verdicts of the five quantified-MV axioms; meaningful on MV
    bases."""
    alg = q.algebra
    f = q.forall
    n, top = alg.size, alg.top
    rng = range(n)
    arrow, join, leq = alg.arrow, alg.join, alg.leq
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
    return list(first_witnesses(checks))


def check_mba_axioms(q: UMTLAlgebra) -> list[Verdict]:
    """The verdicts of the monadic-Boolean axioms for
    exists x := neg forall neg x; meaningful on Boolean bases."""
    alg = q.algebra
    f = q.forall
    n, bot = alg.size, alg.bottom
    rng = range(n)
    meet, leq = alg.meet, alg.leq
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
    return list(first_witnesses(checks))
