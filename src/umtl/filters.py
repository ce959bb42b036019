"""Filters, U-filters, quotients, and the radical.

Element subsets use dense bitmask semantics keyed by element index; every
listing is sorted by bitmask value so output order is reproducible.

In a finite MTL-algebra every filter is the up-set of an idempotent: a
filter F is closed under odot, hence under meet (x odot y <= x meet y),
so it holds its meet e, which is idempotent since e <= e odot e <= e; and
the up-set of an idempotent e is closed under odot, since x, y >= e gives
x odot y >= e odot e = e (Esteva and Godo, "Monoidal t-norm based logic",
Fuzzy Sets and Systems 124, 2001).  So the filters and the U-filters are
read off the idempotents with no search: O(n) per idempotent.

A generated filter is `core.closure` of its seed under the table
`filter_table`, which also gives the filters of a subalgebra.  The 2^n
subset scans here and the close-by-one search over `filter_table` in
`umtl.oracles` stay as oracles, so tests can pin their agreement.
Families that one call path asks for repeatedly are kept in the
algebra's `cache`.

A congruence is held in one form throughout: the tuple giving each
element's least class member, the root array of Freese ("Computing
congruences efficiently", Algebra Universalis 59, 2008).
`congruence_of_filter`, `filter_of_congruence`, `enumerate_ucongruences`
(sorted by tuple) and the quotient all read and write it; only
`_mtl_quotient` builds the classes as sets, for `QuotientResult.classes`.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .core import FiniteMTLAlgebra, closure, first_witnesses, lower_covers
from .quantifier import UMTLAlgebra, UniversalQuantifier


def mask_of(members) -> int:
    return sum(1 << i for i in set(members))


def members_of(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if mask >> i & 1)


class QuotientError(ValueError):
    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        self.witness = witness
        super().__init__(message)


class FilterSet(NamedTuple):
    """An element subset of an algebra."""

    algebra: FiniteMTLAlgebra
    members: frozenset[int]

    @property
    def mask(self) -> int:
        return mask_of(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def label(self) -> str:
        return "{" + ",".join(self.algebra.name_of(i) for i in sorted(self.members)) + "}"

    def is_proper(self) -> bool:
        return len(self.members) < self.algebra.size


def is_filter_by_implication(alg: FiniteMTLAlgebra, members) -> bool:
    """top in F and closure under modus ponens (x, x->y in F imply y in F)."""
    s = set(members)
    if alg.top not in s:
        return False
    return all(
        y in s
        for x in s
        for y in alg.elements
        if alg.arrow[x][y] in s
    )


def is_prime_filter(alg: FiniteMTLAlgebra, members) -> bool:
    s = set(members)
    return is_filter_by_implication(alg, s) and _is_prime(alg, s)


def _is_prime(alg: FiniteMTLAlgebra, s) -> bool:
    """Whether the filter `s` is proper and holds no join of two
    non-members."""
    outside = [x for x in alg.elements if x not in s]
    join = alg.join
    return bool(outside) and all(
        join[x][y] not in s for x in outside for y in outside
    )


def is_ufilter(alg: FiniteMTLAlgebra, forall, members) -> bool:
    s = set(members)
    return is_filter_by_implication(alg, s) and all(forall[x] in s for x in s)


def filter_table(alg: FiniteMTLAlgebra, forall=None, carrier=None):
    """The closure system of filters as a `core.closure` table.

    A new member forces in its product with each member and, paired with
    itself, its up-set and, unless `forall` is None, its quantifier image.
    With `carrier`, a subalgebra, the up-set is taken inside it, so the
    closed sets that contain top are the filters of that subalgebra.
    """
    odot, leq = alg.odot, alg.leq
    inside = alg.elements if carrier is None else sorted(carrier)
    # entries outside a subalgebra carrier are never reached
    forced = [None] * alg.size
    for a in inside:
        row = forced[a] = [None] * alg.size
        for b in inside:
            row[b] = (odot[a][b],)
        row[a] += tuple(y for y in inside if leq[a][y])
        if forall is not None:
            row[a] += (forall[a],)
    return forced


def _generated(alg: FiniteMTLAlgebra, forall, seed) -> FilterSet:
    seed = set(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    mask = closure(filter_table(alg, forall), (alg.top, *seed))
    return FilterSet(alg, members_of(mask, alg.size))


def generated_filter(alg: FiniteMTLAlgebra, seed) -> FilterSet:
    """Smallest filter containing the nonempty seed."""
    return _generated(alg, None, seed)


def generated_ufilter(q: UMTLAlgebra, seed) -> FilterSet:
    """Smallest quantifier-closed filter containing the nonempty seed."""
    return _generated(q.algebra, q.forall, seed)


def enumerate_filters(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    """All filters (the improper one included), sorted by bitmask: the
    up-sets of the idempotents."""

    def compute():
        leq, odot = alg.leq, alg.odot
        ups = (
            frozenset(compress(alg.elements, leq[e]))
            for e in alg.elements
            if odot[e][e] == e
        )
        return tuple(FilterSet(alg, up) for up in sorted(ups, key=mask_of))

    return alg.cached("filters", compute)


def enumerate_filters_subset_oracle(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    """2^n oracle for enumerate_filters."""
    out = []
    for mask in range(1 << alg.size):
        members = members_of(mask, alg.size)
        if is_filter_by_implication(alg, members):
            out.append(FilterSet(alg, members))
    return tuple(out)


def enumerate_ufilters(q: UMTLAlgebra) -> tuple[FilterSet, ...]:
    """All quantifier-closed filters, improper one included, by bitmask:
    the filters that the table maps into themselves.

    For a quantifier, the filter of the idempotent e is one iff f(e) = e,
    as f is monotone and below the identity; the whole filter is tested,
    so any unary table will do."""
    alg, f = q.algebra, q.forall
    return alg.cached(
        ("ufilters", f),
        lambda: tuple(
            u for u in enumerate_filters(alg) if all(f[x] in u.members for x in u.members)
        ),
    )


def enumerate_ufilters_subset_oracle(q: UMTLAlgebra) -> tuple[FilterSet, ...]:
    alg, f = q.algebra, q.forall
    out = []
    for mask in range(1 << alg.size):
        members = members_of(mask, alg.size)
        if is_ufilter(alg, f, members):
            out.append(FilterSet(alg, members))
    return tuple(out)


def a_perp(alg: FiniteMTLAlgebra, a: int) -> frozenset[int]:
    """The co-annihilator {x : a join x = top}."""
    return frozenset(x for x in alg.elements if alg.join[a][x] == alg.top)


class MinimalPrimesResult(NamedTuple):
    by_inclusion: tuple[FilterSet, ...]
    by_perp: tuple[FilterSet, ...]

    @property
    def agree(self) -> bool:
        return [f.members for f in self.by_inclusion] == [
            f.members for f in self.by_perp
        ]


def prime_filters(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    """The prime members of `enumerate_filters`, which are filters
    already, so only the prime condition is tested."""
    return tuple(f for f in enumerate_filters(alg) if _is_prime(alg, f.members))


def minimal_primes(alg: FiniteMTLAlgebra) -> MinimalPrimesResult:
    """Minimal primes two ways: inclusion-minimality vs the co-annihilator
    union characterization (their agreement is a theorem audit)."""
    return alg.cached("minimal_primes", lambda: _minimal_primes(alg))


def _minimal_primes(alg: FiniteMTLAlgebra) -> MinimalPrimesResult:
    primes = prime_filters(alg)
    by_inclusion = tuple(
        p
        for p in primes
        if not any(o.members < p.members for o in primes)
    )
    # each co-annihilator once per call, not once per filter
    perps = [a_perp(alg, a) for a in alg.elements]
    by_perp = []
    for f in enumerate_filters(alg):
        if not f.is_proper():
            continue
        union: set[int] = set()
        for a in alg.elements:
            if a not in f.members:
                union |= perps[a]
        if union == set(f.members):
            by_perp.append(f)
    return MinimalPrimesResult(by_inclusion, tuple(by_perp))


def _maximal_proper(family) -> tuple[FilterSet, ...]:
    """The inclusion-maximal proper members of a family, in its order."""
    proper = [f for f in family if f.is_proper()]
    return tuple(
        f for f in proper if not any(f.members < o.members for o in proper)
    )


def maximal_filters(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    return _maximal_proper(enumerate_filters(alg))


def maximal_ufilters(q: UMTLAlgebra) -> tuple[FilterSet, ...]:
    return q.algebra.cached(
        ("maximal_ufilters", q.forall),
        lambda: _maximal_proper(enumerate_ufilters(q)),
    )


class MaximalityVerdict(NamedTuple):
    """Maximality decided by definition and by the power-negation test,
    held as its least witness: an a outside the filter with no power of
    forall a whose negation is inside."""

    by_definition: bool
    witness: tuple[int] | None = None

    @property
    def by_criterion(self) -> bool:
        return self.witness is None

    @property
    def agree(self) -> bool:
        return self.by_definition == self.by_criterion


def is_maximal_ufilter(q: UMTLAlgebra, members) -> MaximalityVerdict:
    alg, f = q.algebra, q.forall
    s = frozenset(members)
    if len(s) == alg.size or s not in {u.members for u in enumerate_ufilters(q)}:
        raise ValueError("argument must be a proper U-filter")
    by_def = s in {m.members for m in maximal_ufilters(q)}
    witnesses = (
        (a,)
        for a in alg.elements
        if a not in s and not _negates_a_power(alg, f[a], s)
    )
    (criterion,) = first_witnesses([("criterion", witnesses)])
    return MaximalityVerdict(by_def, criterion.witness)


def _negates_a_power(alg: FiniteMTLAlgebra, x: int, s: frozenset[int]) -> bool:
    """Whether neg(x^k) lies in `s` for some k >= 1.  The powers of x
    weakly decrease, so once one repeats all later ones equal it."""
    power = x
    while alg.neg(power) not in s:
        nxt = alg.odot[power][x]
        if nxt == power:
            return False
        power = nxt
    return True


class QuotientResult(NamedTuple):
    quotient: UMTLAlgebra
    class_map: tuple[int, ...]
    classes: tuple[frozenset[int], ...]


def congruence_of_filter(q: UMTLAlgebra, members) -> tuple[int, ...]:
    """x ~ y iff x->y and y->x both lie in the filter, as each element's
    least class member.  It reads only the algebra, so it is kept in
    `alg.cache` per filter."""
    return _filter_congruence(q.algebra, frozenset(members))


def _filter_congruence(alg: FiniteMTLAlgebra, s: frozenset[int]) -> tuple[int, ...]:
    return alg.cached(("congruence", s), lambda: _least_members(alg, s))


def _least_members(alg: FiniteMTLAlgebra, s: frozenset[int]) -> tuple[int, ...]:
    """The relation of the filter `s` as each element's least class member.
    It is an equivalence, so each x, in index order, is compared with the
    least member of each class found so far and starts a class of its own
    when it matches none."""
    arrow = alg.arrow
    least: list[int] = []
    roots: list[int] = []
    for x in alg.elements:
        r = next((r for r in roots if arrow[x][r] in s and arrow[r][x] in s), x)
        if r == x:
            roots.append(x)
        least.append(r)
    return tuple(least)


def quotient(q: UMTLAlgebra, members) -> QuotientResult:
    """Quotient by a proper U-filter, each table and the quantifier read
    off the classes' least members.

    A U-filter's relation is a congruence compatible with the quantifier
    (forall(x -> y) lies in the filter and below forall x -> forall y), so
    the quotient is a homomorphic image.  It satisfies every MTL equation
    and U1-U3 with no re-scan: its meet and join are the parent's,
    collapsed, and its order is read off the collapsed arrow table
    (x <= y iff x -> y is the top class).  Nothing here re-proves that
    theorem: `analysis.is_u_homomorphism` on the class map is the
    well-definedness check, since it compares the class of x op y with
    that of rep(x) op rep(y) for every pair.

    Only the input is checked, by `QuotientError`: the members must form
    a proper filter closed under the quantifier.  The filter test and the
    MTL part (the classes, the class map and the collapsed odot, arrow,
    meet and join) read only the algebra and the filter, so each is
    computed once per filter and kept in `alg.cache`.
    Equal filters of different quantifiers thus share one quotient
    algebra object and its caches, whose quantifier-dependent entries are
    keyed by the quantifier table.  Only the collapse of forall runs per
    call.  A shared value is a function of the algebra and the filter
    alone, so sharing cannot make one side of an audit follow from the
    other.
    """
    alg, f = q.algebra, q.forall
    s = frozenset(members)
    if not alg.cached(("is_filter", s), lambda: is_filter_by_implication(alg, s)):
        raise QuotientError("not a filter")
    if len(s) == alg.size:
        raise QuotientError("improper filter")
    bad = next((x for x in s if f[x] not in s), None)
    if bad is not None:
        raise QuotientError(
            f"filter not closed under the quantifier: {alg.name_of(bad)} is a "
            f"member but forall maps it to {alg.name_of(f[bad])}",
            witness=(bad, f[bad]),
        )
    reps, classes, class_map, alg_q = alg.cached(
        ("quotient", s), lambda: _mtl_quotient(alg, s)
    )
    quant_q = UniversalQuantifier(tuple(class_map[f[r]] for r in reps))
    filter_label = FilterSet(alg, s).label()
    return QuotientResult(
        quotient=UMTLAlgebra(alg_q, quant_q, name=q.label() + "/" + filter_label),
        class_map=class_map,
        classes=classes,
    )


def _mtl_quotient(alg: FiniteMTLAlgebra, s: frozenset[int]):
    """(the classes' least members, the classes, the class map, the
    quotient algebra) of the filter `s`, each table collapsed on the least
    members: k^2 lookups for k classes.  The classes are built here alone,
    for `QuotientResult.classes`."""
    least = _filter_congruence(alg, s)
    reps = tuple(x for x, r in enumerate(least) if r == x)
    index = {r: i for i, r in enumerate(reps)}
    class_map = tuple(index[r] for r in least)
    blocks: list[list[int]] = [[] for _ in reps]
    for x, i in enumerate(class_map):
        blocks[i].append(x)

    def collapse(table) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(class_map[table[r][t]] for t in reps) for r in reps
        )

    arrow_q = collapse(alg.arrow)
    top_q = class_map[alg.top]
    alg_q = FiniteMTLAlgebra(
        size=len(reps),
        odot=collapse(alg.odot),
        arrow=arrow_q,
        top=top_q,
        names=tuple("[" + alg.name_of(r) + "]" for r in reps),
        leq=tuple(tuple(int(v == top_q) for v in row) for row in arrow_q),
        meet=collapse(alg.meet),
        join=collapse(alg.join),
    )
    return reps, tuple(map(frozenset, blocks)), class_map, alg_q


def radical(q: UMTLAlgebra) -> FilterSet:
    """Intersection of all maximal U-filters.  A finite algebra has at
    least one: {top} is a proper U-filter, and some maximal one holds it."""
    acc = frozenset(q.algebra.elements)
    for m in maximal_ufilters(q):
        acc &= m.members
    return FilterSet(q.algebra, acc)


def enumerate_ucongruences(q: UMTLAlgebra) -> list[tuple[int, ...]]:
    """All equivalence relations compatible with every operation and the
    quantifier, each as the tuple of every element's least class member,
    the list sorted by tuple.

    A congruence of the expansion (A, forall) is exactly a congruence of A
    that is compatible with forall (Burris and Sankappanavar, "A Course in
    Universal Algebra", II.5), for any unary table.  So the congruences of
    A are computed once per algebra object (`_mtl_congruences`, kept in
    `alg.cache`) and each quantifier keeps those that respect it: a
    congruence c, held as each element's least class member, respects f
    iff f(x) and f(c[x]) share a class for every x.

    Reads only the operation tables and `q.forall`, never the filter code,
    so the U-filter/congruence correspondence audit compares two
    independent computations.
    """
    alg, f = q.algebra, q.forall
    return [
        c
        for c in alg.cached("congruences", lambda: _mtl_congruences(alg))
        if all(c[f[x]] == c[f[cx]] for x, cx in enumerate(c))
    ]


def _mtl_congruences(alg: FiniteMTLAlgebra):
    """Every congruence of the algebra under odot, arrow, meet and join,
    as canonical tuples in the order of `enumerate_ucongruences`.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its pairs, and joins in the congruence lattice are joins of equivalence
    relations (Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).  Covering pairs c < d suffice: classes are
    convex and a ~ b iff a meet b ~ a join b, so Cg(a, b) is the join of
    the Cg(c, d) over the covering pairs of a maximal chain from a meet b
    to a join b, all of which lie in every congruence holding (a, b).
    One cover per join-irreducible label suffices too: the lattice is
    distributive, and there a cover c < d is projective to j_* < j for the
    one join-irreducible j with j <= d and j not <= c, where j_* is the
    one lower cover of j; projective prime quotients generate the same
    lattice congruence (Graetzer, "Lattice Theory: Foundation", 2011), so
    the same algebra congruence.  So `_principal_congruence` runs once per
    join-irreducible, and the identity plus these principal congruences
    are closed under join with a union-find.  A congruence is held as a
    canonical tuple giving each element's least class member.
    """
    n = alg.size

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # every union hangs the larger root below the smaller, so each root is
    # its class's least member and the canonical tuple is the roots
    def join(c1: tuple[int, ...], c2: tuple[int, ...]) -> tuple[int, ...]:
        parent = list(c1)
        for x in range(n):
            rx, ry = find(parent, x), find(parent, c2[x])
            parent[max(rx, ry)] = min(rx, ry)
        return tuple(find(parent, x) for x in range(n))

    covers = lower_covers(alg.leq)
    principals = {
        _principal_congruence(alg, below[0], j)
        for j, below in enumerate(covers)
        if len(below) == 1
    }
    found = {tuple(range(n))} | principals
    frontier = list(found)
    while frontier:
        fresh = []
        for c in frontier:
            for p in principals:
                joined = join(c, p)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh

    return tuple(sorted(found))


def _principal_congruence(alg: FiniteMTLAlgebra, a: int, b: int) -> tuple[int, ...]:
    """Cg(a, b) as a canonical tuple, by merging classes until the four
    operations respect them."""
    n = alg.size
    # odot, meet and join are commutative, so their rows suffice.  So do
    # arrow's, whose column images z -> a ~ z -> b follow: the classes of
    # a lattice congruence are convex and hold a meet b and a join b, so
    # take a <= b.  Then b -> a ~ a -> a = top, so (z -> b) odot (b -> a)
    # ~ z -> b, and z -> a lies between them:
    # (z -> b) odot (b -> a) <= z -> a <= z -> b.
    rows = (alg.odot, alg.arrow, alg.meet, alg.join)
    # cls[x] names x's class; a merge relabels the smaller class, and the
    # images of a merged pair are queued
    cls = list(range(n))
    members = [[x] for x in range(n)]
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        keep, drop = cls[x], cls[y]
        if keep == drop:
            continue
        if len(members[keep]) < len(members[drop]):
            keep, drop = drop, keep
        for z in members[drop]:
            cls[z] = keep
        members[keep] += members[drop]
        for op in rows:
            pending += zip(op[x], op[y])  # op(x, z) ~ op(y, z)
    least = {c: min(members[c]) for c in set(cls)}
    return tuple(least[c] for c in cls)


def filter_of_congruence(q: UMTLAlgebra, congruence) -> frozenset[int]:
    """The class of top in a congruence held as least-member tuple."""
    root = congruence[q.algebra.top]
    return frozenset(x for x, r in enumerate(congruence) if r == root)
