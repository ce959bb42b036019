"""Filters, U-filters, quotients, and the radical.

Element subsets use dense bitmask semantics keyed by element index; every
listing is sorted by bitmask value so output order is reproducible.
Filters, U-filters and the filters of a subalgebra are the closed sets of
one closure system, given by the table `filter_table`: enumerations are
`core.closed_masks` over it and a generated filter is `core.closure` of
its seed.  The 2^n subset scans stay as oracles, so tests can pin their
agreement.  Families that one call path asks for repeatedly are kept in
the algebra's `cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteMTLAlgebra, closed_masks, closure, lower_covers
from .quantifier import UMTLAlgebra, UniversalQuantifier


def mask_of(members) -> int:
    return sum(1 << i for i in set(members))


def members_of(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if mask >> i & 1)


class QuotientError(ValueError):
    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class FilterSet:
    """An element subset of an algebra; `forall` is carried by U-filters."""

    algebra: FiniteMTLAlgebra
    members: frozenset[int]
    forall: tuple[int, ...] | None = None

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
    if not is_filter_by_implication(alg, s) or len(s) == alg.size:
        return False
    return all(
        x in s or y in s
        for x in alg.elements
        for y in alg.elements
        if alg.join[x][y] in s
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
    return FilterSet(alg, members_of(mask, alg.size), forall)


def generated_filter(alg: FiniteMTLAlgebra, seed) -> FilterSet:
    """Smallest filter containing the nonempty seed."""
    return _generated(alg, None, seed)


def generated_ufilter(q: UMTLAlgebra, seed) -> FilterSet:
    """Smallest quantifier-closed filter containing the nonempty seed."""
    return _generated(q.algebra, q.forall, seed)


def _cached(alg: FiniteMTLAlgebra, key, compute):
    """`alg.cache[key]`, computed on first use."""
    if key not in alg.cache:
        alg.cache[key] = compute()
    return alg.cache[key]


def _closed_filters(alg: FiniteMTLAlgebra, forall) -> tuple[FilterSet, ...]:
    """All filters, closed under the table `forall` unless it is None,
    sorted by bitmask: the closed sets of `filter_table` that contain top."""
    masks = sorted(closed_masks(alg.size, (alg.top,), filter_table(alg, forall)))
    return tuple(FilterSet(alg, members_of(m, alg.size), forall) for m in masks)


def enumerate_filters(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    """All filters (the improper one included), sorted by bitmask.

    Found by close-by-one search over the closure system of filters, with
    no 2^n scan and no pairwise join of filters.
    """
    return _cached(alg, "filters", lambda: _closed_filters(alg, None))


def enumerate_filters_subset_oracle(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    """2^n oracle for enumerate_filters."""
    out = []
    for mask in range(1 << alg.size):
        members = members_of(mask, alg.size)
        if is_filter_by_implication(alg, members):
            out.append(FilterSet(alg, members))
    return tuple(out)


def enumerate_ufilters(q: UMTLAlgebra) -> tuple[FilterSet, ...]:
    """All quantifier-closed filters, improper one included, by bitmask."""
    alg, f = q.algebra, q.forall
    return _cached(alg, ("ufilters", f), lambda: _closed_filters(alg, f))


def enumerate_ufilters_subset_oracle(q: UMTLAlgebra) -> tuple[FilterSet, ...]:
    alg, f = q.algebra, q.forall
    out = []
    for mask in range(1 << alg.size):
        members = members_of(mask, alg.size)
        if is_ufilter(alg, f, members):
            out.append(FilterSet(alg, members, f))
    return tuple(out)


def a_perp(alg: FiniteMTLAlgebra, a: int) -> frozenset[int]:
    """The co-annihilator {x : a join x = top}."""
    return frozenset(x for x in alg.elements if alg.join[a][x] == alg.top)


@dataclass(frozen=True)
class MinimalPrimesResult:
    by_inclusion: tuple[FilterSet, ...]
    by_perp: tuple[FilterSet, ...]

    @property
    def agree(self) -> bool:
        return [f.members for f in self.by_inclusion] == [
            f.members for f in self.by_perp
        ]


def prime_filters(alg: FiniteMTLAlgebra) -> tuple[FilterSet, ...]:
    return tuple(
        f for f in enumerate_filters(alg) if is_prime_filter(alg, f.members)
    )


def minimal_primes(alg: FiniteMTLAlgebra) -> MinimalPrimesResult:
    """Minimal primes two ways: inclusion-minimality vs the co-annihilator
    union characterization (their agreement is a theorem audit)."""
    return _cached(alg, "minimal_primes", lambda: _minimal_primes(alg))


def _minimal_primes(alg: FiniteMTLAlgebra) -> MinimalPrimesResult:
    primes = prime_filters(alg)
    by_inclusion = tuple(
        p
        for p in primes
        if not any(o.members < p.members for o in primes)
    )
    by_perp = []
    for f in enumerate_filters(alg):
        if not f.is_proper():
            continue
        union: set[int] = set()
        for a in alg.elements:
            if a not in f.members:
                union |= a_perp(alg, a)
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
    return _cached(
        q.algebra,
        ("maximal_ufilters", q.forall),
        lambda: _maximal_proper(enumerate_ufilters(q)),
    )


@dataclass(frozen=True)
class MaximalityVerdict:
    """Maximality decided by definition and by the power-negation test."""

    by_definition: bool
    by_criterion: bool
    witness: int | None = None

    @property
    def agree(self) -> bool:
        return self.by_definition == self.by_criterion


def is_maximal_ufilter(q: UMTLAlgebra, members) -> MaximalityVerdict:
    alg, f = q.algebra, q.forall
    s = frozenset(members)
    if not is_ufilter(alg, f, s) or len(s) == alg.size:
        raise ValueError("argument must be a proper U-filter")
    by_def = s in {m.members for m in maximal_ufilters(q)}
    witness = None
    for a in alg.elements:
        if a in s:
            continue
        fa = f[a]
        if not any(
            alg.neg(alg.power(fa, k)) in s for k in range(1, alg.size + 1)
        ):
            witness = a
            break
    return MaximalityVerdict(by_def, witness is None, witness)


@dataclass(frozen=True)
class QuotientResult:
    quotient: UMTLAlgebra
    class_map: tuple[int, ...]
    classes: tuple[frozenset[int], ...]


def congruence_of_filter(q: UMTLAlgebra, members) -> tuple[frozenset[int], ...]:
    """Blocks of x ~ y iff x->y and y->x both lie in the filter, ordered by
    least element."""
    alg = q.algebra
    s = set(members)
    blocks: list[set[int]] = []
    for x in alg.elements:
        for b in blocks:
            rep = min(b)
            if alg.arrow[x][rep] in s and alg.arrow[rep][x] in s:
                b.add(x)
                break
        else:
            blocks.append({x})
    blocks.sort(key=min)
    return tuple(frozenset(b) for b in blocks)


def quotient(q: UMTLAlgebra, members) -> QuotientResult:
    """Quotient by a proper U-filter, with well-definedness of every
    operation and the quantifier verified on every pair of classes.

    A well-defined quotient of a UMTL-algebra is a homomorphic image, so it
    satisfies every MTL equation and U1-U3 with no re-scan: its meet and
    join are the parent's, collapsed, and its order is read off the
    collapsed arrow table (x <= y iff x -> y is the top class).
    """
    alg, f = q.algebra, q.forall
    s = frozenset(members)
    if not is_filter_by_implication(alg, s):
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
    classes = congruence_of_filter(q, s)
    class_map = [0] * alg.size
    for idx, block in enumerate(classes):
        for x in block:
            class_map[x] = idx
    k = len(classes)

    def collapse(op_name: str, table) -> tuple[tuple[int, ...], ...]:
        rows = []
        for bi in classes:
            row = []
            for bj in classes:
                vals = {class_map[table[x][y]] for x in bi for y in bj}
                if len(vals) != 1:
                    raise QuotientError(
                        f"{op_name} not well defined on classes",
                        witness=(min(bi), min(bj)),
                    )
                row.append(vals.pop())
            rows.append(tuple(row))
        return tuple(rows)

    odot_q = collapse("odot", alg.odot)
    arrow_q = collapse("arrow", alg.arrow)
    forall_vals = []
    for block in classes:
        vals = {class_map[f[x]] for x in block}
        if len(vals) != 1:
            raise QuotientError(
                "forall not well defined on classes", witness=(min(block),)
            )
        forall_vals.append(vals.pop())
    top_q = class_map[alg.top]
    alg_q = FiniteMTLAlgebra(
        size=k,
        odot=odot_q,
        arrow=arrow_q,
        top=top_q,
        names=tuple("[" + alg.name_of(min(b)) + "]" for b in classes),
        leq=tuple(tuple(int(v == top_q) for v in row) for row in arrow_q),
        meet=collapse("meet", alg.meet),
        join=collapse("join", alg.join),
    )
    forall_q = tuple(forall_vals)
    fixpoints = frozenset(i for i in range(k) if forall_q[i] == i)
    quant_q = UniversalQuantifier(alg_q, forall_q, fixpoints)
    filter_label = FilterSet(alg, s).label()
    return QuotientResult(
        quotient=UMTLAlgebra(alg_q, quant_q, name=q.label() + "/" + filter_label),
        class_map=tuple(class_map),
        classes=classes,
    )


@dataclass(frozen=True)
class RadicalResult:
    filterset: FilterSet

    @property
    def is_trivial(self) -> bool:
        return self.filterset.members == frozenset({self.filterset.algebra.top})


def radical(q: UMTLAlgebra) -> RadicalResult:
    """Intersection of all maximal U-filters.  A finite algebra has at
    least one: {top} is a proper U-filter, and some maximal one holds it."""
    acc = frozenset(q.algebra.elements)
    for m in maximal_ufilters(q):
        acc &= m.members
    return RadicalResult(FilterSet(q.algebra, acc, q.forall))


def enumerate_ucongruences(q: UMTLAlgebra) -> list[tuple[frozenset[int], ...]]:
    """All equivalence relations compatible with every operation and the
    quantifier, as block tuples ordered by least element, the list sorted
    by its blocks' sorted members.

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
        blocks
        for c, blocks in _cached(alg, "congruences", lambda: _mtl_congruences(alg))
        if all(c[f[x]] == c[f[cx]] for x, cx in enumerate(c))
    ]


def _mtl_congruences(alg: FiniteMTLAlgebra):
    """Every congruence of the algebra under odot, arrow, meet and join,
    as (canonical tuple, blocks) pairs in the order of
    `enumerate_ucongruences`.

    Every congruence is the join of the principal congruences Cg(a, b) of
    its pairs, and joins in the congruence lattice are joins of equivalence
    relations (Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).  Covering pairs c < d suffice: classes are
    convex and a ~ b iff a meet b ~ a join b, so Cg(a, b) is the join of
    the Cg(c, d) over the covering pairs of a maximal chain from a meet b
    to a join b, all of which lie in every congruence holding (a, b).  So
    each Cg(c, d) is closed under the four operations by merging classes,
    and the identity plus these principal congruences are closed under
    join with a union-find.  A congruence is held as a canonical tuple
    giving each element's least class member.
    """
    n = alg.size
    arrow = alg.arrow
    # odot, meet and join are commutative, so their rows suffice; arrow
    # needs its columns too
    rows = (alg.odot, arrow, alg.meet, alg.join)

    def principal(a: int, b: int) -> tuple[int, ...]:
        # cls[x] names x's class; a merge relabels the smaller class, and
        # the images of a merged pair are queued
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
            pending += ((row[x], row[y]) for row in arrow)  # z -> x ~ z -> y
        least = {c: min(members[c]) for c in set(cls)}
        return tuple(least[c] for c in cls)

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
    principals = {principal(c, d) for d in range(n) for c in covers[d]}
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

    out = []
    for c in found:
        blocks: dict[int, set[int]] = {}
        for x in range(n):
            blocks.setdefault(c[x], set()).add(x)
        out.append((c, tuple(frozenset(blocks[r]) for r in sorted(blocks))))
    out.sort(key=lambda pair: tuple(tuple(sorted(b)) for b in pair[1]))
    return tuple(out)


def filter_of_congruence(q: UMTLAlgebra, blocks) -> frozenset[int]:
    """The block of top."""
    for b in blocks:
        if q.algebra.top in b:
            return frozenset(b)
    raise ValueError("no block contains top")
