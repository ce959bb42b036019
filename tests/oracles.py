"""Exhaustive scans and explicit descriptions kept as test oracles.

This module lives in `tests/` and ships with no package: the tests
import it as `oracles`, and nothing in `umtl` imports it.  The scans are
exponential in the carrier size and meant for small algebras.  Apart from
`relativization_table`, `quantifier_violations` and
`quantifier.subalgebra_table`, which define what a candidate table is,
and the primitives `core.closure` and `core.lower_covers`, they share no
code with the paths they check; in
particular only `filters_close_by_one` calls the filter closure system
(`filters.filter_table`, `core.closure`, `core.closed_masks`), which the
filter and U-filter enumerations do not read:

- `filters_close_by_one` is the close-by-one search of `core.closed_masks`
  over `filters.filter_table`, for `filters.enumerate_filters` and
  `filters.enumerate_ufilters` (up-sets of idempotents), at sizes the 2^n
  subset scans in `umtl.filters` cannot reach;
- `subalgebras_subset_oracle` and `fixpoint_subset_tables` scan the
  2^(n-2) subsets containing bottom and top, the former for the closed
  sets of `quantifier.subalgebra_table`, the latter for
  `enumerate_quantifiers(method="fixpoint")`;
- `image_tables_reference` is the subalgebra search that cuts only at U2
  failures below its start rank, with its own close-by-one loop and no
  exclusions, for the quantifier image search of `quantifier._image_tables`
  at sizes the subset scan cannot reach, such as nilpotent-minimum chains
  of 24 elements;
- `subalgebra_filters_trivial_subset_oracle` scans the 2^|S| subsets of a
  carrier for modus-ponens closed ones, for the image-simplicity
  condition of `analysis.is_simple` (closures of the filter table inside
  the carrier);
- `ucongruences_partition_oracle` scans all Bell(n) set partitions of the
  carrier, for `filters.enumerate_ucongruences`; like it, both congruence
  oracles hold each congruence as the tuple of every element's least
  class member and sort the list by tuple;
- `ucongruences_all_pairs_oracle` joins the principal congruences of all
  n(n-1)/2 pairs, not only of one covering pair per join-irreducible as
  `filters.enumerate_ucongruences` does, at sizes the Bell(n) scan cannot
  reach;
- `generated_filter_formula` and `generated_ufilter_formula` give the
  explicit description of a generated filter (everything above a product
  of seeds), for `filters.generated_filter` and `filters.generated_ufilter`
  (closures of the seed under the filter table);
- `is_filter_by_closure` is the up-set and monoid form of the filter
  test, for `filters.is_filter_by_implication`;
- `derive_odot_from_arrow` recovers the monoid table from the residuum,
  for the tables `core.validate` accepts;
- `check_mtl_tables_reference` scans the MTL axioms cell by cell, every
  triple for transitivity, associativity and residuation, and finds each
  meet and join by testing the bounds of the pair one by one, for the
  row-at-a-time scan of `core.check_mtl_tables` and `core.validate`;
- `lower_covers_reference` tests every element between every pair, for
  the cone-bitmask `core.lower_covers`;
- `same_tree_reference` walks two formula trees together and compares
  their leaves by class and fields, for the identity equality of the
  interned nodes of `logic.formulas`;
- `compile_formulas_reference` is the two-visit compile walk over
  `children`, for the one-pass `logic.semantics.compile_formulas` and the
  grouping key of `logic.semantics.soundness_audit`;
- `eval_formula_tree` evaluates a formula by a recursive walk over its
  tree, one valuation at a time, and `first_refutation_tree_walk` ranks
  the valuations by hand with it, for the compiled column evaluator and
  the searches of `logic.semantics`, and `soundness_audit_reference`
  walks every valuation of each schema's metavariables alone with it, for
  the grouped programs of `logic.semantics.soundness_audit`;
- `parse_formula_reference` is the recursive-descent parser that
  tokenizes the whole text first and derives each node's depth by a walk
  over its children, for the operator-precedence loop of
  `logic.formulas.parse_formula`.

`unchecked_pair` is no oracle: it pairs an algebra with a table that may
be no quantifier, for the tests that need such a pair.
"""

from __future__ import annotations

import itertools
import re

from umtl.core import (
    FiniteMTLAlgebra,
    Violation,
    classify,
    closed_masks,
    closure,
    first_violations,
    lower_covers,
)
from umtl.filters import FilterSet, filter_table, members_of
from umtl.logic.formulas import (
    MAX_DEPTH,
    And,
    Bot,
    Box,
    Formula,
    FormulaSyntaxError,
    Impl,
    MetaVar,
    Min,
    Var,
    children,
    iff,
    lor,
    neg,
    top,
    variables_of,
)
from umtl.logic.schemas import A, B, metavars_of
from umtl.logic.semantics import Program, SchemaSoundness, SoundnessReport
from umtl.quantifier import (
    UMTLAlgebra,
    UniversalQuantifier,
    quantifier_violations,
    relativization_table,
    subalgebra_table,
)


def unchecked_pair(alg: FiniteMTLAlgebra, table, name: str = "") -> UMTLAlgebra:
    """Pair a table with an algebra without validating U1-U3.

    For tests that need a pair whose table may be no quantifier, such as
    the constant maps that the soundness tests add to their pools.  No
    audit uses it: `analysis.audit_delta_on_linear` pairs delta through
    `make_umtl` and records the `InvalidQuantifierError` it raises.
    """
    return UMTLAlgebra(alg, UniversalQuantifier(tuple(table)), name)


def _subsets_with_bounds(alg: FiniteMTLAlgebra):
    others = [x for x in alg.elements if x not in (alg.bottom, alg.top)]
    for bits in range(1 << len(others)):
        subset = {alg.bottom, alg.top}
        subset.update(others[i] for i in range(len(others)) if bits >> i & 1)
        yield subset


def subalgebras_subset_oracle(alg: FiniteMTLAlgebra) -> list[frozenset[int]]:
    """Every subset containing bottom and top that is closed under odot,
    arrow, meet and join, in scan order."""
    ops = (alg.odot, alg.arrow, alg.meet, alg.join)
    return [
        frozenset(s)
        for s in _subsets_with_bounds(alg)
        if all(op[x][y] in s for op in ops for x in s for y in s)
    ]


def fixpoint_subset_tables(alg: FiniteMTLAlgebra) -> list[tuple[int, ...]]:
    """Sorted quantifier tables found by relativizing to every subset that
    contains bottom and top (any quantifier is the floor map onto its
    fixpoint set)."""
    tables = set()
    for subset in _subsets_with_bounds(alg):
        try:
            table = relativization_table(alg, subset)
        except ValueError:
            continue
        if not quantifier_violations(alg, table):
            tables.add(table)
    return sorted(tables)


def image_tables_reference(alg: FiniteMTLAlgebra) -> list[tuple[int, ...]]:
    """The floor maps onto the subalgebras containing bottom and top that
    satisfy U2, by a close-by-one search over the subalgebras that cuts a
    node only at a U2 failure between elements of rank below its `start`,
    for `quantifier._image_tables`, which also cuts at every floor value
    that the elements excluded from a subtree pin down, and closes no
    child whose rejection a parent already found.

    U2 holds for the floor map q onto S iff q(inner_s(x)) = inner_s(q(x))
    for all x and all s in S, where inner_s(x) = (x -> s) -> s.  The search
    runs over the ranks of a linear extension of the order, so every node
    (S, start) keeps q on the ranks below `start` in its whole subtree, and
    a failure there, with inner_s(x) also below `start` or top, is cut.
    The loop is the plain close-by-one search of `core.closed_masks`,
    without its exclusions, and the sets that survive are checked in full.
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
    covers = [[rank[c] for c in cs] for cs in lower_covers(leq)]
    table = subalgebra_table(alg)
    forced = [[tuple([rank[c] for c in table[a][b]]) for b in order] for a in order]

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
            inner_s = inner[s]
            for x in range(stop):
                z = q[inner_s[x]]
                if z is not None and z != inner_s[q[x]]:
                    return True
        return False

    out = []
    members: list[int] = []
    stack = [(closure(forced, (rank[alg.bottom], rank[alg.top]), 0, members), members, 0)]
    while stack:
        mask, members, start = stack.pop()
        if u2_fails(floor_map(mask, start), members, start):
            continue
        q = floor_map(mask, n)
        if not u2_fails(q, members, n):
            out.append(tuple(order[q[rank[x]]] for x in range(n)))
        for i in range(start, n):
            if mask >> i & 1:
                continue
            child_members = members.copy()
            child = closure(forced, (i,), mask, child_members, i)
            if child is not None:
                stack.append((child, child_members, i + 1))
    return out


def subalgebra_filters_trivial_subset_oracle(
    alg: FiniteMTLAlgebra, carrier
) -> bool:
    """Whether exactly two subsets of `carrier` contain top and are closed
    under modus ponens inside it, by scanning all 2^|carrier| subsets."""
    members = sorted(carrier)
    count = 0
    for mask in range(1 << len(members)):
        s = {members[i] for i in range(len(members)) if mask >> i & 1}
        if alg.top not in s:
            continue
        if any(
            alg.arrow[x][y] in s and y not in s
            for x in s
            for y in members
        ):
            continue
        count += 1
    return count == 2


def _partitions(items: list[int]):
    """All set partitions, blocks ordered by least element (deterministic)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def ucongruences_partition_oracle(q: UMTLAlgebra) -> list[tuple[int, ...]]:
    """Every set partition compatible with odot, arrow, meet, join and the
    quantifier, as the tuple of each element's least class member, sorted
    by tuple as `filters.enumerate_ucongruences` is."""
    alg, f = q.algebra, q.forall
    ops = (alg.odot, alg.arrow, alg.meet, alg.join)
    out = []
    for part in _partitions(list(alg.elements)):
        cls = {}
        for idx, block in enumerate(part):
            for x in block:
                cls[x] = idx
        ok = all(
            len({cls[f[x]] for x in block}) == 1 for block in part
        ) and all(
            len({cls[op[x][y]] for x in b1 for y in b2}) == 1
            for op in ops
            for b1 in part
            for b2 in part
        )
        if ok:
            least = {x: min(block) for block in part for x in block}
            out.append(tuple(least[x] for x in alg.elements))
    return sorted(out)


def ucongruences_all_pairs_oracle(q: UMTLAlgebra) -> list[tuple[int, ...]]:
    """Every congruence compatible with odot, arrow, meet, join and the
    quantifier, as the joins of the principal congruences Cg(a, b) of all
    pairs a < b (by index), each as the tuple of every element's least
    class member, sorted by tuple as `filters.enumerate_ucongruences` is."""
    alg, f = q.algebra, q.forall
    n = alg.size
    ops = (alg.odot, alg.arrow, alg.meet, alg.join)

    def merged(cls, pairs) -> tuple[int, ...]:
        # the least congruence that is coarser than the partition `cls`
        # (each element's least class member) and joins every pair: each
        # merge of two classes by (x, y) queues the pairs it forces, and
        # relabels the class with the larger least member
        cls = list(cls)
        pending = list(pairs)
        while pending:
            x, y = pending.pop()
            keep, drop = sorted((cls[x], cls[y]))
            if keep == drop:
                continue
            cls = [keep if c == drop else c for c in cls]
            pending.append((f[x], f[y]))
            for op in ops:
                pending += ((op[x][z], op[y][z]) for z in range(n))
                pending += ((op[z][x], op[z][y]) for z in range(n))
        return tuple(cls)

    identity = tuple(range(n))
    principals = {merged(identity, [(a, b)]) for a in range(n) for b in range(a + 1, n)}
    found = {identity} | principals
    frontier = list(found)
    while frontier:
        fresh = []
        for c in frontier:
            for p in principals:
                joined = merged(c, enumerate(p))
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return sorted(found)


def filters_close_by_one(alg: FiniteMTLAlgebra, forall=None) -> tuple[FilterSet, ...]:
    """All filters, closed under the table `forall` unless it is None,
    sorted by bitmask: the closed sets of `filters.filter_table` that
    contain top."""
    masks = sorted(closed_masks(alg.size, (alg.top,), filter_table(alg, forall)))
    return tuple(FilterSet(alg, members_of(m, alg.size)) for m in masks)


def _above_products(alg: FiniteMTLAlgebra, seeds: set[int]) -> frozenset[int]:
    """Everything above some product of the (nonempty) seeds."""
    if not seeds:
        raise ValueError("seed must be nonempty")
    products = set(seeds)
    while True:
        more = {alg.odot[x][y] for x in products for y in products} - products
        if not more:
            break
        products |= more
    return frozenset(
        y for y in alg.elements if any(alg.leq[x][y] for x in products)
    )


def generated_filter_formula(alg: FiniteMTLAlgebra, seed) -> frozenset[int]:
    """The explicit description: everything above some product of seeds."""
    return _above_products(alg, set(seed))


def generated_ufilter_formula(q: UMTLAlgebra, seed) -> frozenset[int]:
    """Everything above some product of quantifier images of seeds."""
    return _above_products(q.algebra, {q.forall[x] for x in seed})


def is_filter_by_closure(alg: FiniteMTLAlgebra, members) -> bool:
    """top in F, upward closed, and closed under the monoid operation."""
    s = set(members)
    if alg.top not in s:
        return False
    if any(alg.leq[x][y] and y not in s for x in s for y in alg.elements):
        return False
    return all(alg.odot[x][y] in s for x in s for y in s)


def derive_odot_from_arrow(size: int, arrow, top: int):
    """Recover the monoid table from a residuum table, when it exists.

    x odot y is the least z with x <= arrow(y, z); returns None when some
    pair lacks a least solution.
    """
    rng = range(size)
    leq = [[int(arrow[x][y] == top) for y in rng] for x in rng]
    rows = []
    for x in rng:
        row = []
        for y in rng:
            sols = [z for z in rng if leq[x][arrow[y][z]]]
            least = [z for z in sols if all(leq[z][w] for w in sols)]
            if len(least) != 1:
                return None
            row.append(least[0])
        rows.append(tuple(row))
    return tuple(rows)


def _shape_violations_reference(size: int, odot, arrow, top: int) -> list[Violation]:
    out: list[Violation] = []
    if size < 2:
        out.append(Violation("degenerate-size", (size,)))
        return out
    if not (0 <= top < size):
        out.append(Violation("top-out-of-range", (top,)))
        return out
    if top == 0:
        out.append(Violation("top-equals-bottom", (0,)))
    for tag, table in (("odot", odot), ("arrow", arrow)):
        if len(table) != size:
            out.append(Violation(f"{tag}-non-square", (len(table),)))
            continue
        for i, row in enumerate(table):
            if len(row) != size:
                out.append(Violation(f"{tag}-non-square", (i, len(row))))
                break
            bad = next((j for j, v in enumerate(row) if not (0 <= v < size)), None)
            if bad is not None:
                out.append(Violation(f"{tag}-entry-out-of-range", (i, bad)))
                break
    return out


def _extreme_reference(cones: list[int], bounds: int) -> int | None:
    """The element of the bitmask `bounds` whose cone is all of `bounds`,
    if any: the meet of a pair when `cones` are the down-sets and
    `bounds` the pair's common lower bounds, the join for up-sets and
    upper bounds.  In a partial order at most one element qualifies."""
    rest = bounds
    while rest:
        low = rest & -rest
        z = low.bit_length() - 1
        if cones[z] == bounds:
            return z
        rest ^= low
    return None


def _lattice_reference(leq):
    """(meet, join, None) for a lattice order, or (None, None, (x, y))
    with the first pair in row-major order that lacks a meet or a join,
    testing the bounds of each pair one by one."""
    rng = range(len(leq))
    down = [sum(1 << z for z in rng if leq[z][x]) for x in rng]
    up = [sum(1 << z for z in rng if leq[x][z]) for x in rng]
    meet_rows, join_rows = [], []
    for x in rng:
        mrow, jrow = [], []
        for y in rng:
            m = _extreme_reference(down, down[x] & down[y])
            j = _extreme_reference(up, up[x] & up[y])
            if m is None or j is None:
                return None, None, (x, y)
            mrow.append(m)
            jrow.append(j)
        meet_rows.append(tuple(mrow))
        join_rows.append(tuple(jrow))
    return tuple(meet_rows), tuple(join_rows), None


def check_mtl_tables_reference(size: int, odot, arrow, top: int):
    """(violations, (leq, meet, join) or None), as `core._scan` returns
    them, by scanning the axioms cell by cell: every pair, and every
    triple for transitivity, associativity and residuation."""
    out = _shape_violations_reference(size, odot, arrow, top)
    if out:
        return out, None
    rng = range(size)
    leq = tuple(tuple(int(arrow[x][y] == top) for y in rng) for x in rng)

    order_checks = (
        ("order-reflexive", ((x,) for x in rng if not leq[x][x])),
        (
            "order-antisymmetric",
            ((x, y) for x in rng for y in rng if x != y and leq[x][y] and leq[y][x]),
        ),
        (
            "order-transitive",
            (
                (x, y, z)
                for x in rng
                for y in rng
                for z in rng
                if leq[x][y] and leq[y][z] and not leq[x][z]
            ),
        ),
        ("bottom-least", ((x,) for x in rng if not leq[0][x])),
        ("top-greatest", ((x,) for x in rng if not leq[x][top])),
    )
    out.extend(first_violations(order_checks))
    if out:
        return out, None

    meet, join, no_bound = _lattice_reference(leq)
    if no_bound is not None:
        out.append(Violation("order-not-a-lattice", no_bound))

    checks = [
        (
            "monoid-unit",
            ((x,) for x in rng if odot[x][top] != x or odot[top][x] != x),
        ),
        (
            "monoid-commutative",
            ((x, y) for x in rng for y in rng if odot[x][y] != odot[y][x]),
        ),
        (
            "monoid-associative",
            (
                (x, y, z)
                for x in rng
                for y in rng
                for z in rng
                if odot[odot[x][y]][z] != odot[x][odot[y][z]]
            ),
        ),
        (
            "residuation",
            (
                (x, y, z)
                for x in rng
                for y in rng
                for z in rng
                if leq[odot[x][y]][z] != leq[x][arrow[y][z]]
            ),
        ),
    ]
    if no_bound is None:
        checks.append(
            (
                "prelinearity",
                (
                    (x, y)
                    for x in rng
                    for y in rng
                    if join[arrow[x][y]][arrow[y][x]] != top
                ),
            )
        )
    out.extend(first_violations(checks))
    return out, None if no_bound is not None else (leq, meet, join)


def lower_covers_reference(leq) -> list[list[int]]:
    """For each d, the c < d with no e strictly between them, in index
    order, by testing every e for every pair."""
    rng = range(len(leq))
    return [
        [
            c
            for c in rng
            if c != d and leq[c][d]
            and not any(e not in (c, d) and leq[c][e] and leq[e][d] for e in rng)
        ]
        for d in rng
    ]


def eval_formula_tree(q: UMTLAlgebra, valuation, f: Formula) -> int:
    """The value of `f` by a recursive walk over its tree (shared subtrees
    are walked once per occurrence), with each variable's value looked up
    in `valuation` by index and each metavariable's by label; each value
    must be an element of the carrier."""
    alg = q.algebra
    n = alg.size

    def leaf(key, name: str) -> int:
        try:
            value = valuation[key]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"valuation misses {name}") from exc
        if not isinstance(value, int) or not 0 <= value < n:
            raise ValueError(
                f"valuation gives {name} the value {value!r},"
                f" not an element of 0..{n - 1}"
            )
        return value

    def ev(g: Formula) -> int:
        if isinstance(g, Var):
            return leaf(g.index, f"p{g.index}")
        if isinstance(g, MetaVar):
            return leaf(g.label, g.label)
        if isinstance(g, Bot):
            return alg.bottom
        if isinstance(g, Impl):
            return alg.arrow[ev(g.left)][ev(g.right)]
        if isinstance(g, And):
            return alg.odot[ev(g.left)][ev(g.right)]
        if isinstance(g, Min):
            return alg.meet[ev(g.left)][ev(g.right)]
        if isinstance(g, Box):
            return q.forall[ev(g.arg)]
        raise TypeError(f"cannot evaluate {g!r}")

    return ev(f)


def same_tree_reference(f: Formula, g: Formula) -> bool:
    """Whether `f` and `g` have the same structure, by a walk of the two
    trees together that compares each pair of leaves by class and fields
    and uses no equality or identity of nodes.  Each pair of node objects
    is visited once, so a flat `|` chain takes time linear in its links."""
    seen: set[tuple[int, int]] = set()  # by id(): f and g keep every node alive
    stack = [(f, g)]
    while stack:
        x, y = stack.pop()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if type(x) is not type(y):
            return False
        kids = children(x)
        if kids:
            stack.extend(zip(kids, children(y)))
        elif [getattr(x, k) for k in x.__match_args__] != [
            getattr(y, k) for k in y.__match_args__
        ]:
            return False
    return True


# the table each connective looks up
_OPS = {Impl: "arrow", And: "odot", Min: "meet", Box: "forall"}


def compile_formulas_reference(formulas) -> Program:
    """The program of `logic.semantics.compile_formulas`, by a walk that
    pushes each node twice, once to list its `children` and once, marked
    ready, to compile it, and that reads `reads_forall` off the code."""
    code: list[tuple] = []
    slot_of: dict[int, int] = {}  # by id(): the formulas keep every node alive
    shared: dict[tuple, int] = {}
    leaves: dict = {}
    roots = []
    for f in formulas:
        stack = [(f, False)]
        while stack:
            g, ready = stack.pop()
            if id(g) in slot_of:
                continue
            op = _OPS.get(type(g))
            kids = children(g)
            if kids and not ready:
                stack.append((g, True))
                stack.extend((kid, False) for kid in reversed(kids))
                continue
            if op is not None:
                instr = (op, *(slot_of[id(kid)] for kid in kids))
            elif isinstance(g, Var):
                instr = ("leaf", g.index)
            elif isinstance(g, MetaVar):
                instr = ("leaf", g.label)
            elif isinstance(g, Bot):
                instr = ("bot",)
            else:
                raise TypeError(f"cannot evaluate {g!r}")
            slot = shared.get(instr)
            if slot is None:
                slot = shared[instr] = len(code)
                code.append(instr)
                if instr[0] == "leaf":
                    leaves[instr[1]] = None
            slot_of[id(g)] = slot
        roots.append(slot_of[id(f)])
    return Program(
        tuple(code),
        tuple(leaves),
        tuple(roots),
        tuple(sorted(k for k in leaves if isinstance(k, int))),
        any(instr[0] == "forall" for instr in code),
    )


def first_refutation_tree_walk(pool, premises, conclusion: Formula):
    """(pool index, valuation, value) of the least valuation sending every
    premise to top and the conclusion below it, or None, by the tree walk:
    rank r over k variables gives the last variable the digit r % n."""
    variables = sorted({v for f in (conclusion, *premises) for v in variables_of(f)})
    for index, q in enumerate(pool):
        n, top = q.algebra.size, q.algebra.top
        for rank in range(n ** len(variables)):
            digits = []
            for _ in variables:
                rank, digit = divmod(rank, n)
                digits.append(digit)
            valuation = dict(zip(variables, reversed(digits)))
            if any(eval_formula_tree(q, valuation, p) != top for p in premises):
                continue
            value = eval_formula_tree(q, valuation, conclusion)
            if value != top:
                return index, valuation, value
    return None


# the subvariety flag of `core.classify` under which each extension schema
# is audited
_EXTENSION_FLAGS = {"INV": "imtl", "WNM": "nm", "MV": "mv", "EM": "boolean"}


def _least_schema_witness(q: UMTLAlgebra, conclusion: Formula, *premises: Formula):
    """The least valuation of the metavariables, in order of first
    occurrence, that sends every premise to top and the conclusion below
    it, as sorted (label, value) pairs, or None."""
    labels = tuple(dict.fromkeys(m for f in (conclusion, *premises) for m in metavars_of(f)))
    top = q.algebra.top
    for values in itertools.product(q.algebra.elements, repeat=len(labels)):
        valuation = dict(zip(labels, values))
        if all(eval_formula_tree(q, valuation, p) == top for p in premises) and (
            eval_formula_tree(q, valuation, conclusion) != top
        ):
            return tuple(sorted(valuation.items()))
    return None


def soundness_audit_reference(corpus, catalog) -> SoundnessReport:
    """The soundness report of `logic.semantics.soundness_audit`, one
    schema and one pair at a time, by the tree walk over every valuation
    of the schema's metavariables in `itertools.product` order."""
    entries = []
    mp_ok = nec_ok = True
    for q in corpus:
        profile = classify(q.algebra)
        for schema_id, pattern in catalog.schemas:
            flag = _EXTENSION_FLAGS.get(schema_id)
            if flag is None or getattr(profile, flag):
                witness = _least_schema_witness(q, pattern)
                entries.append(SchemaSoundness(schema_id, q.label(), witness is None, witness))
        mp_ok = mp_ok and _least_schema_witness(q, B, A, Impl(A, B)) is None
        nec_ok = nec_ok and _least_schema_witness(q, Box(A), A) is None
    return SoundnessReport(tuple(entries), mp_ok, nec_ok)


_REFERENCE_TOKEN_RE = re.compile(r"\s*(->|<->|[&^|()]|[A-Za-z][A-Za-z0-9]*)")


def _tokenize_reference(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            rest = text[pos:].lstrip()
            if not rest:
                break
            # the character's own index, past the whitespace before it
            raise FormulaSyntaxError(
                f"unexpected character {rest[0]!r}", len(text) - len(rest)
            )
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _ReferenceParser:
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
            if isinstance(f, (Impl, And, Min)):
                children = (f.left, f.right)
            elif isinstance(f, Box):
                children = (f.arg,)
            else:
                children = ()
            d = 1 + max((self.depth(c) for c in children), default=0)
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
        if tok[0].isalpha():
            raise FormulaSyntaxError(f"unknown identifier {tok!r}", where)
        raise FormulaSyntaxError(f"unexpected token {tok!r}", where)


def parse_formula_reference(text: str) -> Formula:
    """The recursive-descent parse of `text`: tokenized in full first, one
    anchored match per token, each node's depth derived from its children
    by a walk memoized on node identity."""
    parser = _ReferenceParser(_tokenize_reference(text), len(text))
    f = parser.formula()
    if parser.peek() is not None:
        raise FormulaSyntaxError(
            f"unexpected token {parser.peek()!r}", parser.here()
        )
    return f
