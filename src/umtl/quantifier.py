"""Universal quantifiers on finite MTL-algebras.

A quantifier is a unary table satisfying U1-U3.  The U2 axiom is
parenthesization-sensitive; `u2_parse` selects between the reading used
throughout this package ("standard") and the right-associated alternative
("alt"), which collapses the left side to a constant and is kept only for
audit comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    FiniteMTLAlgebra,
    Violation,
    classify,
    closed_masks,
    first_violations,
    first_witnesses,
)

U2_PARSES = ("standard", "alt")


class InvalidQuantifierError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in violations[:6])
        super().__init__(f"not a universal quantifier: {lines}")


@dataclass(frozen=True)
class UniversalQuantifier:
    """A validated unary table together with its fixpoint set."""

    base: FiniteMTLAlgebra
    table: tuple[int, ...]
    fixpoints: frozenset[int]

    def apply(self, x: int) -> int:
        return self.table[x]

    def image(self) -> frozenset[int]:
        return frozenset(self.table)


@dataclass(frozen=True)
class UMTLAlgebra:
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
    """All U1-U3 failures (least witnesses), plus derived-property failures.

    The derived checks (fixed bounds, idempotence, monotonicity) are
    consequences of U1-U3 and are scanned defensively; they can only fire
    on tables that already fail an axiom.
    """
    return list(_violations(alg, table, u2_parse))


def _violations(alg: FiniteMTLAlgebra, table, u2_parse: str):
    """The failures of `quantifier_violations`, one axiom at a time, so a
    caller that needs only a yes/no answer stops at the first."""
    if u2_parse not in U2_PARSES:
        raise ValueError(f"unknown u2 parse: {u2_parse!r}")
    n, top = alg.size, alg.top
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
    failed = False
    for v in first_violations(axioms):
        failed = True
        yield v
    if failed:
        return
    if q[0] != 0:
        yield Violation("derived-bottom-fixed", (0,))
    if q[top] != top:
        yield Violation("derived-top-fixed", (top,))
    derived = (
        ("derived-idempotent", ((x,) for x in range(n) if q[q[x]] != q[x])),
        (
            "derived-monotone",
            (
                (x, y)
                for x in range(n)
                for y in range(n)
                if alg.leq[x][y] and not alg.leq[q[x]][q[y]]
            ),
        ),
    )
    yield from first_violations(derived)


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


def subalgebra_masks(alg: FiniteMTLAlgebra) -> list[int]:
    """Bitmasks of every subalgebra containing bottom and top: the closed
    sets of `core.closed_masks` under odot, arrow, meet and join."""
    odot, arrow, meet, join = alg.odot, alg.arrow, alg.meet, alg.join
    forced = [
        [
            (odot[a][b], arrow[a][b], arrow[b][a], meet[a][b], join[a][b])
            for b in alg.elements
        ]
        for a in alg.elements
    ]
    return closed_masks(alg.size, (alg.bottom, alg.top), forced)


def enumerate_quantifiers(
    alg: FiniteMTLAlgebra,
    u2_parse: str = "standard",
    method: str = "fixpoint",
    jobs: int = 1,
) -> list[UniversalQuantifier]:
    """All quantifiers on the algebra, sorted by table lexicographically.

    `jobs` is accepted for compatibility and ignored: the scan is serial.

    method="fixpoint" relativizes to each subalgebra containing bottom and
    top: a quantifier is an interior operator, hence the floor map onto
    its fixpoint set, and that set is a subalgebra (it is the image, closed
    under odot, arrow, meet and join by the basic properties checked in
    `properties_suite`).  method="brute" scans all n^n unary maps and is
    intended as an oracle for small n.
    """
    if method == "fixpoint":
        # masks, not sets, keep the 2^(n-2) subalgebras of a Goedel chain small
        n = alg.size
        candidates = [
            relativization_table(alg, [i for i in range(n) if mask >> i & 1])
            for mask in subalgebra_masks(alg)
        ]
    elif method == "brute":
        candidates = list(itertools.product(range(alg.size), repeat=alg.size))
    else:
        raise ValueError(f"unknown enumeration method: {method!r}")
    # a candidate is dropped at its first failing axiom
    valid = {t for t in candidates if next(_violations(alg, t, u2_parse), None) is None}
    return [validate_quantifier(alg, t, u2_parse) for t in sorted(valid)]


@dataclass(frozen=True)
class PropertyCheck:
    item: int
    description: str
    passed: bool
    witness: tuple[int, ...] | None = None


def properties_suite(q: UMTLAlgebra) -> list[PropertyCheck]:
    """The fourteen structural properties every quantifier must satisfy.

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
        ((1, "forall bottom = bottom"), [(bot,)] if f[bot] != bot else ()),
        ((2, "forall top = top"), [(top,)] if f[top] != top else ()),
        ((3, "idempotent"), ((x,) for x in rng if f[f[x]] != f[x])),
        (
            (4, "monotone"),
            ((x, y) for x in rng for y in rng if leq[x][y] and not leq[f[x]][f[y]]),
        ),
        (
            (5, "forall(x->y) <= forall x -> forall y (and negation case)"),
            (
                (x, y)
                for x in rng
                for y in rng
                if not leq[f[arrow[x][y]]][arrow[f[x]][f[y]]]
                or (y == bot and not leq[f[arrow[x][bot]]][arrow[f[x]][bot]])
            ),
        ),
        (
            (6, "forall x <= y iff forall x <= forall y"),
            (
                (x, y)
                for x in rng
                for y in rng
                if bool(leq[f[x]][y]) != bool(leq[f[x]][f[y]])
            ),
        ),
        (
            (7, "forall(forall x -> forall y) = forall x -> forall y"),
            (
                (x, y)
                for x in rng
                for y in rng
                if f[arrow[f[x]][f[y]]] != arrow[f[x]][f[y]]
            ),
        ),
        (
            (8, "forall neg forall x = neg forall x"),
            ((x,) for x in rng if f[arrow[f[x]][bot]] != arrow[f[x]][bot]),
        ),
        (
            (9, "forall(x meet y) = forall x meet forall y"),
            ((x, y) for x in rng for y in rng if f[meet[x][y]] != meet[f[x]][f[y]]),
        ),
        (
            (10, "forall(forall x join forall y) = forall x join forall y"),
            (
                (x, y)
                for x in rng
                for y in rng
                if f[join[f[x]][f[y]]] != join[f[x]][f[y]]
            ),
        ),
        (
            (11, "forall(x odot y) >= forall x odot forall y"),
            (
                (x, y)
                for x in rng
                for y in rng
                if not leq[odot[f[x]][f[y]]][f[odot[x][y]]]
            ),
        ),
        (
            (12, "forall(forall x odot forall y) = forall x odot forall y"),
            (
                (x, y)
                for x in rng
                for y in rng
                if f[odot[f[x]][f[y]]] != odot[f[x]][f[y]]
            ),
        ),
        ((13, "image equals fixpoint set"), [tuple(image)] if image != fixed else ()),
        ((14, "image is a subalgebra"), subalgebra_witnesses()),
    ]
    return [
        PropertyCheck(item, desc, w is None, w)
        for (item, desc), w in first_witnesses(checks)
    ]


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    passed: bool
    witness: tuple[int, ...] | None = None


def _axiom_verdict(axiom: str, witnesses) -> AxiomVerdict:
    """The verdict on an axiom from its first failing witness, if any."""
    w = next(witnesses, None)
    return AxiomVerdict(axiom, w is None, w)


@dataclass(frozen=True)
class SubvarietyAxiomReport:
    variety: str
    precondition_ok: bool
    verdicts: tuple[AxiomVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def check_umv_axioms(q: UMTLAlgebra) -> SubvarietyAxiomReport:
    """Verify the five quantified-MV axioms; meaningful on MV bases."""
    alg = q.algebra
    f = q.forall
    n, top, bot = alg.size, alg.top, alg.bottom
    rng = range(n)
    arrow, join, leq = alg.arrow, alg.join, alg.leq
    pre = classify(alg).mv
    verdicts = (
        AxiomVerdict("forall1", f[top] == top, None if f[top] == top else (top,)),
        _axiom_verdict("forall2", ((x,) for x in rng if not leq[f[x]][x])),
        _axiom_verdict(
            "forall3",
            (
                (x, y)
                for x in rng
                for y in rng
                if f[join[x][f[y]]] != join[f[x]][f[y]]
            ),
        ),
        _axiom_verdict(
            "forall4",
            (
                (x, y)
                for x in rng
                for y in rng
                if arrow[f[arrow[x][y]]][arrow[f[x]][f[y]]] != top
            ),
        ),
        _axiom_verdict(
            "forall5",
            (
                (x, y)
                for x in rng
                for y in rng
                if f[arrow[f[x]][f[y]]] != arrow[f[x]][f[y]]
            ),
        ),
    )
    return SubvarietyAxiomReport("UMV", pre, verdicts)


def check_mba_axioms(q: UMTLAlgebra) -> SubvarietyAxiomReport:
    """Verify the monadic-Boolean axioms for exists x := neg forall neg x."""
    alg = q.algebra
    f = q.forall
    n, bot = alg.size, alg.bottom
    rng = range(n)
    meet, leq = alg.meet, alg.leq
    pre = classify(alg).boolean
    ex = tuple(alg.neg(f[alg.neg(x)]) for x in rng)
    verdicts = (
        AxiomVerdict("exists1", ex[bot] == bot, None if ex[bot] == bot else (bot,)),
        _axiom_verdict("exists2", ((x,) for x in rng if not leq[x][ex[x]])),
        _axiom_verdict(
            "exists3",
            (
                (x, y)
                for x in rng
                for y in rng
                if ex[meet[x][ex[y]]] != meet[ex[x]][ex[y]]
            ),
        ),
    )
    return SubvarietyAxiomReport("MBA", pre, verdicts)
