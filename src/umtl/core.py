"""Finite MTL-algebras given as operation tables.

An algebra lives on the carrier {0, .., n-1} with 0 as bottom.  Only the
monoid table (odot) and the residuum table (arrow) are supplied; the order
is derived from arrow (x <= y iff x->y = top), and meet/join tables are
computed from the order.  Supplying the lattice structure separately would
admit inconsistent inputs, so we never do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Table = tuple[tuple[int, ...], ...]


class InvalidAlgebraError(ValueError):
    """Raised when operation tables violate the MTL axioms."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(f"{v.axiom}@{v.witness}" for v in violations[:6])
        more = "" if len(violations) <= 6 else f" (+{len(violations) - 6} more)"
        super().__init__(f"not an MTL-algebra: {lines}{more}")


@dataclass(frozen=True)
class Violation:
    """A failed axiom together with its lexicographically least witness."""

    axiom: str
    witness: tuple[int, ...]

    def describe(self, names: tuple[str, ...] | None = None) -> str:
        if names is None:
            w = ",".join(str(i) for i in self.witness)
        else:
            w = ",".join(names[i] for i in self.witness)
        return f"{self.axiom} fails at ({w})"


@dataclass(frozen=True)
class SubvarietyProfile:
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


@dataclass(frozen=True)
class FiniteMTLAlgebra:
    """A validated finite MTL-algebra with cached order/meet/join."""

    size: int
    odot: Table
    arrow: Table
    top: int
    names: tuple[str, ...]
    leq: Table = field(compare=False)
    meet: Table = field(compare=False)
    join: Table = field(compare=False)

    bottom: int = 0
    # derived families (filters, U-filters, ...) keyed by family name and,
    # for U-filter families, by the quantifier table
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def elements(self) -> range:
        return range(self.size)

    def neg(self, x: int) -> int:
        return self.arrow[x][self.bottom]

    def power(self, x: int, k: int) -> int:
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = x
        for _ in range(k - 1):
            acc = self.odot[acc][x]
        return acc

    def ord_of(self, x: int) -> int | None:
        """Least k with x^k = bottom, or None when no power vanishes.

        Powers of x weakly decrease and stabilise within `size` steps on a
        finite algebra, so the scan is bounded by size.
        """
        acc = x
        for k in range(1, self.size + 1):
            if acc == self.bottom:
                return k
            nxt = self.odot[acc][x]
            if nxt == acc:
                return None
            acc = nxt
        return k + 1 if acc == self.bottom else None

    def name_of(self, x: int) -> str:
        return self.names[x]

    def table_key(self) -> tuple:
        return (self.size, self.odot, self.arrow, self.top)

    def __repr__(self) -> str:  # keep pytest output readable
        return f"FiniteMTLAlgebra(size={self.size}, top={self.top})"


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def first_witnesses(checks):
    """Each (key, witnesses) pair's key with its first witness, or None
    when it has none, in order; each witness iterable runs only until its
    first item."""
    for key, witnesses in checks:
        yield key, next(iter(witnesses), None)


def first_violations(checks):
    """A violation with the first witness of each (axiom, witnesses) pair
    that has one, in order."""
    for axiom, w in first_witnesses(checks):
        if w is not None:
            yield Violation(axiom, w)


def closed_masks(n: int, base, forced) -> list[int]:
    """Bitmasks of every closed subset of {0, .., n-1} that contains `base`.

    The closure system is given by the table `forced`: `forced[a][b]`
    lists the elements that a new member `a` forces in together with a
    member `b`, `b == a` included.  Members added earlier are not visited
    again, so the entry must cover both orders of a non-commutative
    operation.

    Close-by-one depth-first search (Kuznetsov; the canonicity test of
    Ganter's NextClosure): a child adds one element i to a closed set and
    closes incrementally, pairing only the new elements with the members.
    The child is kept only if its closure adds no element below i, so
    every closed set is reached from exactly one parent, with delay
    polynomial in n and no pairwise join of closed sets.
    """

    def close(mask: int, members: list[int], new: int, floor: int):
        """Closure of mask + {new}, or None once an element below `floor`
        outside mask would enter.  `mask` must already be closed."""
        members = members + [new]
        mask |= 1 << new
        pending = [new]
        while pending:
            row = forced[pending.pop()]
            for b in members:
                for c in row[b]:
                    if not mask >> c & 1:
                        if c < floor:
                            return None
                        mask |= 1 << c
                        members.append(c)
                        pending.append(c)
        return mask, members

    mask, members = 0, []
    for b in base:
        if not mask >> b & 1:
            mask, members = close(mask, members, b, 0)
    out = []
    stack = [(mask, members, 0)]
    while stack:
        mask, members, start = stack.pop()
        out.append(mask)
        for i in range(start, n):
            if mask >> i & 1:
                continue
            child = close(mask, members, i, i)
            if child is not None:
                stack.append((*child, i + 1))
    return out


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


def _bound_pair(leq: Table, x: int, y: int, upper: bool) -> int | None:
    """Unique least upper (or greatest lower) bound of {x, y}, if any."""
    n = len(leq)
    if upper:
        bounds = [z for z in range(n) if leq[x][z] and leq[y][z]]
        extreme = [b for b in bounds if all(leq[b][c] for c in bounds)]
    else:
        bounds = [z for z in range(n) if leq[z][x] and leq[z][y]]
        extreme = [b for b in bounds if all(leq[c][b] for c in bounds)]
    return extreme[0] if len(extreme) == 1 else None


def check_mtl_tables(size: int, odot, arrow, top: int) -> list[Violation]:
    """Scan every MTL axiom, returning all failures with least witnesses.

    The scan is complete for the listed axioms: it accepts exactly the
    operation tables of finite MTL-algebras.
    """
    out = _shape_violations(size, odot, arrow, top)
    if out:
        return out
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
        return out

    meet_rows: list[list[int]] = []
    join_rows: list[list[int]] = []
    lattice_ok = True
    for x in rng:
        mrow, jrow = [], []
        for y in rng:
            m = _bound_pair(leq, x, y, upper=False)
            j = _bound_pair(leq, x, y, upper=True)
            if m is None or j is None:
                if lattice_ok:
                    out.append(Violation("order-not-a-lattice", (x, y)))
                    lattice_ok = False
                m = j = 0
            mrow.append(m)
            jrow.append(j)
        meet_rows.append(mrow)
        join_rows.append(jrow)

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
    if lattice_ok:
        checks.append(
            (
                "prelinearity",
                (
                    (x, y)
                    for x in rng
                    for y in rng
                    if join_rows[arrow[x][y]][arrow[y][x]] != top
                ),
            )
        )
    out.extend(first_violations(checks))
    return out


def validate(
    size: int,
    odot,
    arrow,
    top: int,
    names: tuple[str, ...] | None = None,
) -> FiniteMTLAlgebra:
    """Build a fully cached algebra, or raise with the violation list."""
    violations = check_mtl_tables(size, odot, arrow, top)
    if violations:
        raise InvalidAlgebraError(violations)
    rng = range(size)
    odot_t = tuple(tuple(row) for row in odot)
    arrow_t = tuple(tuple(row) for row in arrow)
    leq = tuple(tuple(int(arrow_t[x][y] == top) for y in rng) for x in rng)
    meet = tuple(
        tuple(_bound_pair(leq, x, y, upper=False) for y in rng) for x in rng
    )
    join = tuple(tuple(_bound_pair(leq, x, y, upper=True) for y in rng) for x in rng)
    if names is None:
        names = default_names(size)
    if len(names) != size:
        raise ValueError(f"expected {size} names, got {len(names)}")
    return FiniteMTLAlgebra(
        size=size,
        odot=odot_t,
        arrow=arrow_t,
        top=top,
        names=tuple(names),
        leq=leq,
        meet=meet,
        join=join,
    )


def classify(alg: FiniteMTLAlgebra) -> SubvarietyProfile:
    """Decide the subvariety identities by exhaustive scan."""
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


def boolean_2() -> FiniteMTLAlgebra:
    """The 2-element Boolean algebra (odot = meet, arrow = neg-or)."""
    return chain_algebra("lukasiewicz", 2)
