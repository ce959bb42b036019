"""Seeded benchmark inputs: algebra tables for the structure ladder and
formula texts for the formula sweep.

Everything here is plain Python on integer tables and strings, so the
same seed gives the same inputs whatever the package under test does.
Algebras become package objects only through `umtl.core.validate`, in
`ops.py`.
"""

from __future__ import annotations

import functools
import random

# Rung name -> construction.  Chains name a kind and a size; "x" is the
# direct product, "+" the ordinal sum with tops identified.  The two n = 9
# rungs are the only ones small enough for the Bell(n) congruence scan.
LADDER = (
    ("L16", ("chain", "lukasiewicz", 16)),
    ("N16", ("chain", "nilpotent-minimum", 16)),
    ("L4xL4", ("product", "L4", "L4")),
    ("L2^4", ("product", "L2", "L2", "L2", "L2")),
    ("G12", ("chain", "goedel", 12)),
    ("G14", ("chain", "goedel", 14)),
    ("G4+L4+N4", ("ordinal", "G4", "L4", "N4")),
    ("L3xL3", ("product", "L3", "L3")),
    ("G3xL3", ("product", "G3", "L3")),
)
CONGRUENCE_MAX_SIZE = 9

# Operations of one pass per workload; each runs in its own worker.
WORKLOAD_OPS = {
    "cli-audit": ("audit",),
    "structure-ladder": tuple(name for name, _ in LADDER),
    "formula-sweep": ("sweep-6", "sweep-8", "exits", "proofs"),
}

_KINDS = {"L": "lukasiewicz", "G": "goedel", "N": "nilpotent-minimum"}


def chain_tables(kind: str, n: int):
    """(size, odot, arrow, top) of the n-element chain, mirroring the
    package's chain families."""
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
        raise ValueError(f"unknown chain kind {kind!r}")
    return n, odot, arrow, top


def _short_chain(tag: str):
    return chain_tables(_KINDS[tag[0]], int(tag[1:]))


def product_tables(a, b):
    """Componentwise product; (0, 0) gets index 0, so bottom stays 0."""
    na, oa, aa, ta = a
    nb, ob, ab, tb = b
    n = na * nb
    odot = [[0] * n for _ in range(n)]
    arrow = [[0] * n for _ in range(n)]
    for x1 in range(na):
        for y1 in range(nb):
            i = x1 * nb + y1
            for x2 in range(na):
                for y2 in range(nb):
                    j = x2 * nb + y2
                    odot[i][j] = oa[x1][x2] * nb + ob[y1][y2]
                    arrow[i][j] = aa[x1][x2] * nb + ab[y1][y2]
    return n, odot, arrow, ta * nb + tb


def ordinal_sum_tables(*chains):
    """Ordinal sum of chains, each placed above the previous one, with
    their tops identified as the common top.  Inside a component the
    component's tables apply; across components odot is the minimum and
    x -> y is top when x <= y, else y."""
    elems = [(c, x) for c, (size, *_rest) in enumerate(chains) for x in range(size - 1)]
    n = len(elems) + 1
    top = n - 1
    index = {e: i for i, e in enumerate(elems)}

    def lift(c, x):
        return top if x == chains[c][3] else index[(c, x)]

    odot = [[0] * n for _ in range(n)]
    arrow = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == top or j == top:
                odot[i][j] = j if i == top else i
                arrow[i][j] = j if i == top else top
                continue
            (ci, x), (cj, y) = elems[i], elems[j]
            if ci == cj:
                odot[i][j] = lift(ci, chains[ci][1][x][y])
                arrow[i][j] = lift(ci, chains[ci][2][x][y])
            else:
                odot[i][j] = min(i, j)
                arrow[i][j] = top if i <= j else j
    return n, odot, arrow, top


def rung_tables(construction):
    kind, *parts = construction
    if kind == "chain":
        return chain_tables(parts[0], parts[1])
    if kind == "product":
        acc = _short_chain(parts[0])
        for tag in parts[1:]:
            acc = product_tables(acc, _short_chain(tag))
        return acc
    if kind == "ordinal":
        return ordinal_sum_tables(*(_short_chain(tag) for tag in parts))
    raise ValueError(f"unknown construction {kind!r}")


def relabelling(n: int, rnd: random.Random) -> list[int]:
    """perm[old] = new, a random permutation that keeps bottom at 0."""
    rest = list(range(1, n))
    rnd.shuffle(rest)
    return [0] + rest


def relabel(tables, perm):
    n, odot, arrow, top = tables
    new_odot = [[0] * n for _ in range(n)]
    new_arrow = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new_odot[perm[x]][perm[y]] = perm[odot[x][y]]
            new_arrow[perm[x]][perm[y]] = perm[arrow[x][y]]
    return n, new_odot, new_arrow, perm[top]


def ladder_rung(name: str, key):
    """(tables, perm) of the named rung, relabelled by `key`."""
    construction = dict(LADDER)[name]
    tables = rung_tables(construction)
    perm = relabelling(tables[0], random.Random(f"ladder/{key}/{name}"))
    return relabel(tables, perm), perm


# ---------------------------------------------------------------------------
# formulas
#
# Trees are built in the sugared language (| and neg included) and emitted
# as text.  The parser expands "a | b" into a primitive tree holding three
# copies of each side, so the evaluator's cost follows the *primitive* size,
# which `_primitive_size` predicts without the package; drawing to a
# primitive-size window keeps the work per formula nearly seed-independent.

_BINARY = ("&", "->", "^", "|")


def _grow(rnd: random.Random, connectives: int, lor_depth: int):
    """A random sugared tree with the given number of connectives.  A `|`
    below another `|` becomes `->`: each nesting level would triple the
    primitive size again."""
    if connectives == 0:
        return ("leaf",)
    op = rnd.choice(_BINARY + ("neg", "box"))
    if op == "|" and lor_depth >= 1:
        op = "->"
    if op in ("neg", "box"):
        return (op, _grow(rnd, connectives - 1, lor_depth))
    left = rnd.randint(0, connectives - 1)
    depth = lor_depth + (op == "|")
    return (op, _grow(rnd, left, depth), _grow(rnd, connectives - 1 - left, depth))


def _primitive_size(t) -> int:
    if t[0] in ("leaf", "var"):
        return 1
    if t[0] == "neg":
        return _primitive_size(t[1]) + 2
    if t[0] == "box":
        return _primitive_size(t[1]) + 1
    a, b = _primitive_size(t[1]), _primitive_size(t[2])
    return 5 + 3 * (a + b) if t[0] == "|" else 1 + a + b


def _leaf_count(t) -> int:
    return 1 if t[0] == "leaf" else sum(_leaf_count(c) for c in t[1:])


def _assign(t, variables):
    """The tree with each leaf replaced by ("var", index) from `variables`."""
    if t[0] == "leaf":
        return ("var", next(variables))
    return (t[0], *(_assign(c, variables) for c in t[1:]))


def _text(t) -> str:
    if t[0] == "var":
        return f"p{t[1]}"
    if t[0] in ("neg", "box"):
        return f"{t[0]} {_text(t[1])}"
    return f"({_text(t[1])} {t[0]} {_text(t[2])})"


def _draw_trees(rnd, count, size, k):
    """`count` trees of primitive size within 10% of `size` whose leaves
    together number at least k."""
    lo, hi = int(size * 0.9), int(size * 1.1) + 1
    while True:
        trees = []
        while len(trees) < count:
            t = _grow(rnd, rnd.randint(1, max(1, size // 2)), 0)
            if lo <= _primitive_size(t) <= hi:
                trees.append(t)
        leaves = sum(_leaf_count(t) for t in trees)
        if leaves >= k:
            return trees, leaves


def _leaf_variables(rnd, leaves, k):
    """Variable indices for `leaves` leaves, every one of 0..k-1 used."""
    variables = list(range(k)) + [rnd.randrange(k) for _ in range(leaves - k)]
    rnd.shuffle(variables)
    return iter(variables)


def formula_texts(rnd: random.Random, count: int, size: int, k: int) -> list[str]:
    """`count` formula texts whose variables are exactly p0..p{k-1} taken
    together."""
    trees, leaves = _draw_trees(rnd, count, size, k)
    variables = _leaf_variables(rnd, leaves, k)
    return [_text(_assign(t, variables)) for t in trees]


# Early-exit goals wrap a random tree t in a two-valued tautology, so the
# pool's Boolean pair never refutes them and every search ends in a larger
# algebra, usually part way through its valuations.
_TEMPLATES = (
    lambda t: ("|", t, ("neg", t)),
    lambda t: ("->", ("neg", ("neg", t)), t),
    lambda t: ("->", t, ("box", t)),
)


@functools.cache
def _columns(n: int, k: int):
    """Per variable, its value at each valuation in mixed-radix order
    (last variable fastest), the order the package's searches use."""
    return [[(i // n ** (k - 1 - j)) % n for i in range(n**k)] for j in range(k)]


def _values(t, alg, columns) -> list[int]:
    """The tree's value at every valuation, on alg = (size, odot, arrow,
    meet, forall, top, bottom)."""
    _n, odot, arrow, meet, forall, _top, bottom = alg
    op = t[0]
    if op == "var":
        return columns[t[1]]
    if op == "neg":
        return [arrow[x][bottom] for x in _values(t[1], alg, columns)]
    if op == "box":
        return [forall[x] for x in _values(t[1], alg, columns)]
    pairs = zip(_values(t[1], alg, columns), _values(t[2], alg, columns))
    if op == "|":  # as the parser expands it: ((a -> b) -> b) ^ ((b -> a) -> a)
        return [meet[arrow[arrow[x][y]][y]][arrow[arrow[y][x]][x]] for x, y in pairs]
    table = {"->": arrow, "&": odot, "^": meet}[op]
    return [table[x][y] for x, y in pairs]


def first_refutation(t, k: int, pool):
    """(pool index, valuation, valuations visited) of the first refutation
    of the tree over p0..p{k-1} in pool order, or None if none refutes it.
    The valuation is ((0, v0), (1, v1), ...)."""
    visited = 0
    for index, alg in enumerate(pool):
        n, top = alg[0], alg[5]
        values = _values(t, alg, _columns(n, k))
        rank = next((i for i, v in enumerate(values) if v != top), None)
        if rank is not None:
            valuation = tuple((j, (rank // n ** (k - 1 - j)) % n) for j in range(k))
            return index, valuation, visited + rank + 1
        visited += n**k
    return None


def early_exit_goals(rnd: random.Random, pool, size: int, ks, most: int, total: int):
    """Goal texts with their first refutation (pool index, valuation).

    A search costs about (valuations it visits) x (the goal's primitive
    size) evaluator steps.  Goals are drawn until their searches together
    cost between 98% and 100% of `total` steps; a goal costing more than
    `most` or than what is left, or that no pair refutes, is redrawn.  So
    the work per pass is known and nearly seed-independent.  Each goal's t
    has a primitive size within 10% of `size`; goals come in turn over
    p0..p{k-1} for k in `ks`."""
    goals, steps = [], 0
    while steps < 0.98 * total:
        k = ks[len(goals) % len(ks)]
        trees, leaves = _draw_trees(rnd, 1, size, k)
        goal = rnd.choice(_TEMPLATES)(_assign(trees[0], _leaf_variables(rnd, leaves, k)))
        hit = first_refutation(goal, k, pool)
        cost = hit[2] * _primitive_size(goal) if hit else None
        if cost is not None and cost <= min(most, total - steps):
            goals.append((_text(goal), hit[0], hit[1]))
            steps += cost
    return goals
