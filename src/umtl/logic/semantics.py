"""Evaluation of formulas over quantified algebras and countermodel search.

Formulas are compiled once into a `Program`, by one post-order walk that
dispatches on the node class: straight-line code over their distinct node
objects, children first.  The sugared `a | b` holds each side three
times, so a flat `|` chain is exponential as a tree but linear as a
program.  Formula nodes are interned, so equal subformulas are one node
object and get one slot, every leaf (a variable index, a metavariable
label, or bot) among them.  A schema metavariable left in a formula given
to a search is an error: only variables are swept.

Validity, consequence, countermodel search and schema soundness all ask
one question of `_first_refutations`: for each goal, which is the least
valuation sending every premise to top and the conclusion below it?
Valuations are ranked in mixed-radix order over the leaves, last leaf
fastest (the order of itertools.product), and evaluated BLOCK at a time,
one bit each, as value masks (see `Program`).  A goal's hit set is the
complement of its conclusion's mask of top, ANDed with each premise's mask
of top.  Its least rank is the lowest set bit, and the goal closes at the
first block with a hit; the sweep stops once every goal is closed, so first
witnesses are deterministic: a countermodel search returns the hit with the
least (pool index, valuation rank).  Validity, consequence and countermodel
search pass one goal; the soundness audit passes every schema of a group
that shares one program.

A program with no `forall` step computes the same masks for every
quantifier on an algebra, so `_shared_refutations` sweeps it once per
algebra object, on its first pair, and reads that verdict back on the
later pairs on that object; the countermodel search, `pool_validity`
and the soundness audit sweep through it.  The first hit keeps its (pool
index, valuation rank), and `SearchExhausted.valuations_checked` is n^k
summed over the whole pool, skipped pairs too: the pool's size in
valuations, not the number evaluated.  Every sweep over k leaves starts
with the same block of leaf masks, so that first block is kept in the
algebra's cache under ("first-block", k, block size) and shared by every
search, validity sweep and soundness group on the algebra; later blocks
are built per sweep.

This module evaluates formulas only.  The algebra-side condition for the
disjunction form of the box rule (a join b = top implies a join forall b =
top) is the join-implication condition of `analysis.is_representable`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..quantifier import UMTLAlgebra
from ..core import classify
from .formulas import And, Bot, Box, Formula, Impl, MetaVar, Min, Var
from .schemas import A, B, SchemaCatalog

BLOCK = 1296  # valuations evaluated together, one bit each


class VariableBudgetError(ValueError):
    pass


# the table each binary connective looks up
_TABLES = {Impl: "arrow", And: "odot", Min: "meet"}


def _leaf_name(key) -> str:
    return f"p{key}" if isinstance(key, int) else key


class Program(NamedTuple):
    """Straight-line code computing some formulas over their distinct nodes.

    `code[s]` computes slot `s` from earlier slots: ("leaf", key), ("bot",),
    ("forall", a), or (table, a, b) with table "arrow", "odot" or "meet".
    `leaves` lists the leaf keys (variable indices and metavariable labels)
    in order of first occurrence, left to right; `roots` holds the slot of
    each compiled formula, in the order given.  `variables` holds the
    sorted variable indices among the leaves, and `reads_forall` whether
    some step reads the quantifier table: a program with none computes the
    same masks for every quantifier on an algebra.  Both are set once, by
    `compile_formulas`.

    `masks` runs the code over a set of valuations, one bit each: a slot
    holds one value mask per carrier value v, whose bit i is set iff
    valuation i gives the slot the value v.  A table step T ORs
    `a[x] & b[y]` into `out[T[x][y]]` over the non-zero masks.
    """

    code: tuple[tuple, ...]
    leaves: tuple
    roots: tuple[int, ...]
    variables: tuple[int, ...]
    reads_forall: bool

    def masks(self, q: UMTLAlgebra, leaf_masks, full: int) -> list[list[int]]:
        """The value masks of each root, from each leaf's value masks;
        `full` has the bit of every valuation set."""
        alg = q.algebra
        tables = {"arrow": alg.arrow, "odot": alg.odot, "meet": alg.meet}
        forall = q.forall
        n = alg.size
        slots: list[list[int]] = []
        for op, *args in self.code:
            out = [0] * n
            if op in tables:
                table = tables[op]
                right = [(y, b) for y, b in enumerate(slots[args[1]]) if b]
                for x, a in enumerate(slots[args[0]]):
                    if a:
                        row = table[x]
                        for y, b in right:
                            out[row[y]] |= a & b
            elif op == "forall":
                for x, a in enumerate(slots[args[0]]):
                    out[forall[x]] |= a
            elif op == "leaf":
                out = leaf_masks[args[0]]
            else:
                out[alg.bottom] = full
            slots.append(out)
        return [slots[r] for r in self.roots]


def compile_formulas(formulas) -> Program:
    """One program for all `formulas`, each node object compiled once.

    One post-order walk that dispatches on the node class: a connective
    stays on the stack under its children until they have slots."""
    code: list[tuple] = []
    slot_of: dict[Formula, int] = {}
    leaves: dict = {}
    roots = []
    reads_forall = False
    for f in formulas:
        stack = [f]
        while stack:
            g = stack[-1]
            if g in slot_of:
                stack.pop()
                continue
            cls = g.__class__
            if cls in _TABLES:
                a = slot_of.get(g.left)
                b = slot_of.get(g.right)
                if a is None or b is None:
                    if b is None:
                        stack.append(g.right)
                    if a is None:
                        stack.append(g.left)
                    continue
                instr = (_TABLES[cls], a, b)
            elif cls is Box:
                a = slot_of.get(g.arg)
                if a is None:
                    stack.append(g.arg)
                    continue
                instr = ("forall", a)
                reads_forall = True
            elif cls is Var:
                instr = ("leaf", g.index)
                leaves[g.index] = None
            elif cls is MetaVar:
                instr = ("leaf", g.label)
                leaves[g.label] = None
            elif cls is Bot:
                instr = ("bot",)
            else:
                raise TypeError(f"cannot evaluate {g!r}")
            stack.pop()
            slot_of[g] = len(code)
            code.append(instr)
        roots.append(slot_of[f])
    return Program(
        tuple(code),
        tuple(leaves),
        tuple(roots),
        tuple(sorted(k for k in leaves if isinstance(k, int))),
        reads_forall,
    )


def eval_formula(q: UMTLAlgebra, valuation, f: Formula) -> int:
    """The value of `f`, with each variable's value looked up in
    `valuation` by index and each metavariable's by label; each value must
    be an element of the carrier."""
    program = compile_formulas((f,))
    n = q.algebra.size
    leaf_masks = {}
    for key in program.leaves:
        try:
            value = valuation[key]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"valuation misses {_leaf_name(key)}") from exc
        if not isinstance(value, int) or not 0 <= value < n:
            raise ValueError(
                f"valuation gives {_leaf_name(key)} the value {value!r},"
                f" not an element of 0..{n - 1}"
            )
        leaf_masks[key] = [int(v == value) for v in range(n)]
    return program.masks(q, leaf_masks, 1)[0].index(1)


class ValidityResult(NamedTuple):
    valid: bool
    countervaluation: dict[int, int] | None = None
    value: int | None = None


def _variables(program: Program, max_vars: int) -> tuple[int, ...]:
    """The sorted variables of the program, within the budget; a schema
    metavariable, which no valuation of variables assigns, is an error."""
    variables = program.variables
    if len(variables) < len(program.leaves):
        label = next(k for k in program.leaves if not isinstance(k, int))
        raise ValueError(f"cannot evaluate the schema metavariable {label}")
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    return variables


def _leaf_masks(n: int, weight: int, start: int, size: int) -> list[int]:
    """The value masks of a leaf over ranks start..start+size-1, where the
    leaf takes the value rank // weight % n: runs of `weight` equal values,
    repeating with period n * weight."""
    full = (1 << size) - 1
    masks = [0] * n
    if weight >= size:  # the value changes at most once inside the block
        v = start // weight % n
        masks[v] = (1 << min(size, weight - start % weight)) - 1
        masks[(v + 1) % n] |= full ^ masks[v]
        return masks
    period = n * weight
    phase = start % period  # how far into a period the block starts
    pattern, span = (1 << weight) - 1, period  # the runs of value 0
    while span < phase + size:
        pattern |= pattern << span
        span *= 2
    return [(pattern << v * weight >> phase) & full for v in range(n)]


def _first_refutations(q: UMTLAlgebra, program: Program, leaves, goals) -> list:
    """For each goal, the least valuation of `leaves` (variable indices or
    metavariable labels) in rank order (mixed radix, last leaf fastest)
    that sends the goal's conclusion below top and each of its premises to
    top, with the conclusion's value; None where no valuation does.

    A goal is a pair (conclusion, premises) of positions in the program's
    roots.  The sweep runs block by block until every goal has its hit or
    the valuations run out.
    """
    alg = q.algebra
    n, top = alg.size, alg.top
    weights = [n**e for e in reversed(range(len(leaves)))]
    total = n ** len(leaves)
    first: list = [None] * len(goals)
    pending = range(len(goals))
    for start in range(0, total, BLOCK):
        size = min(BLOCK, total - start)
        full = (1 << size) - 1
        if start:
            columns = [_leaf_masks(n, w, start, size) for w in weights]
        else:
            columns = alg.cached(
                ("first-block", len(leaves), size),
                lambda: tuple(tuple(_leaf_masks(n, w, 0, size)) for w in weights),
            )
        roots = program.masks(q, dict(zip(leaves, columns)), full)
        still = []
        for g in pending:
            conclusion, premises = goals[g]
            hits = full ^ roots[conclusion][top]
            for p in premises:
                hits &= roots[p][top]
            if not hits:
                still.append(g)
                continue
            low = hits & -hits  # the least rank in the block
            rank = start + low.bit_length() - 1
            value = next(v for v, m in enumerate(roots[conclusion]) if m & low)
            first[g] = {leaf: rank // w % n for leaf, w in zip(leaves, weights)}, value
        if not still:
            break
        pending = still
    return first


def _shared_refutations(
    q: UMTLAlgebra, program: Program, leaves, goals, verdicts: dict
) -> list:
    """`_first_refutations` of `program` on `q`.  A program with no
    `forall` step reads only the algebra's tables, so its result is kept in
    `verdicts`, which the caller holds for this program alone, by algebra
    object and read back on every later pair on that object."""
    if program.reads_forall:
        return _first_refutations(q, program, leaves, goals)
    key = id(q.algebra)  # the caller's pool keeps every algebra alive
    if key not in verdicts:
        verdicts[key] = _first_refutations(q, program, leaves, goals)
    return verdicts[key]


def _rule_goals(program: Program) -> tuple:
    """The one goal of a program whose first root is the conclusion and
    whose other roots are the premises."""
    return ((0, tuple(range(1, len(program.roots)))),)


def is_valid(q: UMTLAlgebra, f: Formula, max_vars: int = 6) -> ValidityResult:
    return consequence(q, (), f, max_vars)


def consequence(
    q: UMTLAlgebra, theory, f: Formula, max_vars: int = 6
) -> ValidityResult:
    """Every valuation sending the whole theory to top sends f to top."""
    program = compile_formulas((f, *theory))
    variables = _variables(program, max_vars)
    [hit] = _first_refutations(q, program, variables, _rule_goals(program))
    return ValidityResult(True) if hit is None else ValidityResult(False, *hit)


def pool_validity(f: Formula, pool, max_vars: int = 6) -> list[ValidityResult]:
    """`is_valid(q, f, max_vars)` for each pair q of `pool`, from one
    compile; a formula with no box is swept once per algebra object."""
    program = compile_formulas((f,))
    variables = _variables(program, max_vars)
    goals = _rule_goals(program)
    verdicts: dict = {}
    out = []
    for q in pool:
        [hit] = _shared_refutations(q, program, variables, goals, verdicts)
        out.append(ValidityResult(True) if hit is None else ValidityResult(False, *hit))
    return out


class RuleInstance(NamedTuple):
    premises: tuple[Formula, ...]
    conclusion: Formula


class Countermodel(NamedTuple):
    pool_index: int
    algebra_label: str
    valuation: tuple[tuple[int, int], ...]
    value: int

    def valuation_dict(self) -> dict[int, int]:
        return dict(self.valuation)


class SearchExhausted(NamedTuple):
    """No refutation on the pool.  `valuations_checked` is n^k summed over
    every pair of the pool, the valuations a search that shares nothing
    evaluates; it is not the number evaluated, since a goal with no box is
    swept once per algebra object."""

    pool_size: int
    valuations_checked: int


def countermodel_search(
    goal: Formula | RuleInstance,
    pool: list[UMTLAlgebra],
    max_vars: int = 6,
    jobs: int = 1,
) -> Countermodel | SearchExhausted:
    """First refuting (algebra, valuation) in canonical pool order.

    `jobs` is accepted for compatibility and ignored: the search is serial.
    """
    if isinstance(goal, RuleInstance):
        program = compile_formulas((goal.conclusion, *goal.premises))
    else:
        program = compile_formulas((goal,))
    variables = _variables(program, max_vars)
    goals = _rule_goals(program)
    verdicts: dict = {}
    for index, q in enumerate(pool):
        [hit] = _shared_refutations(q, program, variables, goals, verdicts)
        if hit is not None:
            valuation, value = hit
            return Countermodel(index, q.label(), tuple(sorted(valuation.items())), value)
    checked = sum(q.algebra.size ** len(variables) for q in pool)
    return SearchExhausted(len(pool), checked)


# ---------------------------------------------------------------------------
# soundness audit


class SchemaSoundness(NamedTuple):
    schema_id: str
    algebra_label: str
    valid: bool
    countervaluation: tuple[tuple[str, int], ...] | None = None


class SoundnessReport(NamedTuple):
    entries: tuple[SchemaSoundness, ...]
    mp_preserves: bool
    nec_preserves: bool

    @property
    def all_valid(self) -> bool:
        return all(e.valid for e in self.entries) and self.mp_preserves and self.nec_preserves


_EXTENSION_GUARDS = {
    "INV": lambda profile: profile.imtl,
    "WNM": lambda profile: profile.nm,
    "MV": lambda profile: profile.mv,
    "EM": lambda profile: profile.boolean,
}


# the two rules of the calculus over metavariables: conclusion, premises
_MP = (B, A, Impl(A, B))
_NEC = (Box(A), A)


class _Group(NamedTuple):
    """Checks that share one program: each goal is a pair (conclusion,
    premises) of positions in its roots; `guard` is the extension guard of
    every member, or None."""

    guard: Callable | None
    program: Program
    goals: tuple[tuple[int, tuple[int, ...]], ...]


def _compile_groups(checks) -> tuple[list[_Group], list[tuple[int, int]]]:
    """One program for each group of `checks`, each a tuple (guard,
    conclusion, *premises), with equal guards and, in each check's own
    program, equal `reads_forall` and equal leaves in the same order; and
    the (group, goal) of each check."""
    keyed: dict[tuple, list[int]] = {}
    for i, (guard, *formulas) in enumerate(checks):
        alone = compile_formulas(formulas)
        keyed.setdefault((guard, alone.reads_forall, alone.leaves), []).append(i)
    groups: list[_Group] = []
    at: list[tuple[int, int]] = [(0, 0)] * len(checks)
    for (guard, _, _), members in keyed.items():
        formulas: list[Formula] = []
        goals = []
        for i in members:
            at[i] = (len(groups), len(goals))
            conclusion, *premises = checks[i][1:]
            k = len(formulas)
            formulas += [conclusion, *premises]
            goals.append((k, tuple(range(k + 1, len(formulas)))))
        groups.append(_Group(guard, compile_formulas(formulas), tuple(goals)))
    return groups, at


def soundness_audit(
    corpus: list[UMTLAlgebra], catalog: SchemaCatalog
) -> SoundnessReport:
    """Schema validity plus pointwise rule preservation on every corpus
    member, with metavariables ranging over the carrier: substituting
    arbitrary formulas for them only ever produces carrier values, so the
    scan covers every instance.  Extension schemas are audited only on
    bases in the matching subvariety.

    The schemas and the two rules are grouped by extension guard, by
    whether they read the quantifier and by their leaves in order of first
    occurrence, and each group is compiled into one program, so a
    subformula that several members share is computed once: M2a-M3b take
    13 steps together and 28 apart.  One sweep answers every member.
    The members of a group rank valuations in the same mixed-radix order,
    so each one's least refutation is its own least witness, the same as
    when it is swept alone.

    A group with no `forall` step (the MTL axioms, the extensions and
    modus ponens) reads only the algebra's tables, so its verdicts and
    witnesses are computed once per algebra object and copied into the
    entries of every pair on it; the modal groups, necessitation among
    them, run per pair.  The entries stay per pair, in corpus order and
    catalog order.  A shared verdict is a function of the algebra alone,
    never of a quantifier or of another check's result, so sharing cannot
    make one side of an audit follow from the other.
    """
    checks = [
        (_EXTENSION_GUARDS.get(schema_id), pattern)
        for schema_id, pattern in catalog.schemas
    ]
    checks += [(None, *_MP), (None, *_NEC)]
    groups, at = _compile_groups(checks)
    verdicts: list[dict] = [{} for _ in groups]

    entries = []
    mp_ok = True
    nec_ok = True
    for q in corpus:
        profile = classify(q.algebra)
        label = q.label()
        hits: list = []  # per group, the first refutation of each goal
        for index, group in enumerate(groups):
            if group.guard is not None and not group.guard(profile):
                hits.append(None)
            else:
                program = group.program
                hits.append(
                    _shared_refutations(
                        q, program, program.leaves, group.goals, verdicts[index]
                    )
                )
        for (schema_id, _), (g, goal) in zip(catalog.schemas, at):
            if hits[g] is not None:
                hit = hits[g][goal]
                witness = None if hit is None else tuple(sorted(hit[0].items()))
                entries.append(SchemaSoundness(schema_id, label, hit is None, witness))
        (mp_group, mp_goal), (nec_group, nec_goal) = at[-2:]
        mp_ok = mp_ok and hits[mp_group][mp_goal] is None
        nec_ok = nec_ok and hits[nec_group][nec_goal] is None
    return SoundnessReport(tuple(entries), mp_ok, nec_ok)
