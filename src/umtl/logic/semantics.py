"""Evaluation of formulas over quantified algebras and countermodel search.

Formulas are compiled once into a `Program`: straight-line code over their
distinct node objects in post-order, children first.  Nodes are keyed by
`id`, never by value, because frozen-dataclass hashing and equality recurse
into the children, and the sugared `a | b` holds each side three times, so
a flat `|` chain is exponential as a tree but linear as a program.  Equal
instructions over equal slots also share one slot, so every leaf (a
variable index, a metavariable label, or bot) gets exactly one.

Validity, consequence, countermodel search and schema soundness all ask
one question of `_refutations`: which valuations send every premise to top
and the conclusion below it?  Valuations are ranked in mixed-radix order
over the leaves, last leaf fastest (the order of itertools.product), and
evaluated BLOCK at a time: each program slot becomes one column, a list of
up to BLOCK values looked up in the algebra's tables.  The first hit is
the least rank whose conclusion misses top while every premise hits it,
and a search stops at the first block holding one.  So results and first
witnesses are deterministic, and a countermodel search returns the hit
with the least (pool index, valuation rank).  BLOCK is fixed at 1296 =
6^4 valuations: larger blocks raise the peak memory of a sweep and were
slower in measurement, much smaller ones were no faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import getitem

from ..quantifier import UMTLAlgebra
from ..core import classify
from ..analysis import join_implication_witness
from .formulas import And, Bot, Box, Formula, Impl, MetaVar, Min, Var
from .schemas import A, B, SchemaCatalog

BLOCK = 1296  # valuations evaluated per column


class VariableBudgetError(ValueError):
    pass


# the table each connective looks up
_OPS = {Impl: "arrow", And: "odot", Min: "meet", Box: "forall"}


def _leaf_name(key) -> str:
    return f"p{key}" if isinstance(key, int) else key


@dataclass(frozen=True)
class Program:
    """Straight-line code computing some formulas over their distinct nodes.

    `code[s]` computes slot `s` from earlier slots: ("leaf", key), ("bot",),
    ("forall", a), or (table, a, b) with table "arrow", "odot" or "meet".
    `leaves` lists the leaf keys (variable indices and metavariable labels)
    in order of first occurrence, left to right; `roots` holds the slot of
    each compiled formula, in the order given.
    """

    code: tuple[tuple, ...]
    leaves: tuple
    roots: tuple[int, ...]

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(k for k in self.leaves if isinstance(k, int)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(k for k in self.leaves if isinstance(k, str))

    def run(self, q: UMTLAlgebra, columns, size: int) -> list[list[int]]:
        """The column of each root, from each leaf's column of `size` values."""
        alg = q.algebra
        tables = {"arrow": alg.arrow, "odot": alg.odot, "meet": alg.meet}
        forall = q.forall
        slots: list[list[int]] = []
        for op, *args in self.code:
            if op in tables:
                rows = map(tables[op].__getitem__, slots[args[0]])
                slots.append(list(map(getitem, rows, slots[args[1]])))
            elif op == "forall":
                slots.append(list(map(forall.__getitem__, slots[args[0]])))
            elif op == "leaf":
                column = columns.get(args[0])
                if column is None:
                    raise ValueError(f"valuation misses {_leaf_name(args[0])}")
                slots.append(column)
            else:
                slots.append([alg.bottom] * size)
        return [slots[r] for r in self.roots]


def compile_formulas(formulas) -> Program:
    """One program for all `formulas`, each node object compiled once."""
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
            kids = () if op is None else (g.arg,) if op == "forall" else (g.left, g.right)
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
    return Program(tuple(code), tuple(leaves), tuple(roots))


def eval_formula(q: UMTLAlgebra, valuation, f: Formula) -> int:
    """The value of `f`, with each variable's value looked up in
    `valuation` by index and each metavariable's by label."""
    program = compile_formulas((f,))
    columns = {}
    for key in program.leaves:
        try:
            columns[key] = [valuation[key]]
        except (KeyError, IndexError) as exc:
            raise ValueError(f"valuation misses {_leaf_name(key)}") from exc
    return program.run(q, columns, 1)[0][0]


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    countervaluation: dict[int, int] | None = None
    value: int | None = None


def _variables(program: Program, max_vars: int) -> tuple[int, ...]:
    """The sorted variables of the program, within the budget."""
    variables = program.variables
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    return variables


def _refutations(q: UMTLAlgebra, program: Program, leaves):
    """Every valuation of `leaves` (variable indices or metavariable
    labels) that sends the program's first root, the conclusion, below top
    and every other root, the premises, to top, with the conclusion's
    value, in rank order (mixed radix, last leaf fastest)."""
    n, top = q.algebra.size, q.algebra.top
    weights = [n**e for e in reversed(range(len(leaves)))]
    total = n ** len(leaves)
    for start in range(0, total, BLOCK):
        stop = min(start + BLOCK, total)
        columns = {
            leaf: [rank // w % n for rank in range(start, stop)]
            for leaf, w in zip(leaves, weights)
        }
        conclusion, *premises = program.run(q, columns, stop - start)
        for i in compress(range(stop - start), map(top.__ne__, conclusion)):
            if all(p[i] == top for p in premises):
                yield {leaf: columns[leaf][i] for leaf in leaves}, conclusion[i]


def is_valid(q: UMTLAlgebra, f: Formula, max_vars: int = 6) -> ValidityResult:
    return consequence(q, (), f, max_vars)


def consequence(
    q: UMTLAlgebra, theory, f: Formula, max_vars: int = 6
) -> ValidityResult:
    """Every valuation sending the whole theory to top sends f to top."""
    program = compile_formulas((f, *theory))
    variables = _variables(program, max_vars)
    hit = next(_refutations(q, program, variables), None)
    return ValidityResult(True) if hit is None else ValidityResult(False, *hit)


@dataclass(frozen=True)
class RuleInstance:
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class Countermodel:
    pool_index: int
    algebra_label: str
    valuation: tuple[tuple[int, int], ...]
    value: int

    def valuation_dict(self) -> dict[int, int]:
        return dict(self.valuation)


@dataclass(frozen=True)
class SearchExhausted:
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
    for index, q in enumerate(pool):
        hit = next(_refutations(q, program, variables), None)
        if hit is not None:
            valuation, value = hit
            return Countermodel(index, q.label(), tuple(sorted(valuation.items())), value)
    checked = sum(q.algebra.size ** len(variables) for q in pool)
    return SearchExhausted(len(pool), checked)


def check_semilinearity_condition(q: UMTLAlgebra):
    """Algebra-side validity of the disjunction form of the box rule:
    a join b = top implies a join forall b = top."""
    witness = join_implication_witness(q)
    return witness is None, witness


# ---------------------------------------------------------------------------
# soundness audit


@dataclass(frozen=True)
class SchemaSoundness:
    schema_id: str
    algebra_label: str
    valid: bool
    countervaluation: tuple[tuple[str, int], ...] | None = None


@dataclass(frozen=True)
class SoundnessReport:
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
_MP = (B, (A, Impl(A, B)))
_NEC = (Box(A), (A,))


def _schema_instance_valid(
    q: UMTLAlgebra, program: Program
) -> tuple[bool, tuple | None]:
    """Validity of a compiled schema, or of the rule from its premises to
    it, with metavariables ranging over the carrier.

    Substituting arbitrary formulas for metavariables only ever produces
    carrier values, so this scan covers every instance of the schema.
    """
    hit = next(_refutations(q, program, program.labels), None)
    return (True, None) if hit is None else (False, tuple(sorted(hit[0].items())))


def soundness_audit(
    corpus: list[UMTLAlgebra], catalog: SchemaCatalog
) -> SoundnessReport:
    """Schema validity plus pointwise rule preservation on every corpus
    member.  Extension schemas are audited only on bases in the matching
    subvariety."""
    programs = [
        (schema_id, _EXTENSION_GUARDS.get(schema_id), compile_formulas((pattern,)))
        for schema_id, pattern in catalog.schemas
    ]
    mp, nec = (compile_formulas((c, *premises)) for c, premises in (_MP, _NEC))
    entries = []
    mp_ok = True
    nec_ok = True
    for q in corpus:
        profile = classify(q.algebra)
        for schema_id, guard, program in programs:
            if guard is not None and not guard(profile):
                continue
            valid, witness = _schema_instance_valid(q, program)
            entries.append(
                SchemaSoundness(schema_id, q.label(), valid, witness)
            )
        mp_ok = mp_ok and _schema_instance_valid(q, mp)[0]
        nec_ok = nec_ok and _schema_instance_valid(q, nec)[0]
    return SoundnessReport(tuple(entries), mp_ok, nec_ok)
