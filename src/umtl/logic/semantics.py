"""Evaluation of formulas over quantified algebras and countermodel search.

Validity, consequence, countermodel search and schema soundness all ask
one question of `_refutations`: which valuations send every premise to top
and the conclusion below it?  It sweeps in mixed-radix order over the
variables (itertools.product with the last variable fastest), so results
and first witnesses are deterministic: a countermodel search returns the
hit with the least (pool index, valuation rank).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..quantifier import UMTLAlgebra
from ..core import classify
from ..analysis import join_implication_witness
from .formulas import And, Bot, Box, Formula, Impl, MetaVar, Min, Var, variables_of
from .schemas import A, B, SchemaCatalog, metavars_of


class VariableBudgetError(ValueError):
    pass


def eval_formula(q: UMTLAlgebra, valuation, f: Formula) -> int:
    """The value of `f`, with each variable's value looked up in
    `valuation` by index and each metavariable's by label."""
    alg = q.algebra
    forall = q.forall

    def ev(g: Formula) -> int:
        if isinstance(g, Var):
            try:
                return valuation[g.index]
            except (KeyError, IndexError) as exc:
                raise ValueError(f"valuation misses p{g.index}") from exc
        if isinstance(g, Bot):
            return alg.bottom
        if isinstance(g, Impl):
            return alg.arrow[ev(g.left)][ev(g.right)]
        if isinstance(g, And):
            return alg.odot[ev(g.left)][ev(g.right)]
        if isinstance(g, Min):
            return alg.meet[ev(g.left)][ev(g.right)]
        if isinstance(g, Box):
            return forall[ev(g.arg)]
        # after the connectives: formulas without metavariables pay nothing
        if isinstance(g, MetaVar):
            try:
                return valuation[g.label]
            except KeyError as exc:
                raise ValueError(f"valuation misses {g.label}") from exc
        raise TypeError(f"cannot evaluate {g!r}")

    return ev(f)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    countervaluation: dict[int, int] | None = None
    value: int | None = None


def _variables(formulas, max_vars: int) -> tuple[int, ...]:
    """The sorted variables of all `formulas`, within the budget."""
    variables = tuple(sorted({v for f in formulas for v in variables_of(f)}))
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    return variables


def _refutations(q: UMTLAlgebra, premises, conclusion: Formula, leaves):
    """Every valuation of `leaves` (variable indices or metavariable
    labels) that sends each premise to top and the conclusion below top,
    with the conclusion's value, in mixed-radix order (last leaf fastest)."""
    top = q.algebra.top
    for combo in itertools.product(range(q.algebra.size), repeat=len(leaves)):
        valuation = dict(zip(leaves, combo))
        value = eval_formula(q, valuation, conclusion)
        if value != top and all(eval_formula(q, valuation, p) == top for p in premises):
            yield valuation, value


def is_valid(q: UMTLAlgebra, f: Formula, max_vars: int = 6) -> ValidityResult:
    return consequence(q, (), f, max_vars)


def consequence(
    q: UMTLAlgebra, theory, f: Formula, max_vars: int = 6
) -> ValidityResult:
    """Every valuation sending the whole theory to top sends f to top."""
    theory = tuple(theory)
    variables = _variables((f, *theory), max_vars)
    hit = next(_refutations(q, theory, f, variables), None)
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
        premises, conclusion = goal.premises, goal.conclusion
    else:
        premises, conclusion = (), goal
    variables = _variables((conclusion, *premises), max_vars)
    for index, q in enumerate(pool):
        hit = next(_refutations(q, premises, conclusion, variables), None)
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
    q: UMTLAlgebra, pattern: Formula, premises=()
) -> tuple[bool, tuple | None]:
    """Validity of a schema, or of the rule from `premises` to it, with
    metavariables ranging over the carrier.

    Substituting arbitrary formulas for metavariables only ever produces
    carrier values, so this scan covers every instance of the schema.
    """
    labels = tuple(
        dict.fromkeys(m for f in (pattern, *premises) for m in metavars_of(f))
    )
    hit = next(_refutations(q, premises, pattern, labels), None)
    return (True, None) if hit is None else (False, tuple(sorted(hit[0].items())))


def soundness_audit(
    corpus: list[UMTLAlgebra], catalog: SchemaCatalog
) -> SoundnessReport:
    """Schema validity plus pointwise rule preservation on every corpus
    member.  Extension schemas are audited only on bases in the matching
    subvariety."""
    entries = []
    mp_ok = True
    nec_ok = True
    for q in corpus:
        profile = classify(q.algebra)
        for schema_id, pattern in catalog.schemas:
            guard = _EXTENSION_GUARDS.get(schema_id)
            if guard is not None and not guard(profile):
                continue
            valid, witness = _schema_instance_valid(q, pattern)
            entries.append(
                SchemaSoundness(schema_id, q.label(), valid, witness)
            )
        mp_ok = mp_ok and _schema_instance_valid(q, *_MP)[0]
        nec_ok = nec_ok and _schema_instance_valid(q, *_NEC)[0]
    return SoundnessReport(tuple(entries), mp_ok, nec_ok)
