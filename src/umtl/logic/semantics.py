"""Evaluation of formulas over quantified algebras and countermodel search.

Valuation sweeps run in mixed-radix order over the formula's variables
(itertools.product with the last variable fastest), so results and first
witnesses are deterministic: a countermodel search returns the hit with
the least (pool index, valuation rank).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..quantifier import UMTLAlgebra
from ..core import classify
from .formulas import And, Bot, Box, Formula, Impl, MetaVar, Min, Var, variables_of
from .schemas import SchemaCatalog, metavars_of


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


def _sweep(variables: tuple[int, ...], size: int):
    for combo in itertools.product(range(size), repeat=len(variables)):
        yield dict(zip(variables, combo))


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    countervaluation: dict[int, int] | None = None
    value: int | None = None


def is_valid(q: UMTLAlgebra, f: Formula, max_vars: int = 6) -> ValidityResult:
    variables = variables_of(f)
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    top = q.algebra.top
    for valuation in _sweep(variables, q.algebra.size):
        value = eval_formula(q, valuation, f)
        if value != top:
            return ValidityResult(False, valuation, value)
    return ValidityResult(True)


def consequence(
    q: UMTLAlgebra, theory, f: Formula, max_vars: int = 6
) -> ValidityResult:
    """Every valuation sending the whole theory to top sends f to top."""
    variables = tuple(
        sorted(set(variables_of(f)).union(*(set(variables_of(t)) for t in theory)))
        if theory
        else variables_of(f)
    )
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    top = q.algebra.top
    for valuation in _sweep(variables, q.algebra.size):
        if all(eval_formula(q, valuation, t) == top for t in theory):
            value = eval_formula(q, valuation, f)
            if value != top:
                return ValidityResult(False, valuation, value)
    return ValidityResult(True)


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


def _refutes(q: UMTLAlgebra, goal, valuation) -> int | None:
    """The conclusion value when the valuation refutes the goal, else None."""
    top = q.algebra.top
    if isinstance(goal, RuleInstance):
        if any(eval_formula(q, valuation, p) != top for p in goal.premises):
            return None
        value = eval_formula(q, valuation, goal.conclusion)
        return value if value != top else None
    value = eval_formula(q, valuation, goal)
    return value if value != top else None


def _goal_variables(goal) -> tuple[int, ...]:
    if isinstance(goal, RuleInstance):
        out: set[int] = set(variables_of(goal.conclusion))
        for p in goal.premises:
            out.update(variables_of(p))
        return tuple(sorted(out))
    return variables_of(goal)


def countermodel_search(
    goal: Formula | RuleInstance,
    pool: list[UMTLAlgebra],
    max_vars: int = 6,
    jobs: int = 1,
) -> Countermodel | SearchExhausted:
    """First refuting (algebra, valuation) in canonical pool order.

    `jobs` is accepted for compatibility and ignored: the search is serial.
    """
    variables = _goal_variables(goal)
    if len(variables) > max_vars:
        raise VariableBudgetError(
            f"{len(variables)} variables exceed the budget of {max_vars}"
        )
    for index, q in enumerate(pool):
        for valuation in _sweep(variables, q.algebra.size):
            value = _refutes(q, goal, valuation)
            if value is not None:
                valuation = tuple(sorted(valuation.items()))
                return Countermodel(index, q.label(), valuation, value)
    checked = sum(q.algebra.size ** len(variables) for q in pool)
    return SearchExhausted(len(pool), checked)


def check_semilinearity_condition(q: UMTLAlgebra):
    """Algebra-side validity of the disjunction form of the box rule:
    a join b = top implies a join forall b = top."""
    alg, f = q.algebra, q.forall
    top = alg.top
    witness = next(
        (
            (x, y)
            for x in alg.elements
            for y in alg.elements
            if alg.join[x][y] == top and alg.join[x][f[y]] != top
        ),
        None,
    )
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


def _schema_instance_valid(q: UMTLAlgebra, pattern: Formula) -> tuple[bool, tuple | None]:
    """Validity of a schema with metavariables ranging over the carrier.

    Substituting arbitrary formulas for metavariables only ever produces
    carrier values, so this scan covers every instance of the schema.
    """
    labels = metavars_of(pattern)
    alg = q.algebra
    for combo in itertools.product(range(alg.size), repeat=len(labels)):
        env = dict(zip(labels, combo))
        if eval_formula(q, env, pattern) != alg.top:
            return False, tuple(sorted(env.items()))
    return True, None


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
        alg = q.algebra
        top = alg.top
        mp_ok = mp_ok and all(
            not (u == top and alg.arrow[u][v] == top) or v == top
            for u in alg.elements
            for v in alg.elements
        )
        nec_ok = nec_ok and q.forall[top] == top
    return SoundnessReport(tuple(entries), mp_ok, nec_ok)
