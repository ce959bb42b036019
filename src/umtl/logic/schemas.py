"""Axiom schemas and one-way pattern matching.

The two modal equivalence axioms are split into one-directional schemas
(suffix a/b); Hilbert-style checking needs implications and the bundled
derivations use both directions.  Matching is metavariable-to-formula
substitution, not unification.
"""

from __future__ import annotations

from typing import NamedTuple

from ..quantifier import check_u2_parse
from .formulas import (
    And,
    Bot,
    Box,
    Formula,
    Impl,
    MetaVar,
    Min,
    children,
    leaves_of,
    lor,
    neg,
)

A = MetaVar("alpha")
B = MetaVar("beta")
C = MetaVar("gamma")


def _mtl_schemas() -> dict[str, Formula]:
    return {
        "A1": Impl(Impl(A, B), Impl(Impl(B, C), Impl(A, C))),
        "A2": Impl(And(A, B), A),
        "A3": Impl(And(A, B), And(B, A)),
        "A4": Impl(Min(A, B), A),
        "A5": Impl(Min(A, B), Min(B, A)),
        "A6": Impl(And(A, Impl(A, B)), Min(A, B)),
        "A7": Impl(Impl(A, Impl(B, C)), Impl(And(A, B), C)),
        "A8": Impl(Impl(And(A, B), C), Impl(A, Impl(B, C))),
        "A9": Impl(Impl(Impl(A, B), C), Impl(Impl(Impl(B, A), C), C)),
        "A10": Impl(Bot(), A),
    }


def _modal_schemas() -> dict[str, Formula]:
    m2_left = Box(Impl(Impl(A, Box(B)), Box(B)))
    m2_right = Impl(Impl(Box(A), Box(B)), Box(B))
    return {
        "M1": Impl(Box(A), A),
        "M2a": Impl(m2_left, m2_right),
        "M2b": Impl(m2_right, m2_left),
        "M3a": Impl(Box(Impl(Box(A), B)), Impl(Box(A), Box(B))),
        "M3b": Impl(Impl(Box(A), Box(B)), Box(Impl(Box(A), B))),
    }


EXTENSION_SCHEMAS: dict[str, Formula] = {
    "INV": Impl(neg(neg(A)), A),
    "WNM": lor(neg(And(A, B)), Impl(Min(A, B), And(A, B))),
    "MV": Impl(Impl(Impl(A, B), B), Impl(Impl(B, A), A)),
    "EM": lor(A, neg(A)),
}

# named rule shapes for countermodel search over rule instances
RULE_SHAPES: dict[str, tuple[tuple[Formula, ...], Formula]] = {
    "disj-box": ((lor(A, B),), lor(A, Box(B))),
}


class SchemaCatalog(NamedTuple):
    """MTL axioms plus the modal schemas, with optional extensions."""

    schemas: tuple[tuple[str, Formula], ...]

    @staticmethod
    def mmtl(u2_parse: str = "standard", extensions: tuple[str, ...] = ()) -> SchemaCatalog:
        """`u2_parse` accepts only "standard" (`quantifier.check_u2_parse`);
        it leaves with the benchmark change of ROADMAP item 6."""
        check_u2_parse(u2_parse)
        table = _mtl_schemas()
        table.update(_modal_schemas())
        for name in extensions:
            table[name] = EXTENSION_SCHEMAS[name]
        return SchemaCatalog(tuple(table.items()))

    def get(self, schema_id: str) -> Formula | None:
        for name, pattern in self.schemas:
            if name == schema_id:
                return pattern
        return None

    def ids(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.schemas)


def metavars_of(pattern: Formula) -> tuple[str, ...]:
    """Metavariable labels in order of first occurrence."""
    return tuple(g.label for g in leaves_of(pattern) if isinstance(g, MetaVar))


def match_schema(pattern: Formula, target: Formula) -> dict[str, Formula] | None:
    """One-way structural match binding metavariables to subformulas."""
    binding: dict[str, Formula] = {}

    def walk(p: Formula, t: Formula) -> bool:
        if isinstance(p, MetaVar):
            if p.label in binding:
                return binding[p.label] == t
            binding[p.label] = t
            return True
        if type(p) is not type(t):
            return False
        kids = children(p)
        return all(map(walk, kids, children(t))) if kids else p == t

    return binding if walk(pattern, target) else None


def instantiate(pattern: Formula, binding: dict[str, Formula]) -> Formula:
    def walk(p: Formula) -> Formula:
        if isinstance(p, MetaVar):
            try:
                return binding[p.label]
            except KeyError as exc:
                raise KeyError(f"no binding for metavariable {p.label}") from exc
        kids = children(p)
        return type(p)(*map(walk, kids)) if kids else p

    return walk(pattern)
