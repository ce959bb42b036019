"""Corpus-level audit runs.

Builds the deterministic (algebra, quantifier) pair list for a corpus,
runs every theorem audit plus the fixture-specific cross-checks, and the
schema soundness sweep.  Pairs are named "<algebra>+<table digits>" so
reports are self-describing.
"""

from __future__ import annotations

from typing import NamedTuple

from . import analysis as ana
from . import filters as flt
from .analysis import AuditEntry
from .core import FiniteMTLAlgebra, chain_algebra
from .corpus import SIX_BLOCKY, SIX_DELTA, CorpusEntry, example_3_2
from .logic.formulas import And, Box, Impl, Var
from .logic.proofs import check_proof
from .logic.schemas import EXTENSION_SCHEMAS, RULE_SHAPES, SchemaCatalog
from .logic.semantics import (
    Countermodel,
    SoundnessReport,
    countermodel_search,
    element_names,
    is_valid,
    soundness_audit,
)
from .logic.transform import deduction_transform
from .logic.builder import ProofBuilder
from .quantifier import (
    InvalidQuantifierError,
    UMTLAlgebra,
    check_u2_parse,
    enumerate_quantifiers,
    identity_table,
    make_umtl,
)


def pair_name(base: str, table) -> str:
    return base + "+" + "".join(str(v) for v in table)


def corpus_pairs(
    entries: list[CorpusEntry], u2_parse: str = "standard"
) -> list[UMTLAlgebra]:
    """One pair per file-supplied quantifier, plus every enumerated
    quantifier on files without one; duplicates (same tables) dropped,
    first occurrence in name order wins.  `u2_parse` accepts only
    "standard" (`quantifier.check_u2_parse`); it leaves with the
    benchmark change of ROADMAP item 6."""
    check_u2_parse(u2_parse)
    pairs, _ = corpus_pairs_with_rejects(entries)
    return pairs


def corpus_pairs_with_rejects(
    entries: list[CorpusEntry], u2_parse: str = "standard"
) -> tuple[list[UMTLAlgebra], list[tuple[str, list]]]:
    """Like corpus_pairs, also returning the name and the U1-U3 violations
    of each file-supplied table that is not a quantifier.  `u2_parse`
    accepts only "standard" (`quantifier.check_u2_parse`); it leaves with
    the benchmark change of ROADMAP item 6."""
    check_u2_parse(u2_parse)
    pairs: list[UMTLAlgebra] = []
    rejected: list[tuple[str, list]] = []
    seen: set[tuple] = set()
    for entry in sorted(entries, key=lambda e: e.name):
        if entry.forall is not None:
            key = (entry.algebra.table_key(), tuple(entry.forall))
            if key in seen:
                continue
            seen.add(key)
            name = pair_name(entry.name, entry.forall)
            try:
                pairs.append(make_umtl(entry.algebra, entry.forall, name))
            except InvalidQuantifierError as exc:
                rejected.append((name, exc.violations))
            continue
        for q in enumerate_quantifiers(entry.algebra):
            key = (entry.algebra.table_key(), q.table)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(
                UMTLAlgebra(entry.algebra, q, pair_name(entry.name, q.table))
            )
    return pairs, rejected


def _six_element_pairs(
    entries: list[CorpusEntry],
) -> tuple[UMTLAlgebra, UMTLAlgebra] | None:
    """The delta and block pairs on the six-element fixture, when the
    corpus holds it."""
    key = example_3_2().table_key()
    for entry in sorted(entries, key=lambda e: e.name):
        if entry.algebra.table_key() == key:
            six = entry.algebra
            return (
                make_umtl(six, SIX_DELTA, pair_name("six", SIX_DELTA)),
                make_umtl(six, SIX_BLOCKY, pair_name("six", SIX_BLOCKY)),
            )
    return None


def _family(alg: FiniteMTLAlgebra, filtersets) -> list[list[str]]:
    return [[alg.name_of(i) for i in f.sorted_members()] for f in filtersets]


def fixture_audits(
    entries: list[CorpusEntry],
    pairs: list[UMTLAlgebra],
    u2_parse: str = "standard",
) -> list[AuditEntry]:
    """The audits of the six-element fixture, the disjunction-rule search
    over `pairs` and the deduction-exponent entry.  `u2_parse` accepts
    only "standard" (`quantifier.check_u2_parse`); it leaves with the
    benchmark change of ROADMAP item 6."""
    check_u2_parse(u2_parse)
    out: list[AuditEntry] = []
    six_pairs = _six_element_pairs(entries)
    if six_pairs is not None:
        q_delta, q_block = six_pairs
        six = q_delta.algebra
        under_delta = _family(six, flt.enumerate_ufilters(q_delta))
        under_block = _family(six, flt.enumerate_ufilters(q_block))
        four_member = [["1"], ["b", "c", "1"], ["d", "1"], ["0", "a", "b", "c", "d", "1"]]
        out.append(
            AuditEntry(
                "ufilter-family-pairing",
                "example-3-2",
                True,
                {
                    "four_member_family": four_member,
                    "under_delta": under_delta,
                    "under_block": under_block,
                    "delta_yields_four_member_family": sorted(under_delta)
                    == sorted(four_member),
                    "block_yields_four_member_family": sorted(under_block)
                    == sorted(four_member),
                },
            )
        )
        join_d_forall_c = six.join[4][q_block.forall[3]]
        rep_block = ana.is_representable(q_block)
        rep_delta = ana.is_representable(q_delta)
        out.append(
            AuditEntry(
                "disjunction-rule-on-six-element",
                "example-3-2",
                True,
                {
                    "under_block": {
                        "join(d, forall c)": six.name_of(join_d_forall_c),
                        "satisfies_rule_semantically": rep_block.by_join_implication,
                        "representable": rep_block.representable,
                    },
                    "under_delta": {
                        "satisfies_rule_semantically": rep_delta.by_join_implication,
                        "witness": [
                            six.name_of(i) for i in rep_delta.join_witness or ()
                        ],
                    },
                },
            )
        )
    hit = countermodel_search(RULE_SHAPES["disj-box"], pairs)
    details: dict = {"pool_size": len(pairs)}
    if isinstance(hit, Countermodel):
        alg = pairs[hit.pool_index].algebra
        details.update(
            {
                "found": True,
                "algebra": hit.algebra_label,
                "valuation": element_names(alg, hit.valuation),
                "conclusion_value": alg.name_of(hit.value),
            }
        )
    else:
        details.update({"found": False, "valuations_checked": hit.valuations_checked})
    out.append(AuditEntry("disjunction-rule-search", "corpus", True, details))
    out.append(_deduction_exponent_entry())
    out.sort(key=lambda e: (e.check, e.subject))
    return out


def _deduction_exponent_entry() -> AuditEntry:
    """The hypothesis-discharge transform needs guard powers: the
    exponent-1 form box a -> (a & a) already fails on the three-element
    involutive chain with the identity quantifier."""
    catalog = SchemaCatalog.mmtl()
    p = Var(0)
    builder = ProofBuilder(catalog, [("alpha", p)])
    ident = builder.identity(And(p, p))
    curried = builder.curry(ident)
    h = builder.hyp("alpha")
    once = builder.mp(h, curried)
    builder.mp(h, once)
    transformed = deduction_transform(catalog, builder.proof, "alpha")
    l3 = chain_algebra("lukasiewicz", 3)
    qi = make_umtl(l3, identity_table(l3), "lukasiewicz-3+012")
    plain_form = Impl(Box(p), And(p, p))
    plain_verdict = is_valid(qi, plain_form)
    powered_verdict = is_valid(qi, transformed.conclusion)
    return AuditEntry(
        "deduction-transform-exponent",
        "corpus",
        False,
        {
            "exponent_needed": transformed.exponent,
            "output_checks": bool(check_proof(catalog, transformed.proof)),
            "exponent_one_form_valid": plain_verdict.valid,
            "exponent_one_countervaluation": dict(
                sorted((plain_verdict.countervaluation or {}).items())
            ),
            "powered_form_valid": powered_verdict.valid,
        },
    )


class AuditBundle(NamedTuple):
    pairs: tuple[UMTLAlgebra, ...]
    entries: tuple[AuditEntry, ...]
    soundness: SoundnessReport

    def disagreements(self) -> list[AuditEntry]:
        return [e for e in self.entries if not e.agrees]

    def as_checks(self) -> list[dict]:
        checks = [e.as_dict() for e in self.entries]
        checks.append(
            {
                "check": "schema-soundness",
                "subject": "corpus",
                "agrees": self.soundness.all_valid,
                "details": {
                    "schema_instances": len(self.soundness.entries),
                    "invalid": [
                        {"schema": e.schema_id, "algebra": e.algebra_label}
                        for e in self.soundness.entries
                        if not e.valid
                    ],
                    "mp_preserves_validity": self.soundness.mp_preserves,
                    "nec_preserves_validity": self.soundness.nec_preserves,
                },
            }
        )
        return checks


def run_corpus_audit(entries: list[CorpusEntry]) -> AuditBundle:
    """Every audit of the corpus pairs, with one failed entry per rejected
    file table; the soundness sweep covers all four extension schemas."""
    pairs, rejected = corpus_pairs_with_rejects(entries)
    audit_entries = ana.theorem_audit(pairs)
    audit_entries.extend(fixture_audits(entries, pairs))
    for name, violations in rejected:
        audit_entries.append(
            AuditEntry(
                "quantifier-axioms",
                name,
                False,
                {
                    "violations": [v.as_dict() for v in violations],
                    "u2_parse": "standard",
                },
            )
        )
    audit_entries.sort(key=lambda e: (e.check, e.subject))
    catalog = SchemaCatalog.mmtl(extensions=tuple(EXTENSION_SCHEMAS))
    soundness = soundness_audit(pairs, catalog)
    return AuditBundle(tuple(pairs), tuple(audit_entries), soundness)
