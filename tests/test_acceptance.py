"""Acceptance suite: one criterion per test, one printed verdict line each.

Expected values tagged as derived were computed by the stated independent
oracles (brute-force map scans, 2^n subset scans, exhaustive valuation
sweeps) and frozen here; nothing is assumed from narrative claims.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import pytest

from umtl import (
    chain_algebra,
    check_mtl_tables,
    classify,
    enumerate_quantifiers,
    make_umtl,
)
from umtl import analysis as ana
from umtl import filters as flt
from umtl.audit import corpus_pairs, run_corpus_audit
from umtl.cli import main
from umtl.corpus import SIX_BLOCKY, SIX_DELTA, corpus_dir, proofs_dir
from umtl.logic.formulas import Impl, Var, parse_formula
from umtl.logic.proofs import check_proof, parse_proof_text
from umtl.logic.schemas import RULE_SHAPES, SchemaCatalog, instantiate
from umtl.logic.semantics import (
    Countermodel,
    RuleInstance,
    countermodel_search,
    soundness_audit,
)
from umtl.logic.transform import deduction_transform
from umtl.quantifier import delta_table, quantifier_violations

CATALOG = SchemaCatalog.mmtl()


@contextmanager
def verdict(criterion: str, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion} ({label}): FAIL", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {criterion} ({label}): PASS", file=sys.__stdout__)


@pytest.fixture(scope="module")
def pairs(corpus_entries):
    return corpus_pairs(corpus_entries)


def test_c1_fixture_validates_fast(corpus_entries):
    with verdict("C1", "six-element fixture validates; delta passes U1-U3; <1s"):
        from umtl import example_3_2

        started = time.perf_counter()
        six = example_3_2()
        violations = check_mtl_tables(6, six.odot, six.arrow, 5)
        assert violations == []
        assert quantifier_violations(six, SIX_DELTA) == []
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_c2_enumeration_oracle_equivalence(corpus_entries):
    with verdict("C2", "fixpoint enumeration == n^n brute force (n<=4); fixture <5s"):
        for entry in corpus_entries:
            if entry.algebra.size > 4:
                continue
            fix = [q.table for q in enumerate_quantifiers(entry.algebra)]
            brute = [
                q.table for q in enumerate_quantifiers(entry.algebra, method="brute")
            ]
            assert fix == brute, entry.name
        from umtl import example_3_2

        started = time.perf_counter()
        tables = [q.table for q in enumerate_quantifiers(example_3_2())]
        elapsed = time.perf_counter() - started
        assert tables == [SIX_DELTA, SIX_BLOCKY, (0, 1, 2, 3, 4, 5)]
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_c3_property_suite_zero_violations(pairs):
    with verdict("C3", "fourteen-property suite clean on every enumerated pair"):
        from umtl.quantifier import properties_suite

        for q in pairs:
            failures = [c for c in properties_suite(q) if not c.passed]
            assert failures == [], (q.label(), failures)


def test_c4_ufilter_ground_truth(six, six_block, six_delta, corpus_entries):
    with verdict("C4", "U-filter family matches 2^6 oracle; pairing recorded"):
        got = [u.members for u in flt.enumerate_ufilters(six_block)]
        oracle = [u.members for u in flt.enumerate_ufilters_subset_oracle(six_block)]
        assert got == oracle
        four = [
            frozenset({5}),
            frozenset({2, 3, 5}),
            frozenset({4, 5}),
            frozenset(range(6)),
        ]
        assert sorted(got, key=flt.mask_of) == sorted(four, key=flt.mask_of)
        assert [u.members for u in flt.enumerate_ufilters(six_delta)] == [
            frozenset({5}),
            frozenset(range(6)),
        ]
        bundle = run_corpus_audit(corpus_entries)
        entry = next(
            e for e in bundle.entries if e.check == "ufilter-family-pairing"
        )
        assert entry.details["block_yields_four_member_family"] is True
        assert entry.details["delta_yields_four_member_family"] is False
        assert entry.details["under_delta"] == [
            ["1"],
            ["0", "a", "b", "c", "d", "1"],
        ]


# audits whose characterizations agree on every corpus pair (scanned truth)
FULLY_AGREEING_AUDITS = (
    "minimal-prime-characterizations",
    "quantifier-property-suite",
    "quantified-mv-term-equivalence",
    "monadic-boolean-term-equivalence",
    "ufilter-congruence-correspondence",
    "representability-conditions",
    "strong-iff-representable",
    "maximal-ufilter-criterion",
    "quotient-simplicity-iff-maximal",
    "semisimple-iff-simple-subdirect",
)

# involutive pairs where the two-element-fixpoint condition splits from the
# other four simplicity conditions (simple algebras with larger fixpoint
# subalgebras); computed by exhaustive scan
KNOWN_SIMPLICITY_SPLITS = {
    "lukasiewicz-3+012",
    "lukasiewicz-4+0123",
    "lukasiewicz-5+00224",
    "lukasiewicz-5+01234",
    "lukasiewicz-6+012345",
}


def test_c5_theorem_audits(pairs, corpus_entries):
    with verdict("C5", "structure-theorem audits agree; splits carry witnesses"):
        entries = ana.theorem_audit(pairs)
        by_check: dict[str, list] = {}
        for e in entries:
            by_check.setdefault(e.check, []).append(e)
        for check in FULLY_AGREEING_AUDITS:
            assert all(e.agrees for e in by_check[check]), check
        # simplicity: conditions 1,2,4,5 agree everywhere; the fixpoint
        # condition splits exactly on the known involutive subjects and
        # every split is reported with its fixpoint witness
        splits = {
            e.subject for e in by_check["simplicity-conditions"] if not e.agrees
        }
        assert splits == KNOWN_SIMPLICITY_SPLITS
        for e in by_check["simplicity-conditions"]:
            conds = e.details["conditions"]
            quad = {
                conds["ufilters_trivial"],
                conds["image_simple"],
                conds["unique_proper_ufilter"],
                conds["finite_order_outside_top"],
            }
            assert len(quad) == 1
            if not e.agrees:
                assert e.details["fixpoints"], e.subject
        # delta on non-involutive linear bases: disagreement reported with a
        # concrete U2 witness, never silently tolerated
        for e in by_check["delta-on-linear-bases"]:
            subject_alg = next(
                c.algebra for c in corpus_entries if c.name == e.subject
            )
            if classify(subject_alg).imtl or not classify(subject_alg).linear:
                assert e.agrees, e.subject
            else:
                assert not e.agrees
                assert e.details["delta_violations"], e.subject


def test_c6_quotient_contract(pairs):
    with verdict("C6", "every quotient validates and its class map commutes"):
        for q in pairs:
            for u in flt.enumerate_ufilters(q):
                if not u.is_proper():
                    continue
                # the quotient checks only its input; the homomorphism test
                # of the class map is its well-definedness check
                res = flt.quotient(q, u.members)
                ok, witness = ana.is_u_homomorphism(res.class_map, q, res.quotient)
                assert ok, (q.label(), u.sorted_members(), witness)


def test_c7_logic_fixtures(pairs):
    with verdict("C7", "bundled proofs check; transforms re-check; countermodel"):
        files = sorted(proofs_dir().glob("*.prf"))
        assert len(files) == 7
        for path in files:
            proof = parse_proof_text(path.read_text(encoding="utf-8"))
            assert check_proof(CATALOG, proof).ok, path.name
        # seeded random proof transforms (deterministic generator)
        from test_logic_proofs import _random_valid_proof
        from umtl.logic.builder import power
        from umtl.logic.formulas import Box

        for seed in range(20):
            proof = _random_valid_proof(2025_0810 + seed)
            res = deduction_transform(CATALOG, proof, "alpha")
            assert check_proof(CATALOG, res.proof).ok, seed
            alpha = proof.hypothesis("alpha")
            assert res.conclusion == Impl(
                power(Box(alpha), res.exponent), proof.conclusion()
            )
        # necessity introduction refuted at the middle element of the
        # 3-chain with the one-point quantifier
        nm3 = chain_algebra("nilpotent-minimum", 3)
        pool = [make_umtl(nm3, delta_table(nm3), name="nm-3+002")]
        hit = countermodel_search(parse_formula("p0 -> box p0"), pool)
        assert isinstance(hit, Countermodel)
        assert dict(hit.valuation) == {0: 1}
        # soundness of every schema, MP and Nec across the whole corpus
        report = soundness_audit(
            pairs, SchemaCatalog.mmtl(extensions=("INV", "WNM", "MV", "EM"))
        )
        assert report.all_valid


def test_c8_semilinearity(pairs, six_delta, corpus_entries):
    with verdict("C8", "disjunction-rule semantics match representability"):
        for q in pairs:
            rep = ana.is_representable(q)
            if rep.representable:
                assert rep.by_join_implication, q.label()
        rep = ana.is_representable(six_delta)
        assert not rep.by_join_implication and rep.join_witness == (2, 4)  # b, d
        premises, conclusion = RULE_SHAPES["disj-box"]
        binding = {"alpha": Var(0), "beta": Var(1)}
        rule = RuleInstance(
            tuple(instantiate(p, binding) for p in premises),
            instantiate(conclusion, binding),
        )
        hit = countermodel_search(rule, pairs)
        assert isinstance(hit, Countermodel)
        assert hit.algebra_label == "example-3-2+000005"
        # the block pairing does not refute the rule: the claimed breaking
        # join computes to top, recorded in the audit report
        bundle = run_corpus_audit(corpus_entries)
        entry = next(
            e for e in bundle.entries if e.check == "disjunction-rule-on-six-element"
        )
        assert entry.details["under_block"]["join(d, forall c)"] == "1"
        assert entry.details["under_block"]["satisfies_rule_semantically"] is True
        assert entry.details["under_delta"]["satisfies_rule_semantically"] is False
        search = next(
            e for e in bundle.entries if e.check == "disjunction-rule-search"
        )
        assert search.details["found"] is True


def test_c9_determinism(tmp_path, capsys):
    with verdict("C9", "identical reports under --jobs 1 and --jobs 8"):
        corpus = str(corpus_dir())
        six = str(corpus_dir() / "example-3-2.alg")
        block = str(corpus_dir() / "example-3-2-block.alg")
        proof = str(sorted(proofs_dir().glob("*.prf"))[0])
        deduce_src = tmp_path / "discharge.prf"
        deduce_src.write_text(
            "theory:\nalpha: p0\nstep 1: p0 ; hyp alpha\nstep 2: box p0 ; nec 1\n"
        )
        commands = [
            ("validate", six),
            ("classify", six),
            ("quantifiers", six, "enum"),
            ("filters", block, "--kind", "ufilters"),
            ("quotient", block, "--filter", "d,1"),
            ("analyze", six, "--forall", "delta"),
            ("audit", corpus),
            ("prove", "check", proof),
            ("prove", "deduce", str(deduce_src), "--discharge", "alpha"),
            ("logic", "valid", "box p0 -> p0", "--pool", corpus),
            ("logic", "countermodel", "p0 -> box p0", "--pool", corpus),
            ("export", "dot", six, "--what", "order", "-o", "/dev/null"),
        ]
        for idx, argv in enumerate(commands):
            out1 = tmp_path / f"{idx}-j1.json"
            out1b = tmp_path / f"{idx}-j1b.json"
            out8 = tmp_path / f"{idx}-j8.json"
            for path, j in ((out1, "1"), (out1b, "1"), (out8, "8")):
                code = main(["--json", str(path), "--jobs", j, *argv])
                assert code in (0, 1), argv
                capsys.readouterr()
            assert out1.read_text() == out1b.read_text() == out8.read_text(), argv
