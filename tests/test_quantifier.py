from __future__ import annotations

import itertools

import pytest

from umtl import analysis as ana
from umtl import (
    InvalidQuantifierError,
    chain_algebra,
    check_mba_axioms,
    check_umv_axioms,
    classify,
    delta_table,
    enumerate_quantifiers,
    identity_table,
    make_umtl,
    properties_suite,
    quantifier_violations,
    relativization_table,
    validate_quantifier,
)
from umtl.audit import corpus_pairs, corpus_pairs_with_rejects, fixture_audits
from umtl.core import CHAIN_KINDS
from umtl.corpus import SIX_BLOCKY, SIX_DELTA
from umtl.logic.schemas import SchemaCatalog

from oracles import unchecked_pair


def small_algebras(six):
    """The fixture and the 2- to 5-element chains of every kind: small
    enough to scan every unary map."""
    return [six] + [chain_algebra(k, n) for k in CHAIN_KINDS for n in range(2, 6)]


def test_delta_is_valid_on_fixture(six):
    q = validate_quantifier(six, SIX_DELTA)
    assert q.fixpoints == frozenset({0, 5})


def test_identity_always_valid(six, goedel3):
    for alg in (six, goedel3):
        q = validate_quantifier(alg, identity_table(alg))
        assert q.fixpoints == frozenset(alg.elements)


def test_block_table_is_valid(six):
    # the 0a|bc|d|1 block table passes the full U1-U3 scan
    assert quantifier_violations(six, SIX_BLOCKY) == []
    q = validate_quantifier(six, SIX_BLOCKY)
    assert sorted(q.fixpoints) == [0, 2, 4, 5]


def test_wrong_shape_reports():
    alg = chain_algebra("lukasiewicz", 2)
    assert quantifier_violations(alg, (0,))[0].axiom == "forall-wrong-length"
    assert quantifier_violations(alg, (0, 7))[0].axiom == "forall-entry-out-of-range"
    with pytest.raises(InvalidQuantifierError):
        validate_quantifier(alg, (1, 1))


def test_delta_fails_u2_on_goedel_chain(goedel3):
    violations = quantifier_violations(goedel3, delta_table(goedel3))
    assert [v.axiom for v in violations] == ["U2"]
    assert violations[0].witness == (1, 0)


def test_u2_alt_parse_rejects_everything(six):
    # the right-associated reading of U2, forall(x -> (forall y -> forall y))
    # = (forall x -> forall y) -> forall y, admits no quantifier: U1 gives
    # forall 0 = 0, so at x = 0 it forces forall top = forall y = 0 for
    # every y, and U3 at (top, 0) then gives 0 = top; which is why the
    # package offers no such reading
    for alg in small_algebras(six):
        rng, arrow, leq = alg.elements, alg.arrow, alg.leq

        def passes(q):
            return (
                all(leq[q[x]][x] for x in rng)
                and all(
                    q[arrow[x][arrow[q[y]][q[y]]]] == arrow[arrow[q[x]][q[y]]][q[y]]
                    for x in rng
                    for y in rng
                )
                and all(q[arrow[q[x]][y]] == arrow[q[x]][q[y]] for x in rng for y in rng)
            )

        assert not any(map(passes, itertools.product(rng, repeat=alg.size))), alg


def test_kept_u2_parse_parameters_accept_only_standard(six, corpus_entries):
    # `perfbench/ops.py` passes "standard" at these positions; it changes
    # nothing, and any other reading is rejected
    pairs = corpus_pairs(corpus_entries)
    extensions = ("INV", "WNM", "MV", "EM")

    def entries(audit):
        return [e.as_dict() for e in audit]

    calls = [
        (lambda u2: enumerate_quantifiers(six, u2, "fixpoint", 2), enumerate_quantifiers(six)),
        (lambda u2: entries(ana.theorem_audit(pairs, u2)), entries(ana.theorem_audit(pairs))),
        (lambda u2: corpus_pairs(corpus_entries, u2), pairs),
        (
            lambda u2: corpus_pairs_with_rejects(corpus_entries, u2),
            corpus_pairs_with_rejects(corpus_entries),
        ),
        (
            lambda u2: entries(fixture_audits(corpus_entries, pairs, u2)),
            entries(fixture_audits(corpus_entries, pairs)),
        ),
        (
            lambda u2: SchemaCatalog.mmtl(u2, extensions=extensions),
            SchemaCatalog.mmtl(extensions=extensions),
        ),
    ]
    for call, without in calls:
        assert call("standard") == without
        with pytest.raises(ValueError, match="unknown u2 parse: 'alt'"):
            call("alt")


def test_delta_table_shapes(six):
    assert delta_table(six) == SIX_DELTA
    alg = chain_algebra("lukasiewicz", 2)
    assert delta_table(alg) == identity_table(alg) == (0, 1)


def test_relativization(nm5):
    # full carrier gives the identity
    assert relativization_table(nm5, range(5)) == identity_table(nm5)
    # the embedded 3-chain gives the floor map onto {0, mid, top}
    assert relativization_table(nm5, {0, 2, 4}) == (0, 0, 2, 2, 4)
    # only the bounds gives delta
    assert relativization_table(nm5, {0, 4}) == delta_table(nm5)
    with pytest.raises(ValueError):
        relativization_table(nm5, {0, 2})  # top missing


def test_relativization_requires_maximum(six):
    # {0,b,d,1}: both b and d sit below c with no maximum among them? c has
    # maximum b (d is not below c), so this subset works; {0,c,d,1} fails at
    # top? no: c,d below 1 with maximum 1. Use {0,a,b,1}: below c sit a,b
    # with no larger subset member, so no maximum exists.
    with pytest.raises(ValueError, match="no maximum fixpoint"):
        relativization_table(six, {0, 1, 2, 5})


@pytest.mark.parametrize(
    "kind,n",
    [(k, n) for k in ("lukasiewicz", "goedel", "nilpotent-minimum") for n in (2, 3, 4)],
)
def test_enumeration_equals_brute_force(kind, n):
    alg = chain_algebra(kind, n)
    fix = [q.table for q in enumerate_quantifiers(alg)]
    brute = [q.table for q in enumerate_quantifiers(alg, method="brute")]
    assert fix == brute


def test_enumeration_on_fixture(six):
    tables = [q.table for q in enumerate_quantifiers(six)]
    assert tables == [SIX_DELTA, SIX_BLOCKY, identity_table(six)]


def test_enumeration_on_two_element():
    alg = chain_algebra("lukasiewicz", 2)
    assert [q.table for q in enumerate_quantifiers(alg)] == [(0, 1)]


def test_enumeration_sorted_and_job_independent(six):
    serial = [q.table for q in enumerate_quantifiers(six)]
    parallel = [q.table for q in enumerate_quantifiers(six, jobs=4)]
    assert serial == parallel == sorted(serial)


def test_goedel_chains_admit_only_identity():
    for n in (3, 4, 5, 6, 20):
        alg = chain_algebra("goedel", n)
        assert [q.table for q in enumerate_quantifiers(alg)] == [identity_table(alg)]


def test_enumeration_on_five_and_six_chains(nm5):
    # frozen from the fixpoint scan (cross-checked against n^n brute force
    # for n <= 4 above); note the embedded-3-chain floor map survives on
    # the involutive Lukasiewicz chain but not on the nilpotent-minimum one
    assert [q.table for q in enumerate_quantifiers(nm5)] == [
        (0, 0, 0, 0, 4),
        (0, 1, 1, 3, 4),
        (0, 1, 2, 3, 4),
    ]
    l5 = chain_algebra("lukasiewicz", 5)
    assert [q.table for q in enumerate_quantifiers(l5)] == [
        (0, 0, 0, 0, 4),
        (0, 0, 2, 2, 4),
        (0, 1, 2, 3, 4),
    ]
    l6 = chain_algebra("lukasiewicz", 6)
    assert [q.table for q in enumerate_quantifiers(l6)] == [
        delta_table(l6),
        identity_table(l6),
    ]


def test_nm_chain_floor_map_fails_u2(nm5):
    # the floor map onto the embedded 3-chain satisfies U1/U3 but not U2 on
    # the nilpotent-minimum 5-chain; same scan passes on the Lukasiewicz one
    violations = quantifier_violations(nm5, relativization_table(nm5, {0, 2, 4}))
    assert [v.axiom for v in violations] == ["U2"]
    assert violations[0].witness == (3, 2)
    l5 = chain_algebra("lukasiewicz", 5)
    assert quantifier_violations(l5, relativization_table(l5, {0, 2, 4})) == []


def test_properties_suite_all_pass_on_valid_pairs(six, six_delta, six_block):
    for q in (six_delta, six_block):
        checks = properties_suite(q)
        assert len(checks) == 14
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_properties_suite_identity(goedel3):
    q = make_umtl(goedel3, identity_table(goedel3))
    assert all(c.passed for c in properties_suite(q))


def test_properties_suite_on_forced_invalid_table(goedel3):
    # delta fails U2 here, yet every derived property still holds on this
    # particular table: the suite reports exactly that (scanned, not assumed)
    q = unchecked_pair(goedel3, delta_table(goedel3))
    assert quantifier_violations(goedel3, q.forall)  # U2 really is broken
    failed = {c.name for c in properties_suite(q) if not c.passed}
    assert failed == set()


def test_properties_suite_reports_failures_with_witnesses(goedel3):
    # a junk table exercises the failure path: bounds and monotonicity break
    q = unchecked_pair(goedel3, (1, 0, 2))
    checks = {c.name: c for c in properties_suite(q)}
    assert not checks[1].passed
    assert not checks[4].passed and checks[4].witness is not None


def test_properties_suite_item_14_witnesses(goedel3):
    # on L4 the image {0, 1, 3} misses 1 -> 0 = 2; on G3 the image {2} is
    # closed under every operation but misses bottom
    l4 = chain_algebra("lukasiewicz", 4)
    checks = {c.name: c for c in properties_suite(unchecked_pair(l4, (0, 1, 1, 3)))}
    assert checks[14].witness == (1, 0)
    checks = {c.name: c for c in properties_suite(unchecked_pair(goedel3, (2, 2, 2)))}
    assert checks[14].witness == (0,)


def test_image_equals_fixpoints_and_closed(six_block):
    checks = {c.name: c for c in properties_suite(six_block)}
    assert checks[13].passed and checks[14].passed


def test_umv_axioms(six, six_delta, luk3):
    assert classify(six_delta.algebra).mv
    assert all(v.passed for v in check_umv_axioms(six_delta))
    q = make_umtl(luk3, delta_table(luk3))
    assert classify(luk3).mv
    assert all(v.passed for v in check_umv_axioms(q))


def test_umv_precondition_reported_not_fatal(goedel3):
    q = make_umtl(goedel3, identity_table(goedel3))
    assert not classify(goedel3).mv
    verdicts = check_umv_axioms(q)
    assert [v.name for v in verdicts] == [f"forall{i}" for i in range(1, 6)]


def test_mba_axioms():
    alg = chain_algebra("lukasiewicz", 2)
    q = make_umtl(alg, identity_table(alg))
    assert classify(alg).boolean
    assert all(v.passed for v in check_mba_axioms(q))


def test_every_enumerated_quantifier_is_interior(corpus_entries):
    for entry in corpus_entries:
        if entry.forall is not None:
            continue
        alg = entry.algebra
        for q in enumerate_quantifiers(alg):
            t = q.table
            for x in alg.elements:
                assert alg.leq[t[x]][x]
                assert t[t[x]] == t[x]
                for y in alg.elements:
                    if alg.leq[x][y]:
                        assert alg.leq[t[x]][t[y]]
            # the table is the floor map of its fixpoint set
            assert t == relativization_table(alg, q.fixpoints)


def test_delta_valid_on_involutive_corpus(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        if classify(alg).imtl:
            assert quantifier_violations(alg, delta_table(alg)) == []


def test_axioms_imply_the_first_four_properties(six):
    # U1-U3 imply items 1-4 of the suite (bounds fixed, idempotent,
    # monotone), which is why `quantifier_violations` does not scan them:
    # checked on every unary map of the small chains and the fixture
    for alg in small_algebras(six):
        found = 0
        for table in itertools.product(alg.elements, repeat=alg.size):
            if not quantifier_violations(alg, table):
                found += 1
                checks = properties_suite(unchecked_pair(alg, table))[:4]
                assert [c.name for c in checks] == [1, 2, 3, 4]
                assert all(c.passed for c in checks), (alg, table, checks)
        assert found == len(enumerate_quantifiers(alg))
