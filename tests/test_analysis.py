from __future__ import annotations

import pytest

from umtl import analysis as ana
from umtl import (
    FiniteMTLAlgebra,
    chain_algebra,
    classify,
    enumerate_quantifiers,
    make_umtl,
)
from umtl import filters as flt
from umtl.quantifier import delta_table, identity_table

from oracles import unchecked_pair


def _pairs(corpus_entries):
    out = []
    for entry in corpus_entries:
        alg = entry.algebra
        tables = (
            [entry.forall]
            if entry.forall is not None
            else [q.table for q in enumerate_quantifiers(alg)]
        )
        for t in tables:
            out.append(make_umtl(alg, t, name=f"{entry.name}+{''.join(map(str, t))}"))
    return out


def test_representable_fixture_delta(six_delta):
    rep = ana.is_representable(six_delta)
    assert not rep.representable
    assert rep.agree
    # least violating pair, and the documented (b, d) pair also violates
    assert rep.equation_witness == (1, 2)
    alg = six_delta.algebra
    f = six_delta.forall
    assert alg.join[f[alg.arrow[2][4]]][alg.arrow[4][2]] != alg.top


def test_representable_fixture_block(six_block):
    rep = ana.is_representable(six_block)
    assert rep.representable and rep.agree


def test_identity_quantifier_always_representable(corpus_entries):
    for entry in corpus_entries:
        q = make_umtl(entry.algebra, identity_table(entry.algebra))
        assert ana.is_representable(q).representable


def test_linear_bases_always_representable(corpus_entries):
    for entry in corpus_entries:
        if not classify(entry.algebra).linear:
            continue
        for quant in enumerate_quantifiers(entry.algebra):
            q = make_umtl(entry.algebra, quant.table)
            rep = ana.is_representable(q)
            assert rep.representable and rep.agree


def test_strong_matches_representable(corpus_entries, six_delta):
    report = ana.is_strong(six_delta)
    assert not report.strong
    assert report.witness == (2, 4)  # b, d
    assert report.agree
    for q in _pairs(corpus_entries):
        assert ana.is_strong(q).agree


def test_strong_on_chain():
    luk3 = chain_algebra("lukasiewicz", 3)
    q = make_umtl(luk3, delta_table(luk3))
    assert ana.is_strong(q).strong


def test_simplicity_fixture(six_delta, six_block):
    assert ana.is_simple(six_delta).simple
    assert ana.is_simple(six_delta).agree
    rep = ana.is_simple(six_block)
    assert not rep.simple
    assert rep.agree  # all five conditions false together here


def test_simplicity_condition_three_is_strictly_stronger(luk3):
    q = make_umtl(luk3, identity_table(luk3))
    rep = ana.is_simple(q)
    assert rep.conditions() == (True, True, False, True, True)
    assert not rep.agree


def test_simplicity_other_conditions_equivalent(corpus_entries):
    # conditions 1, 2, 4, 5 always move together; 3 may differ
    for q in _pairs(corpus_entries):
        c = ana.is_simple(q).conditions()
        assert len({c[0], c[1], c[3], c[4]}) == 1


def test_semisimple(six_delta, six_block, goedel3):
    assert ana.is_semisimple(six_delta).semisimple
    assert ana.is_semisimple(six_block).semisimple
    q = make_umtl(goedel3, identity_table(goedel3))
    rep = ana.is_semisimple(q)
    assert not rep.semisimple
    assert rep.radical_members == (1, 2)


def test_u_homomorphism(six_delta, six_block):
    ok, _ = ana.is_u_homomorphism(tuple(range(6)), six_block, six_block)
    assert ok
    ok, witness = ana.is_u_homomorphism((5,) * 6, six_block, six_block)
    assert not ok and witness == ("bottom", 0)
    for mapping in ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 4, -1)):
        assert ana.is_u_homomorphism(mapping, six_block, six_block) == (False, ("domain",))
    assert ana.is_u_homomorphism((0,) * 6, six_block, six_block) == (False, ("top", 5))
    # the identity preserves every operation but not delta -> blocky at c
    identity = tuple(range(6))
    assert ana.is_u_homomorphism(identity, six_delta, six_block) == (False, ("forall", 2))


def _with_cell(alg, table, x, y, value):
    """A copy of `alg` whose `table` differs in the cell (x, y) only."""
    rows = [list(row) for row in getattr(alg, table)]
    rows[x][y] = value
    fields = {name: getattr(alg, name) for name in alg.__match_args__}
    return FiniteMTLAlgebra(**{**fields, table: tuple(map(tuple, rows))})


L2 = chain_algebra("lukasiewicz", 2)
L3 = chain_algebra("lukasiewicz", 3)
G3 = chain_algebra("goedel", 3)


@pytest.mark.parametrize(
    "source, target, mapping, witness",
    [
        (L3, G3, (0, 1, 2), ("odot", 1, 1)),
        (L3, L2, (0, 0, 1), ("arrow", 1, 0)),
        (L3, L2, (1, 1, 1), ("bottom", 0)),
        (L3, L2, (0, 0, 0), ("top", 2)),
        (L3, L2, (0, 1), ("domain",)),
        (L3, L2, (0, 2, 1), ("domain",)),
        (G3, _with_cell(G3, "meet", 2, 1, 2), (0, 1, 2), ("meet", 2, 1)),
        (G3, _with_cell(G3, "join", 1, 0, 0), (0, 1, 2), ("join", 1, 0)),
    ],
    ids=["odot", "arrow", "bottom", "top", "short", "out-of-range", "meet", "join"],
)
def test_homomorphism_witness_names_the_broken_operation(
    source, target, mapping, witness
):
    # each operation is checked against its own tables, in the order
    # domain, bottom, top, odot, arrow, meet, join
    q1 = make_umtl(source, identity_table(source))
    q2 = unchecked_pair(target, identity_table(target))
    assert ana.is_u_homomorphism(mapping, q1, q2) == (False, witness)


def test_homomorphism_witness_names_the_unpreserved_quantifier(luk3):
    q1 = make_umtl(luk3, identity_table(luk3))
    q2 = make_umtl(luk3, delta_table(luk3))
    assert ana.is_u_homomorphism((0, 1, 2), q1, q2) == (False, ("forall", 1))


def test_maximality_audit_records_each_disagreement(six_block, monkeypatch):
    # flip the definition side, so every proper U-filter disagrees
    verdict_of = flt.is_maximal_ufilter

    def flipped(q, members):
        v = verdict_of(q, members)
        return v._replace(by_definition=not v.by_definition)

    monkeypatch.setattr(flt, "is_maximal_ufilter", flipped)
    entry = ana.audit_maximality(six_block)
    assert not entry.agrees
    assert entry.details == {
        "proper_ufilters": 3,
        "disagreements": [
            {"filter": ["1"], "by_definition": True, "by_criterion": False},
            {"filter": ["b", "c", "1"], "by_definition": False, "by_criterion": True},
            {"filter": ["d", "1"], "by_definition": False, "by_criterion": True},
        ],
    }


def test_quotient_simplicity_audit_records_each_disagreement(six_block, monkeypatch):
    # flip the quotient side, so every proper U-filter disagrees
    trivial = ana._subalgebra_filters_trivial
    monkeypatch.setattr(
        ana, "_subalgebra_filters_trivial", lambda *args: not trivial(*args)
    )
    entry = ana.audit_quotient_simplicity(six_block)
    assert not entry.agrees
    assert entry.details == {
        "proper_ufilters": 3,
        "disagreements": [
            {"filter": ["1"], "quotient_simple": True, "maximal": False},
            {"filter": ["b", "c", "1"], "quotient_simple": False, "maximal": True},
            {"filter": ["d", "1"], "quotient_simple": False, "maximal": True},
        ],
    }


def test_quotient_maps_are_u_homomorphisms(corpus_entries):
    for q in _pairs(corpus_entries):
        for u in flt.enumerate_ufilters(q):
            if not u.is_proper():
                continue
            res = flt.quotient(q, u.members)
            ok, witness = ana.is_u_homomorphism(res.class_map, q, res.quotient)
            assert ok, (q.label(), u.sorted_members(), witness)


def test_subdirect_min_primes_failure(six_delta):
    res = ana.subdirect_decompose(six_delta, "min-primes")
    assert not res.ok
    assert res.witness == (2, 3, 5)  # the prime {b,c,1} is not forall-closed


def test_subdirect_min_primes_on_block(six_block):
    res = ana.subdirect_decompose(six_block, "min-primes")
    assert res.ok
    assert [classify(f.algebra).linear for f in res.embedding.factors] == [True, True]
    assert res.embedding.injective
    # each coordinate is a quotient's class map, onto by construction
    for i, factor in enumerate(res.embedding.factors):
        assert {row[i] for row in res.embedding.embedding} == set(factor.algebra.elements)
    assert all(res.embedding.coordinates_u_homomorphic)


def test_subdirect_max_ufilters(six_delta, six_block):
    res = ana.subdirect_decompose(six_delta, "max-ufilters")
    assert res.ok
    assert len(res.embedding.factors) == 1
    assert res.embedding.factors[0].algebra.size == 6
    assert res.embedding.factors_simple == (True,)
    res = ana.subdirect_decompose(six_block, "max-ufilters")
    assert res.ok and res.embedding.factors_simple == (True, True)
    # factors follow filter bitmask order: {b,c,1} before {d,1}
    assert [f.algebra.size for f in res.embedding.factors] == [2, 3]


def test_subdirect_max_ufilters_blocked_by_radical(goedel3):
    q = make_umtl(goedel3, identity_table(goedel3))
    res = ana.subdirect_decompose(q, "max-ufilters")
    assert not res.ok
    assert res.failure == "radical element below top blocks injectivity"
    assert res.witness == (1,)


def test_semisimplicity_audit_reads_the_radical_on_one_side_only(
    corpus_entries, monkeypatch
):
    # a radical that wrongly gains its least non-member makes is_semisimple
    # refuse semisimple pairs; the decomposition must not follow it
    radical = flt.radical

    def grown(q):
        members = radical(q).members
        extra = min(x for x in q.algebra.elements if x not in members)
        return flt.FilterSet(q.algebra, members | {extra})

    monkeypatch.setattr(flt, "radical", grown)
    entries = [ana.audit_semisimplicity(q) for q in _pairs(corpus_entries)]
    assert any(not e.agrees for e in entries)


def test_subdirect_two_element():
    alg = chain_algebra("lukasiewicz", 2)
    q = make_umtl(alg, identity_table(alg))
    res = ana.subdirect_decompose(q, "max-ufilters")
    assert res.ok and len(res.embedding.factors) == 1
    assert res.embedding.embedding == ((0,), (1,))


def test_theorem_audit_structure(corpus_entries):
    pairs = _pairs(corpus_entries)
    entries = ana.theorem_audit(pairs)
    keys = [(e.check, e.subject) for e in entries]
    assert keys == sorted(keys)
    checks = {e.check for e in entries}
    assert {
        "minimal-prime-characterizations",
        "quantifier-property-suite",
        "ufilter-congruence-correspondence",
        "representability-conditions",
        "delta-on-linear-bases",
        "strong-iff-representable",
        "maximal-ufilter-criterion",
        "simplicity-conditions",
        "quotient-simplicity-iff-maximal",
        "semisimple-iff-simple-subdirect",
    } <= checks


def test_theorem_audit_is_deterministic(corpus_entries):
    pairs = _pairs(corpus_entries)
    first = ana.theorem_audit(pairs)
    second = ana.theorem_audit(pairs)
    assert [(e.check, e.subject, e.agrees) for e in first] == [
        (e.check, e.subject, e.agrees) for e in second
    ]


def test_congruence_correspondence_can_fail_on_a_non_quantifier():
    # the constant bottom map fails U3; its congruences are computed
    # without the filter code, so the audit sees the mismatch
    g3 = chain_algebra("goedel", 3)
    entry = ana.audit_congruence_correspondence(unchecked_pair(g3, (0, 0, 0)))
    assert not entry.agrees
