from __future__ import annotations

import pytest

from umtl import chain_algebra, enumerate_quantifiers, example_3_2, make_umtl
from umtl import filters as flt
from umtl.corpus import SIX_BLOCKY, SIX_DELTA
from umtl.quantifier import identity_table

import oracles


def members(alg, *names):
    index = {n: i for i, n in enumerate(alg.names)}
    return frozenset(index[n] for n in names)


def labels(alg, family):
    return [[alg.name_of(i) for i in f.sorted_members()] for f in family]


def test_generated_filter_top_only(six):
    assert flt.generated_filter(six, {5}).members == frozenset({5})


def test_generated_filter_of_d(six):
    # d is odot-idempotent, so its principal filter is just its up-set
    assert flt.generated_filter(six, {4}).members == members(six, "d", "1")


def test_generated_filter_matches_formula(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        for x in alg.elements:
            closure = flt.generated_filter(alg, {x}).members
            formula = oracles.generated_filter_formula(alg, {x})
            assert closure == formula
        for x in alg.elements:
            for y in alg.elements:
                assert flt.generated_filter(alg, {x, y}).members == (
                    oracles.generated_filter_formula(alg, {x, y})
                )


def test_generated_ufilter_of_c(six_block):
    six = six_block.algebra
    got = flt.generated_ufilter(six_block, {3}).members
    assert got == members(six, "b", "c", "1")
    assert got == oracles.generated_ufilter_formula(six_block, {3})


def test_principal_ufilter_power_formula(six_block, six_delta):
    # <a>_forall = {x : x >= (forall a)^n for some n}
    for q in (six_block, six_delta):
        alg = q.algebra
        for a in alg.elements:
            expected = set()
            fa = q.forall[a]
            acc = fa
            for _ in range(alg.size):
                expected.update(x for x in alg.elements if alg.leq[acc][x])
                acc = alg.odot[acc][fa]
            assert flt.generated_ufilter(q, {a}).members == frozenset(expected)


def test_enumerate_filters_fixture(six):
    fam = labels(six, flt.enumerate_filters(six))
    assert fam == [["1"], ["b", "c", "1"], ["d", "1"], ["0", "a", "b", "c", "d", "1"]]


def test_enumerate_filters_two_element():
    alg = chain_algebra("lukasiewicz", 2)
    fam = [f.sorted_members() for f in flt.enumerate_filters(alg)]
    assert fam == [(1,), (0, 1)]


def test_enumeration_matches_subset_oracle(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        got = [f.members for f in flt.enumerate_filters(alg)]
        oracle = [f.members for f in flt.enumerate_filters_subset_oracle(alg)]
        assert got == oracle


def test_ufilter_enumeration_matches_subset_oracle(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        tables = (
            [entry.forall]
            if entry.forall is not None
            else [q.table for q in enumerate_quantifiers(alg)]
        )
        for table in tables:
            q = make_umtl(alg, table)
            got = [f.members for f in flt.enumerate_ufilters(q)]
            oracle = [f.members for f in flt.enumerate_ufilters_subset_oracle(q)]
            assert got == oracle


def test_ufilters_under_both_fixture_quantifiers(six_delta, six_block):
    six = six_delta.algebra
    assert labels(six, flt.enumerate_ufilters(six_delta)) == [
        ["1"],
        ["0", "a", "b", "c", "d", "1"],
    ]
    assert labels(six, flt.enumerate_ufilters(six_block)) == [
        ["1"],
        ["b", "c", "1"],
        ["d", "1"],
        ["0", "a", "b", "c", "d", "1"],
    ]


def test_filter_characterizations_agree(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        if alg.size > 6:
            continue
        for mask in range(1 << alg.size):
            s = flt.members_of(mask, alg.size)
            assert flt.is_filter_by_implication(alg, s) == oracles.is_filter_by_closure(
                alg, s
            )


def test_a_perp(six):
    assert flt.a_perp(six, six.top) == frozenset(six.elements)
    assert flt.a_perp(six, 4) == members(six, "b", "c", "1")


def test_minimal_primes_take_each_co_annihilator_once(monkeypatch):
    six = example_3_2()  # a fresh object: the result is cached on the algebra
    calls = []
    a_perp = flt.a_perp

    def counting(alg, a):
        calls.append(a)
        return a_perp(alg, a)

    monkeypatch.setattr(flt, "a_perp", counting)
    assert flt.minimal_primes(six).agree
    assert sorted(calls) == list(six.elements)


def test_minimal_primes(six):
    res = flt.minimal_primes(six)
    assert res.agree
    assert labels(six, res.by_inclusion) == [["b", "c", "1"], ["d", "1"]]


def test_minimal_primes_on_chains(corpus_entries):
    for entry in corpus_entries:
        res = flt.minimal_primes(entry.algebra)
        assert res.agree
        if len(res.by_inclusion) == 1:
            assert res.by_inclusion[0].members == frozenset({entry.algebra.top})


def test_minimal_primes_two_element():
    res = flt.minimal_primes(chain_algebra("lukasiewicz", 2))
    assert [f.sorted_members() for f in res.by_inclusion] == [(1,)]


def test_maximal_ufilters(six_delta, six_block):
    six = six_delta.algebra
    assert labels(six, flt.maximal_ufilters(six_delta)) == [["1"]]
    assert labels(six, flt.maximal_ufilters(six_block)) == [
        ["b", "c", "1"],
        ["d", "1"],
    ]


SIX_UFILTERS = {
    "delta": [["1"], ["0", "a", "b", "c", "d", "1"]],
    "block": [["1"], ["b", "c", "1"], ["d", "1"], ["0", "a", "b", "c", "d", "1"]],
}
SIX_MAXIMAL_UFILTERS = {"delta": [["1"]], "block": [["b", "c", "1"], ["d", "1"]]}


@pytest.mark.parametrize("first", ["delta", "block"])
@pytest.mark.parametrize("family", ["ufilters", "maximal", "is_maximal"])
def test_ufilter_families_are_cached_per_quantifier(first, family):
    # a fresh algebra object starts with an empty cache, so the quantifier
    # asked about first fills it; the other must still get its own family
    six = example_3_2()
    tables = {"delta": SIX_DELTA, "block": SIX_BLOCKY}
    for name in sorted(tables, key=lambda k: k != first):
        q = make_umtl(six, tables[name])
        if family == "ufilters":
            got, want = flt.enumerate_ufilters(q), SIX_UFILTERS[name]
        else:
            if family == "maximal":
                got = flt.maximal_ufilters(q)
            else:
                proper = [members(six, *u) for u in SIX_UFILTERS["block"][:3]]
                got = [
                    flt.FilterSet(six, m)
                    for m in proper
                    if flt.is_ufilter(six, q.forall, m)
                    and flt.is_maximal_ufilter(q, m).by_definition
                ]
            want = SIX_MAXIMAL_UFILTERS[name]
        assert labels(six, got) == want


def test_maximality_criterion_agreement(six_delta, six_block):
    for q in (six_delta, six_block):
        for u in flt.enumerate_ufilters(q):
            if not u.is_proper():
                continue
            verdict = flt.is_maximal_ufilter(q, u.members)
            assert verdict.agree


def test_maximality_requires_proper_ufilter(six_block):
    with pytest.raises(ValueError):
        flt.is_maximal_ufilter(six_block, frozenset(range(6)))
    with pytest.raises(ValueError):
        flt.is_maximal_ufilter(six_block, frozenset({0, 5}))


def test_quotient_by_top_is_bijective(six_block):
    res = flt.quotient(six_block, frozenset({5}))
    assert res.quotient.algebra.size == 6
    assert sorted(res.class_map) == list(range(6))


def test_quotient_by_improper_rejected(six_block):
    with pytest.raises(flt.QuotientError, match="improper filter"):
        flt.quotient(six_block, frozenset(range(6)))


def test_quotient_requires_forall_closure(six_delta):
    with pytest.raises(flt.QuotientError) as err:
        flt.quotient(six_delta, frozenset({4, 5}))
    assert err.value.witness == (4, 0)


def test_quotient_by_d_filter(six_block):
    res = flt.quotient(six_block, frozenset({4, 5}))
    assert res.quotient.algebra.size == 3
    assert res.quotient.forall == (0, 0, 2)
    assert [sorted(c) for c in res.classes] == [[0, 2], [1, 3], [4, 5]]


def test_radical(six_delta, six_block):
    assert flt.radical(six_delta).sorted_members() == (5,)
    assert flt.radical(six_block).sorted_members() == (5,)


def test_radical_nontrivial():
    from umtl import chain_algebra

    g3 = chain_algebra("goedel", 3)
    q = make_umtl(g3, identity_table(g3))
    assert flt.radical(q).sorted_members() == (1, 2)


def test_congruence_correspondence_roundtrip(six_block):
    for u in flt.enumerate_ufilters(six_block):
        c = flt.congruence_of_filter(six_block, u.members)
        assert flt.filter_of_congruence(six_block, c) == u.members
    congruences = flt.enumerate_ucongruences(six_block)
    assert len(congruences) == len(flt.enumerate_ufilters(six_block))
    for c in congruences:
        f = flt.filter_of_congruence(six_block, c)
        assert flt.congruence_of_filter(six_block, f) == c


def test_filterset_flags(six_block):
    six, f = six_block.algebra, six_block.forall
    d1 = members(six, "d", "1")
    assert flt.FilterSet(six, d1).is_proper()
    assert flt.is_filter_by_implication(six, d1) and flt.is_ufilter(six, f, d1)
    assert d1 in {p.members for p in flt.prime_filters(six)}
    assert d1 in {p.members for p in flt.minimal_primes(six).by_inclusion}
    assert d1 in {m.members for m in flt.maximal_filters(six)}
    assert flt.is_maximal_ufilter(six_block, d1).by_definition
    whole = frozenset(six.elements)
    assert flt.is_filter_by_implication(six, whole)
    assert not flt.FilterSet(six, whole).is_proper()
