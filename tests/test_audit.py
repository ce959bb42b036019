"""The fixture entries of `audit.fixture_audits` compute their agreement
from their own details: each one disagrees once the fact it records
fails."""

from __future__ import annotations

import pytest

from umtl import analysis as ana
from umtl import filters as flt
from umtl.audit import corpus_pairs, fixture_audits
from umtl.corpus import SIX_DELTA, bundled_corpus


def _agrees(entries, check: str) -> bool:
    (entry,) = (e for e in entries if e.check == check)
    return entry.agrees


@pytest.fixture(scope="module")
def pairs(corpus_entries):
    return corpus_pairs(corpus_entries)


def test_family_pairing_disagrees_without_the_four_member_family(monkeypatch):
    # fresh entries: the U-filter families cached on their algebras are
    # built from the patched enumeration and dropped with them
    enumerate_ufilters = flt.enumerate_ufilters
    monkeypatch.setattr(flt, "enumerate_ufilters", lambda q: enumerate_ufilters(q)[1:])
    entries = bundled_corpus()
    audits = fixture_audits(entries, corpus_pairs(entries))
    assert not _agrees(audits, "ufilter-family-pairing")


def test_six_element_rule_disagrees_when_delta_satisfies_it(
    corpus_entries, pairs, monkeypatch
):
    is_representable = ana.is_representable

    def delta_without_join_witness(q):
        rep = is_representable(q)
        return rep._replace(join_witness=None) if q.forall == SIX_DELTA else rep

    monkeypatch.setattr(ana, "is_representable", delta_without_join_witness)
    entries = fixture_audits(corpus_entries, pairs)
    assert not _agrees(entries, "disjunction-rule-on-six-element")


def test_rule_search_disagrees_without_a_countermodel(corpus_entries, pairs):
    sound = [q for q in pairs if ana.is_representable(q).by_join_implication]
    entries = fixture_audits(corpus_entries, sound)
    assert not _agrees(entries, "disjunction-rule-search")
