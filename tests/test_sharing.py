"""Work counts that pin what the audits share across the pairs of one
algebra object on the bundled corpus: 25 pairs over 13 algebra objects.

Each shared value reads only the algebra, or the algebra and a filter:
the verdicts of the soundness programs with no `forall` step (one
program per group of schemas with the same leaves), the
filter test and the MTL part of a quotient, the MTL part of the check
that its class map is a homomorphism, and the subvariety profile.
`test_oracles.py` compares the shared entries with a run that shares
nothing.  The congruence lattice, also shared per algebra object, takes
one principal congruence per join-irreducible.  Representability is
computed once per pair and kept in the algebra's cache.  A countermodel
search for a goal with no box sweeps each algebra object once, as does
`umtl logic valid` from a single compile of its goal, and every
sweep on an algebra starts from the first block of leaf masks kept in its
cache.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce

import pytest

from umtl import analysis as ana
from umtl import core
from umtl import filters as flt
from umtl.audit import corpus_pairs
from umtl.cli import main
from umtl.corpus import bundled_corpus
from umtl.logic import semantics
from umtl.logic.formulas import parse_formula
from umtl.logic.schemas import SchemaCatalog

EXTENSIONS = ("INV", "WNM", "MV", "EM")


@pytest.fixture
def pairs():
    """The corpus pairs on freshly built algebras, with empty caches."""
    pairs = corpus_pairs(bundled_corpus())
    assert len(pairs) == 25
    assert len({id(q.algebra) for q in pairs}) == 13
    return pairs


def test_forall_free_soundness_programs_run_once_per_algebra(pairs, monkeypatch):
    sweeps = Counter()
    first_refutations = semantics._first_refutations

    def counting(q, program, leaves, goals):
        sweeps[program.reads_forall, id(program), id(q.algebra)] += 1
        return first_refutations(q, program, leaves, goals)

    monkeypatch.setattr(semantics, "_first_refutations", counting)
    semantics.soundness_audit(pairs, SchemaCatalog.mmtl(extensions=EXTENSIONS))
    plain = {key: n for key, n in sweeps.items() if not key[0]}
    # one program each for A1 A7 A8 A9, A2-A6, A10, modus ponens and each
    # extension, swept once per algebra object, the extensions on some
    assert len({program for _, program, _ in plain}) == 8
    assert set(plain.values()) == {1}
    assert len({alg for _, _, alg in plain}) == 13
    modal = Counter(program for modal, program, _ in sweeps.elements() if modal)
    # one program for M1 and necessitation, one for M2a-M3b, on every pair
    assert sorted(modal.values()) == [25] * 2


@pytest.fixture
def swept(monkeypatch):
    """The pairs that `_first_refutations` sweeps, in order."""
    pairs = []
    first_refutations = semantics._first_refutations

    def recording(q, program, leaves, goals):
        pairs.append(q)
        return first_refutations(q, program, leaves, goals)

    monkeypatch.setattr(semantics, "_first_refutations", recording)
    return pairs


def search(pairs, text: str, index: int | None) -> list:
    """The pairs up to the search's hit at `index`, or all of them when
    it finds none."""
    hit = semantics.countermodel_search(parse_formula(text), pairs)
    assert getattr(hit, "pool_index", None) == index
    return pairs if index is None else pairs[: index + 1]


@pytest.mark.parametrize(
    "text, index",
    [
        ("(p0 -> p1) | (p1 -> p0)", None),  # valid on every pair
        ("neg neg p0 -> p0", 4),  # on goedel-3, past example-3-2's three pairs
    ],
)
def test_box_free_search_sweeps_each_algebra_object_once(pairs, swept, text, index):
    reached = search(pairs, text, index)
    algebras = [id(q.algebra) for q in swept]
    assert len(algebras) == len(set(algebras))
    assert set(algebras) == {id(q.algebra) for q in reached}
    assert len(swept) < len(reached)


@pytest.mark.parametrize("text, index", [("box p0 -> p0", None), ("p0 -> box p0", 1)])
def test_modal_search_sweeps_every_pair(pairs, swept, text, index):
    reached = search(pairs, text, index)
    assert [id(q) for q in swept] == [id(q) for q in reached]


@pytest.fixture
def compiled(monkeypatch):
    """The formula tuples that `compile_formulas` compiles, in order."""
    calls = []
    compile_formulas = semantics.compile_formulas

    def recording(formulas):
        calls.append(tuple(formulas))
        return compile_formulas(formulas)

    monkeypatch.setattr(semantics, "compile_formulas", recording)
    return calls


def test_logic_valid_compiles_once_and_sweeps_each_algebra_object_once(swept, compiled):
    assert main(["logic", "valid", "(p0 -> p1) | (p1 -> p0)"]) == 0
    # the bundled pool: 25 pairs over 13 algebra objects
    assert len(compiled) == 1
    assert len(swept) == len({id(q.algebra) for q in swept}) == 13


def test_consequence_compiles_once_per_call(pairs, compiled):
    p0, box_p0, goal = map(parse_formula, ("p0", "box p0", "p0 -> box p0"))
    for q in pairs[:3]:
        semantics.consequence(q, [p0], box_p0)
        semantics.is_valid(q, goal)
    # the conclusion first, then the theory
    assert compiled == [(box_p0, p0), (goal,)] * 3


def test_first_block_leaf_masks_are_built_once_per_algebra(pairs, monkeypatch):
    built = Counter()
    sweeps = Counter()
    sweeping = []  # the algebra and leaf count of the sweep under way
    first_refutations, leaf_masks = semantics._first_refutations, semantics._leaf_masks

    def recording(q, program, leaves, goals):
        sweeps[id(q.algebra), len(leaves)] += 1
        sweeping.append((q.algebra, len(leaves)))
        try:
            return first_refutations(q, program, leaves, goals)
        finally:
            sweeping.pop()

    def counting(n, weight, start, size):
        if start == 0:
            alg, count = sweeping[-1]
            built[id(alg), count, size, weight] += 1
        return leaf_masks(n, weight, start, size)

    monkeypatch.setattr(semantics, "_first_refutations", recording)
    monkeypatch.setattr(semantics, "_leaf_masks", counting)
    semantics.soundness_audit(pairs, SchemaCatalog.mmtl(extensions=EXTENSIONS))
    for text in ("box (p0 -> p1) -> (box p0 -> box p1)", "p0 & p1 -> p1 & p0"):
        semantics.countermodel_search(parse_formula(text), pairs)
        for q in pairs:
            semantics.is_valid(q, parse_formula(text))
    # one build per leaf, with its own weight, for each (algebra, leaf
    # count, block size), however many sweeps read it
    assert set(built.values()) == {1}
    blocks = Counter((alg, count) for alg, count, _, _ in built)
    assert blocks == {key: key[1] for key in sweeps}
    # most sweeps read a block that an earlier sweep built
    assert sum(sweeps.values()) > 2 * len(sweeps)


def test_quotient_mtl_part_is_built_once_per_filter(pairs, monkeypatch):
    asked = []  # the algebras stay referenced, so their ids stay distinct
    built = []
    quotient, algebra = flt.quotient, flt.FiniteMTLAlgebra

    def recording(q, members):
        asked.append((q.algebra, frozenset(members)))
        return quotient(q, members)

    def counting(**kwargs):
        built.append(algebra(**kwargs))
        return built[-1]

    monkeypatch.setattr(flt, "quotient", recording)
    monkeypatch.setattr(flt, "FiniteMTLAlgebra", counting)
    ana.theorem_audit(pairs)
    distinct = {(id(alg), members) for alg, members in asked}
    assert len(asked) > len(distinct)
    assert len(built) == len(distinct)


def test_quotient_tests_each_filter_once(pairs, monkeypatch):
    calls = 0
    inside = []  # the quotient calls under way
    tests = Counter()
    quotient, is_filter = flt.quotient, flt.is_filter_by_implication

    def recording(q, members):
        nonlocal calls
        calls += 1
        inside.append(q)
        try:
            return quotient(q, members)
        finally:
            inside.pop()

    def counting(alg, members):
        if inside:
            tests[id(alg), frozenset(members)] += 1
        return is_filter(alg, members)

    monkeypatch.setattr(flt, "quotient", recording)
    monkeypatch.setattr(flt, "is_filter_by_implication", counting)
    ana.theorem_audit(pairs)
    assert calls > len(tests)
    assert set(tests.values()) == {1}


def test_classify_scans_once_per_algebra_object(pairs, monkeypatch):
    asked = []  # the algebras stay referenced, so their ids stay distinct
    scans = []
    profile = core.SubvarietyProfile

    def recording(alg):
        asked.append(alg)
        return core.classify(alg)

    def counting(**flags):
        scans.append(flags)
        return profile(**flags)

    for module in (ana, semantics):
        monkeypatch.setattr(module, "classify", recording)
    monkeypatch.setattr(core, "SubvarietyProfile", counting)
    ana.theorem_audit(pairs)
    semantics.soundness_audit(pairs, SchemaCatalog.mmtl(extensions=EXTENSIONS))
    distinct = {id(alg) for alg in asked}
    assert len(asked) > len(distinct)
    assert len(scans) == len(distinct)


def test_class_map_mtl_check_runs_once_per_filter(pairs, monkeypatch):
    mtl_checks = Counter()
    forall_checks = Counter()
    mtl_witness, forall_witness = ana._mtl_homomorphism_witness, ana._forall_witness

    def counting_mtl(m, a1, a2):
        mtl_checks[id(a1), id(a2)] += 1
        return mtl_witness(m, a1, a2)

    def counting_forall(m, q1, q2):
        forall_checks[id(q1.algebra), id(q2.algebra)] += 1
        return forall_witness(m, q1, q2)

    monkeypatch.setattr(ana, "_mtl_homomorphism_witness", counting_mtl)
    monkeypatch.setattr(ana, "_forall_witness", counting_forall)
    ana.theorem_audit(pairs)
    # one quotient algebra object per (algebra, filter), checked once
    assert set(mtl_checks.values()) == {1}
    assert set(forall_checks) == set(mtl_checks)
    assert sum(forall_checks.values()) > len(mtl_checks)


def test_theorem_audit_tests_no_ufilter(pairs, monkeypatch):
    # maximality reads the enumerated U-filters; representability tests
    # the minimal primes, which are filters already, only for closure
    # under the quantifier
    calls = []
    is_ufilter = flt.is_ufilter

    def counting_is_ufilter(*args):
        calls.append(args)
        return is_ufilter(*args)

    monkeypatch.setattr(flt, "is_ufilter", counting_is_ufilter)
    assert ana.theorem_audit(pairs)
    assert not calls


def test_representability_is_computed_once_per_pair(pairs, monkeypatch):
    # the theorem audit reports it on its own and beside the strong scan;
    # the benchmark ladder then asks for it and for the strong scan again
    calls = Counter()
    representability = ana._representability

    def counting(alg, f):
        calls[id(alg), f] += 1
        return representability(alg, f)

    monkeypatch.setattr(ana, "_representability", counting)
    assert ana.theorem_audit(pairs)
    for q in pairs:
        assert ana.is_strong(q).representable == ana.is_representable(q).representable
    assert {(id(q.algebra), q.forall) for q in pairs} <= set(calls)
    assert set(calls.values()) == {1}


def test_congruences_take_one_principal_per_join_irreducible(pairs, monkeypatch):
    calls = Counter()
    principal = flt._principal_congruence

    def counting(alg, a, b):
        calls[id(alg)] += 1
        return principal(alg, a, b)

    monkeypatch.setattr(flt, "_principal_congruence", counting)
    for q in pairs:
        flt.enumerate_ucongruences(q)
    algebras = {id(q.algebra): q.algebra for q in pairs}

    def join_irreducibles(alg):
        # j is join-irreducible iff it is not the join of the elements
        # strictly below it (bottom, the empty join, is not)
        return sum(
            reduce(
                lambda x, y: alg.join[x][y],
                (x for x in alg.elements if x != j and alg.leq[x][j]),
                alg.bottom,
            )
            != j
            for j in alg.elements
        )

    assert calls == {key: join_irreducibles(alg) for key, alg in algebras.items()}
