from __future__ import annotations

import re

import pytest

from umtl import chain_algebra, enumerate_quantifiers, make_umtl
from umtl.analysis import is_representable
from umtl.quantifier import delta_table
from umtl.logic.formulas import Impl, MetaVar, Var, parse_formula
from umtl.logic.schemas import RULE_SHAPES, A, SchemaCatalog
from umtl.logic import semantics
from umtl.logic.semantics import (
    Countermodel,
    RuleInstance,
    SearchExhausted,
    VariableBudgetError,
    consequence,
    countermodel_search,
    eval_formula,
    is_valid,
    pool_validity,
    soundness_audit,
)

CATALOG = SchemaCatalog.mmtl()


def _pool(corpus_entries):
    pool = []
    for entry in sorted(corpus_entries, key=lambda e: e.name):
        tables = (
            [entry.forall]
            if entry.forall is not None
            else [q.table for q in enumerate_quantifiers(entry.algebra)]
        )
        for t in tables:
            pool.append(
                make_umtl(entry.algebra, t, name=f"{entry.name}+{''.join(map(str, t))}")
            )
    return pool


def test_eval_basics(six_delta):
    f = parse_formula("p0 -> p0")
    for x in six_delta.algebra.elements:
        assert eval_formula(six_delta, {0: x}, f) == six_delta.algebra.top
    g = parse_formula("box p0")
    assert eval_formula(six_delta, {0: 3}, g) == 0
    with pytest.raises(ValueError, match="misses p1"):
        eval_formula(six_delta, {0: 0}, parse_formula("p1"))


def test_eval_rejects_values_outside_the_carrier():
    boolean = make_umtl(chain_algebra("goedel", 2), (0, 1), name="boolean-2+01")
    cases = [
        ("p0", 0, 99),
        ("box p0", 0, -1),
        ("p0 -> p0", 0, 99),
        ("p0 & p0", 0, "1"),
        ("p0", 0, 1.0),
        (Impl(A, A), A.label, 2),
    ]
    for f, key, value in cases:
        f = parse_formula(f) if isinstance(f, str) else f
        name = f"p{key}" if isinstance(key, int) else key
        with pytest.raises(ValueError, match=re.escape(f"gives {name} the value {value!r}")):
            eval_formula(boolean, {key: value}, f)


def test_eval_derived_connectives(six_block):
    alg = six_block.algebra
    f = parse_formula("p0 | p1")
    for x in alg.elements:
        for y in alg.elements:
            assert eval_formula(six_block, {0: x, 1: y}, f) == alg.join[x][y]
    g = parse_formula("neg p0")
    for x in alg.elements:
        assert eval_formula(six_block, {0: x}, g) == alg.neg(x)


def test_box_fails_necessity_introduction_on_chain():
    nm3 = chain_algebra("nilpotent-minimum", 3)
    q = make_umtl(nm3, delta_table(nm3), name="nm-3+002")
    verdict = is_valid(q, parse_formula("p0 -> box p0"))
    assert not verdict.valid
    assert verdict.countervaluation == {0: 1}  # the middle element


def test_modal_axioms_valid_on_fixture(six_delta, six_block):
    for q in (six_delta, six_block):
        for text in [
            "box p0 -> p0",
            "box (box p0 -> p1) -> (box p0 -> box p1)",
            "(box p0 -> box p1) -> box (box p0 -> p1)",
        ]:
            assert is_valid(q, parse_formula(text)).valid


def test_variable_budget():
    nm3 = chain_algebra("nilpotent-minimum", 3)
    q = make_umtl(nm3, delta_table(nm3))
    f = parse_formula("p0 & p1 & p2 & p3 & p4 & p5 & p6")
    with pytest.raises(VariableBudgetError):
        is_valid(q, f, max_vars=6)


def test_searches_reject_schema_metavariables(corpus_entries):
    pool = _pool(corpus_entries)
    alpha = MetaVar("alpha")
    searches = [
        lambda: is_valid(pool[1], alpha),
        lambda: consequence(pool[1], [alpha], Var(0)),
        lambda: countermodel_search(Impl(Var(0), alpha), pool),
        lambda: countermodel_search(RuleInstance((alpha,), Var(0)), pool),
    ]
    for search in searches:
        with pytest.raises(ValueError, match="schema metavariable alpha"):
            search()


@pytest.mark.parametrize(
    "premise, conclusion, error, message",
    [
        (Var(0), parse_formula("p1 -> p2"), VariableBudgetError, "3 variables exceed"),
        (A, Var(0), ValueError, "schema metavariable alpha"),
        (Var(0), Impl(Var(0), A), ValueError, "schema metavariable alpha"),
    ],
    ids=["budget", "metavariable-premise", "metavariable-conclusion"],
)
def test_errors_come_before_any_sweep(
    corpus_entries, monkeypatch, premise, conclusion, error, message
):
    """Every entry point raises its goal's error before it sweeps a pair,
    also over an empty pool, where a lazy sweep would raise nothing."""

    def sweeping(*args):
        raise AssertionError("a pair was swept")

    monkeypatch.setattr(semantics, "_first_refutations", sweeping)
    pool = _pool(corpus_entries)
    formula = Impl(premise, conclusion)
    rule = RuleInstance((premise,), conclusion)
    calls = [
        lambda: is_valid(pool[1], formula, max_vars=2),
        lambda: consequence(pool[1], [premise], conclusion, max_vars=2),
    ]
    for over in ([], pool):
        calls += [
            lambda over=over: pool_validity(formula, over, max_vars=2),
            lambda over=over: countermodel_search(formula, over, max_vars=2),
            lambda over=over: countermodel_search(rule, over, max_vars=2),
        ]
    for call in calls:
        with pytest.raises(error, match=message):
            call()


def test_consequence(six_delta):
    # from p0 we reach box p0 semantically (models send hypotheses to top)
    assert consequence(six_delta, [parse_formula("p0")], parse_formula("box p0")).valid
    verdict = consequence(six_delta, [], parse_formula("p0 -> box p0"))
    assert not verdict.valid


def test_countermodel_search_formula(corpus_entries):
    pool = _pool(corpus_entries)
    hit = countermodel_search(parse_formula("p0 -> box p0"), pool)
    assert isinstance(hit, Countermodel)
    # first pool member in name order able to refute it
    assert hit.algebra_label == "example-3-2+000005"


def test_countermodel_search_axioms_exhaust(corpus_entries):
    pool = _pool(corpus_entries)
    inst = parse_formula("(p0 & p1) -> p0")
    hit = countermodel_search(inst, pool)
    assert isinstance(hit, SearchExhausted)
    assert hit.pool_size == len(pool)


def test_countermodel_search_rule(corpus_entries, six_delta, six_block):
    rule = RuleInstance(*RULE_SHAPES["disj-box"])
    # the one-point quantifier on the six-element fixture refutes the rule
    hit = countermodel_search(rule, [six_delta])
    assert isinstance(hit, Countermodel)
    assert dict(hit.valuation) == {0: 2, 1: 4}  # p0=b, p1=d
    # the block quantifier satisfies it
    assert isinstance(countermodel_search(rule, [six_block]), SearchExhausted)
    # over the full corpus the delta pairing is the first refuter
    pool = _pool(corpus_entries)
    hit = countermodel_search(rule, pool)
    assert isinstance(hit, Countermodel)
    assert hit.algebra_label == "example-3-2+000005"


def test_countermodel_search_jobs_deterministic(corpus_entries):
    pool = _pool(corpus_entries)
    goal = parse_formula("p0 -> box p0")
    serial = countermodel_search(goal, pool, jobs=1)
    parallel = countermodel_search(goal, pool, jobs=4)
    assert serial == parallel


def test_semilinearity(six_delta, six_block, corpus_entries):
    rep = is_representable(six_delta)
    assert not rep.by_join_implication and rep.join_witness == (2, 4)
    rep = is_representable(six_block)
    assert rep.by_join_implication and rep.join_witness is None
    for entry in corpus_entries:
        if entry.forall is not None:
            continue
        from umtl import classify

        if classify(entry.algebra).linear:
            for q in enumerate_quantifiers(entry.algebra):
                rep = is_representable(make_umtl(entry.algebra, q.table))
                assert rep.by_join_implication


def test_soundness_audit(corpus_entries):
    pool = _pool(corpus_entries)
    report = soundness_audit(pool, SchemaCatalog.mmtl())
    assert report.all_valid
    report = soundness_audit(
        pool, SchemaCatalog.mmtl(extensions=("INV", "WNM", "MV", "EM"))
    )
    assert report.all_valid


def test_schema_scan_equals_literal_instantiation():
    # carrier-valued metavariable scan == literal instantiation over a
    # bounded formula pool (here depth <= 1 over two variables); the
    # carrier scan covers arbitrary instantiation depth by factoring
    import itertools

    from umtl.logic.formulas import And, Bot, Box, Impl, Min, Var
    from umtl.logic.schemas import instantiate, metavars_of

    nm3 = chain_algebra("nilpotent-minimum", 3)
    q = make_umtl(nm3, delta_table(nm3), name="nm-3+002")
    depth0 = [Var(0), Var(1), Bot()]
    pool = list(depth0)
    for a in depth0:
        pool.append(Box(a))
        for b in depth0:
            pool.extend([Impl(a, b), And(a, b), Min(a, b)])
    schema_ids = ("A2", "A3", "M1", "M3a", "M2a")
    # one audit, so A2 with A3 and M3a with M2a are swept as shared programs
    catalog = SchemaCatalog(tuple((i, CATALOG.get(i)) for i in schema_ids))
    report = soundness_audit([q], catalog)
    assert [e.schema_id for e in report.entries] == list(schema_ids)
    for schema_id, entry in zip(schema_ids, report.entries):
        pattern = CATALOG.get(schema_id)
        labels = metavars_of(pattern)
        scan_valid = entry.valid
        literal_valid = all(
            is_valid(q, instantiate(pattern, dict(zip(labels, combo)))).valid
            for combo in itertools.product(pool, repeat=len(labels))
        )
        assert scan_valid == literal_valid == True  # noqa: E712


def test_mp_nec_preservation_pointwise(corpus_entries):
    for q in _pool(corpus_entries):
        alg = q.algebra
        top = alg.top
        for u in alg.elements:
            for v in alg.elements:
                if u == top and alg.arrow[u][v] == top:
                    assert v == top
        assert q.forall[top] == top


def _random_formula(rnd, depth, k):
    from umtl.logic.formulas import And, Bot, Box, Impl, Min

    if depth == 0 or rnd.random() < 0.3:
        return Var(rnd.randrange(k)) if rnd.random() < 0.9 else Bot()
    kind = rnd.randrange(4)
    if kind == 3:
        return Box(_random_formula(rnd, depth - 1, k))
    left, right = (_random_formula(rnd, depth - 1, k) for _ in range(2))
    return (Impl, And, Min)[kind](left, right)


def _first_invalid(pool, check):
    for index, q in enumerate(pool):
        verdict = check(q)
        if not verdict.valid:
            return index, verdict.countervaluation, verdict.value
    return None


def test_every_search_finds_the_first_refutation(corpus_entries):
    import random

    from umtl.logic.formulas import Box, Impl, lor, neg
    from oracles import first_refutation_tree_walk

    pool = _pool(corpus_entries)
    rnd = random.Random(20261018)
    for _ in range(40):
        premises = tuple(_random_formula(rnd, 2, 3) for _ in range(rnd.randrange(1, 3)))
        t = _random_formula(rnd, 3, 3)
        # the two-valued tautologies pass the Boolean pair at pool index 0
        conclusion = rnd.choice([t, lor(t, neg(t)), Impl(neg(neg(t)), t), Impl(t, Box(t))])
        for theory in ((), premises):
            expected = first_refutation_tree_walk(pool, theory, conclusion)
            goal = RuleInstance(theory, conclusion) if theory else conclusion
            hit = countermodel_search(goal, pool)
            if expected is None:
                assert isinstance(hit, SearchExhausted)
            else:
                index, valuation, value = expected
                assert hit == Countermodel(
                    index, pool[index].label(), tuple(sorted(valuation.items())), value
                )
            assert _first_invalid(pool, lambda q: consequence(q, theory, conclusion)) == expected
            if not theory:
                assert _first_invalid(pool, lambda q: is_valid(q, conclusion)) == expected


def test_soundness_audit_flags_a_table_that_breaks_necessitation(goedel3):
    from oracles import unchecked_pair

    assert soundness_audit([make_umtl(goedel3, (0, 1, 2))], CATALOG).nec_preserves
    report = soundness_audit([unchecked_pair(goedel3, (0, 0, 0))], CATALOG)
    assert report.mp_preserves and not report.nec_preserves



@pytest.mark.parametrize(
    "n, k, size",
    [
        # the largest n^m (m <= k) of at most 2^14 valuations
        (6, 5, 7776),
        (8, 4, 4096),
        (64, 3, 4096),
        (125, 3, 15625),
        (128, 2, 16384),
        (2, 15, 16384),
        # no power of n between 1296 and 2^14: the fixed 1296
        (256, 2, 1296),
        (30, 3, 1296),
        (129, 2, 1296),
        # a space of at most 2^14 valuations is one block, below 1296 too
        (11, 3, 1331),
        (6, 3, 216),
        (35, 2, 1225),
        (2, 10, 1024),
        (3, 0, 1),
    ],
)
def test_block_size_at_measured_points(n, k, size):
    assert semantics.block_size(n, k) == size
