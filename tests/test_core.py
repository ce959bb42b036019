from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtl import (
    InvalidAlgebraError,
    chain_algebra,
    check_mtl_tables,
    classify,
    validate,
)
from umtl.core import FiniteMTLAlgebra, boolean_2, default_names
from umtl.oracles import derive_odot_from_arrow


def test_example_fixture_validates(six):
    assert six.size == 6
    assert six.top == 5
    assert check_mtl_tables(6, six.odot, six.arrow, 5) == []


def test_fixture_order_matches_presentation(six):
    assert six.names == ("0", "a", "b", "c", "d", "1")
    name = dict(zip(six.names, range(6)))
    expected_pairs = {("0", x) for x in six.names} | {
        ("a", "a"), ("a", "c"), ("a", "d"), ("b", "b"), ("b", "c"),
        ("c", "c"), ("d", "d"),
    } | {(x, "1") for x in six.names}
    for x in six.names:
        for y in six.names:
            assert bool(six.leq[name[x]][name[y]]) == ((x, y) in expected_pairs)


def test_two_element_boolean_validates():
    alg = boolean_2()
    assert alg.odot == ((0, 0), (0, 1))
    assert alg.arrow == ((1, 1), (0, 1))
    assert classify(alg).boolean


def test_monoid_table_is_forced_by_residuation(six):
    assert derive_odot_from_arrow(6, six.arrow, 5) == six.odot


def test_mutated_cell_reports_violations(six):
    # the oracle is a full axiom re-scan of the mutated table
    odot = [list(row) for row in six.odot]
    odot[3][4] = 2  # c,d cell
    violations = check_mtl_tables(6, odot, six.arrow, 5)
    axioms = {v.axiom for v in violations}
    assert axioms & {"residuation", "monoid-commutative", "monoid-associative"}
    for v in violations:
        assert all(0 <= w < 6 for w in v.witness)


def test_violation_witnesses_are_least(six):
    # break commutativity at a known cell and expect the least witness
    odot = [list(row) for row in six.odot]
    odot[4][1] = 0  # d*a: breaks commutativity against a*d
    violations = check_mtl_tables(6, odot, six.arrow, 5)
    comm = [v for v in violations if v.axiom == "monoid-commutative"]
    assert comm and comm[0].witness == (1, 4)


def test_shape_errors():
    bad = check_mtl_tables(2, ((0,),), ((1, 1), (0, 1)), 1)
    assert any(v.axiom == "odot-non-square" for v in bad)
    bad = check_mtl_tables(2, ((0, 0), (0, 5)), ((1, 1), (0, 1)), 1)
    assert any(v.axiom == "odot-entry-out-of-range" for v in bad)
    assert any(v.axiom == "degenerate-size" for v in check_mtl_tables(1, ((0,),), ((0,),), 0))


def test_validate_raises_with_violations():
    with pytest.raises(InvalidAlgebraError) as err:
        validate(2, ((0, 0), (1, 1)), ((1, 1), (0, 1)), 1)
    assert err.value.violations


def test_classify_fixture(six):
    profile = classify(six)
    assert profile.imtl and profile.mv and profile.nm
    assert not profile.boolean and not profile.linear


def test_classify_booleanness_implies_mv(corpus_entries):
    for entry in corpus_entries:
        profile = classify(entry.algebra)
        if profile.boolean:
            assert profile.mv
        if profile.nm:
            assert profile.imtl


@pytest.mark.parametrize("kind", ["lukasiewicz", "goedel", "nilpotent-minimum"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chain_algebras_validate(kind, n):
    alg = chain_algebra(kind, n)
    assert classify(alg).linear
    assert alg.size == n


def test_chain_kinds():
    g3 = chain_algebra("goedel", 3)
    assert g3.odot[1][1] == 1 and g3.neg(1) == 0
    nm3 = chain_algebra("nilpotent-minimum", 3)
    assert nm3.odot[1][1] == 0 and nm3.neg(1) == 1
    assert chain_algebra("lukasiewicz", 2).table_key() == boolean_2().table_key()
    with pytest.raises(ValueError):
        chain_algebra("product", 3)


def test_neg_power_ord(six):
    a, b, d = 1, 2, 4
    assert six.name_of(six.neg(a)) == "c"
    assert six.name_of(six.neg(b)) == "d"
    assert six.ord_of(six.top) is None
    assert six.ord_of(0) == 1
    assert six.ord_of(d) is None  # d is odot-idempotent
    assert six.ord_of(a) == 2


def test_ord_of_ends_when_the_powers_cycle():
    # not MTL, so built without `validate`: the powers of 1 run 1, 2, 1,
    # 2, ... and neither vanish nor stand still
    odot = ((0, 0, 0, 0), (0, 2, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3))
    with pytest.raises(InvalidAlgebraError):
        validate(4, odot, odot, 3)
    alg = FiniteMTLAlgebra(4, odot, odot, 3, default_names(4), odot, odot, odot)
    assert [alg.ord_of(x) for x in alg.elements] == [1, None, None, None]


def test_meet_join_lattice_laws(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        rng = range(alg.size)
        for x in rng:
            for y in rng:
                assert alg.meet[x][y] == alg.meet[y][x]
                assert alg.join[x][y] == alg.join[y][x]
                assert alg.meet[x][alg.join[x][y]] == x
                assert alg.join[x][alg.meet[x][y]] == x
                assert bool(alg.leq[x][y]) == (alg.meet[x][y] == x)
        for x, y, z in itertools.product(rng, repeat=3):
            assert alg.meet[alg.meet[x][y]][z] == alg.meet[x][alg.meet[y][z]]
            assert alg.join[alg.join[x][y]][z] == alg.join[x][alg.join[y][z]]


def test_residuation_scan_complete(corpus_entries):
    # validate accepts exactly when the full triple scan passes
    for entry in corpus_entries:
        alg = entry.algebra
        rng = range(alg.size)
        for x, y, z in itertools.product(rng, repeat=3):
            assert bool(alg.leq[alg.odot[x][y]][z]) == bool(
                alg.leq[x][alg.arrow[y][z]]
            )


def _order_arrow(pairs):
    """An arrow table on 0 < .. < 5 whose order is the reflexive closure of
    bottom and top with the strict `pairs`: x -> y is top iff x <= y."""
    leq = lambda x, y: x == y or x == 0 or y == 5 or (x, y) in pairs
    return [[5 if leq(x, y) else 0 for y in range(6)] for x in range(6)]


@pytest.mark.parametrize(
    "pairs",
    [
        # 1 and 2 have the upper bounds 3 and 4 but no least one
        {(1, 3), (1, 4), (2, 3), (2, 4)},
        # 1 and 2 have the lower bounds 3 and 4 but no greatest one
        {(3, 1), (3, 2), (4, 1), (4, 2)},
    ],
)
def test_order_without_a_bound_names_the_first_pair(pairs):
    odot = [[min(x, y) for y in range(6)] for x in range(6)]
    violations = check_mtl_tables(6, odot, _order_arrow(pairs), 5)
    lattice = [v.witness for v in violations if v.axiom == "order-not-a-lattice"]
    assert lattice == [(1, 2)]


def test_classify_deterministic(six):
    assert classify(six) == classify(six)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_random_mutations_never_validate_silently(n, rnd):
    # mutating a random cell of a valid chain either keeps the tables valid
    # (never, for these chains, except the cell value is unchanged) or
    # produces at least one named violation
    base = chain_algebra("lukasiewicz", n)
    odot = [list(row) for row in base.odot]
    x, y = rnd.randrange(n), rnd.randrange(n)
    old = odot[x][y]
    odot[x][y] = rnd.randrange(n)
    violations = check_mtl_tables(n, odot, base.arrow, base.top)
    if odot[x][y] == old:
        assert violations == []
    else:
        assert violations
