"""Differential tests of the closure-based fast paths against the
exhaustive scans in `umtl.oracles`, on random products and ordinal sums
of chains, on the larger constructions of the benchmark ladder and on the
bundled corpus.

Quantifier enumeration only relativizes to subalgebras, so "the image is
a subalgebra" (item 14 of `properties_suite`) holds by construction for
every enumerated pair.  Agreement with the all-subsets scan and with the
n^n scan is what checks that no quantifier is lost by that restriction.

U-congruences are joins of principal congruences; the Bell(n) partition
scan checks them, also on unary maps that are not quantifiers, since the
closure does not rely on U1-U3.

Filters and U-filters come from the close-by-one search of
`core.closed_masks`; the 2^n subset scans in `umtl.filters` check them,
U-filters also on unary maps that are not quantifiers.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from umtl import analysis as ana
from umtl import filters as flt
from umtl import oracles
from umtl.audit import corpus_pairs
from umtl.core import FiniteMTLAlgebra, chain_algebra, classify, validate
from umtl.filters import enumerate_ucongruences
from umtl.quantifier import (
    UMTLAlgebra,
    enumerate_quantifiers,
    subalgebra_masks,
    unchecked_pair,
)

KINDS = {"L": "lukasiewicz", "G": "goedel", "N": "nilpotent-minimum"}


def chain(tag: str):
    return chain_algebra(KINDS[tag[0]], int(tag[1:]))


def product_algebra(a: FiniteMTLAlgebra, b: FiniteMTLAlgebra) -> FiniteMTLAlgebra:
    """The direct product, (x, y) at index x * b.size + y (validated)."""
    nb = b.size
    pairs = [(x, y) for x in a.elements for y in b.elements]
    odot = [
        [a.odot[x1][x2] * nb + b.odot[y1][y2] for x2, y2 in pairs]
        for x1, y1 in pairs
    ]
    arrow = [
        [a.arrow[x1][x2] * nb + b.arrow[y1][y2] for x2, y2 in pairs]
        for x1, y1 in pairs
    ]
    return validate(len(pairs), odot, arrow, a.top * nb + b.top)


def ordinal_sum(*components: FiniteMTLAlgebra) -> FiniteMTLAlgebra:
    """Components stacked bottom to top, their tops identified (validated).

    Inside a component its own tables apply; across components odot is the
    lower argument and x -> y is top when x lies below y, else y.  Indices
    run through the components in order, the common top last.
    """
    elems = [
        (c, x)
        for c, alg in enumerate(components)
        for x in alg.elements
        if x != alg.top
    ]
    top = len(elems)
    index = {e: i for i, e in enumerate(elems)}

    def lift(c: int, x: int) -> int:
        return top if x == components[c].top else index[(c, x)]

    odot = [[0] * (top + 1) for _ in range(top + 1)]
    arrow = [[0] * (top + 1) for _ in range(top + 1)]
    for i in range(top + 1):
        for j in range(top + 1):
            if i == top or j == top:
                odot[i][j] = j if i == top else i
                arrow[i][j] = j if i == top else top
                continue
            (ci, x), (cj, y) = elems[i], elems[j]
            if ci == cj:
                odot[i][j] = lift(ci, components[ci].odot[x][y])
                arrow[i][j] = lift(ci, components[ci].arrow[x][y])
            else:
                odot[i][j] = i if ci < cj else j
                arrow[i][j] = top if ci < cj else j
    return validate(top + 1, odot, arrow, top)


def relabel(alg, rnd: random.Random):
    """The same algebra under a random permutation that keeps bottom at 0."""
    rest = list(range(1, alg.size))
    rnd.shuffle(rest)
    perm = [0] + rest
    n = alg.size
    odot = [[0] * n for _ in range(n)]
    arrow = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            odot[perm[x]][perm[y]] = perm[alg.odot[x][y]]
            arrow[perm[x]][perm[y]] = perm[alg.arrow[x][y]]
    return validate(n, odot, arrow, perm[alg.top])


def random_algebra(seed: int, max_size: int):
    """A relabelled product (even seeds) or ordinal sum (odd seeds) of two
    or three chains, with at most `max_size` elements."""
    rnd = random.Random(seed)
    if seed % 2 == 0:  # product sizes multiply
        sizes = [rnd.randint(2, max_size // 2)]
        sizes.append(rnd.randint(2, max_size // sizes[0]))
        if 2 * math.prod(sizes) <= max_size and rnd.random() < 0.5:
            sizes.append(rnd.randint(2, max_size // math.prod(sizes)))
    else:  # ordinal sums add the non-top elements
        sizes = [rnd.randint(2, max_size - 1)]
        sizes.append(rnd.randint(2, max_size + 1 - sizes[0]))
        if sum(sizes) <= max_size and rnd.random() < 0.5:
            sizes.append(rnd.randint(2, max_size + 2 - sum(sizes)))
    parts = [chain_algebra(rnd.choice(list(KINDS.values())), m) for m in sizes]
    if seed % 2 == 0:
        alg = parts[0]
        for p in parts[1:]:
            alg = product_algebra(alg, p)
    else:
        alg = ordinal_sum(*parts)
    return relabel(alg, rnd)


RANDOM_SEEDS = range(24)
# The ladder constructions with at most 14 elements.
LADDER = {
    "G12": lambda: chain("G12"),
    "G14": lambda: chain("G14"),
    "G4+L4+N4": lambda: ordinal_sum(chain("G4"), chain("L4"), chain("N4")),
    "L3xL3": lambda: product_algebra(chain("L3"), chain("L3")),
    "G3xL3": lambda: product_algebra(chain("G3"), chain("L3")),
}


def tables(alg, u2_parse="standard", method="fixpoint"):
    return [q.table for q in enumerate_quantifiers(alg, u2_parse, method)]


def assert_subalgebras_match_oracle(alg):
    got = subalgebra_masks(alg)
    assert len(set(got)) == len(got)
    want = {sum(1 << x for x in s) for s in oracles.subalgebras_subset_oracle(alg)}
    assert set(got) == want


def assert_image_simple_matches_oracle(alg):
    for uq in enumerate_quantifiers(alg):
        got = ana.is_simple(UMTLAlgebra(alg, uq)).image_simple
        image = frozenset(uq.table)
        assert got == oracles.subalgebra_filters_trivial_subset_oracle(alg, image)


def test_random_algebras_cover_both_constructions():
    algebras = [random_algebra(seed, 8) for seed in RANDOM_SEEDS]
    assert max(a.size for a in algebras) == 8
    # products of chains are never linear, ordinal sums of chains always are
    assert [classify(a).linear for a in algebras] == [s % 2 == 1 for s in RANDOM_SEEDS]


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_subalgebras_match_subset_oracle(seed):
    assert_subalgebras_match_oracle(random_algebra(seed, 8))


def test_subalgebras_match_subset_oracle_on_corpus(corpus_entries):
    for entry in corpus_entries:
        assert_subalgebras_match_oracle(entry.algebra)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_subalgebra_filter_count_matches_subset_oracle(seed):
    # every subalgebra, not only quantifier images
    alg = random_algebra(seed, 8)
    for s in oracles.subalgebras_subset_oracle(alg):
        want = oracles.subalgebra_filters_trivial_subset_oracle(alg, s)
        assert ana._subalgebra_filters_trivial(alg, s) == want


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_enumeration_matches_fixpoint_subset_scan(seed):
    alg = random_algebra(seed, 8)
    assert tables(alg) == oracles.fixpoint_subset_tables(alg)
    assert_image_simple_matches_oracle(alg)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_enumeration_matches_fixpoint_subset_scan_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    assert tables(alg) == oracles.fixpoint_subset_tables(alg)
    assert_image_simple_matches_oracle(alg)


@pytest.mark.parametrize("u2_parse", ["standard", "alt"])
@pytest.mark.parametrize("seed", range(8))
def test_enumeration_matches_brute_force(seed, u2_parse):
    alg = random_algebra(seed, 5)
    assert tables(alg, u2_parse) == tables(alg, u2_parse, "brute")


@pytest.mark.parametrize("u2_parse", ["standard", "alt"])
def test_enumeration_matches_brute_force_on_corpus(corpus_entries, u2_parse):
    for entry in corpus_entries:
        alg = entry.algebra
        if alg.size <= 5:
            assert tables(alg, u2_parse) == tables(alg, u2_parse, "brute")


def test_image_simple_matches_subset_oracle_on_corpus(corpus_entries):
    for entry in corpus_entries:
        assert_image_simple_matches_oracle(entry.algebra)


def assert_ucongruences_match_oracle(q):
    assert enumerate_ucongruences(q) == oracles.ucongruences_partition_oracle(q)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_ucongruences_match_partition_oracle(seed):
    alg = random_algebra(seed, 7)
    for uq in enumerate_quantifiers(alg):
        assert_ucongruences_match_oracle(UMTLAlgebra(alg, uq))


def test_ucongruences_match_partition_oracle_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_ucongruences_match_oracle(q)


@pytest.mark.parametrize("name", ["L3xL3", "G3xL3"])
def test_ucongruences_match_partition_oracle_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    assert alg.size == 9
    for uq in enumerate_quantifiers(alg):
        assert_ucongruences_match_oracle(UMTLAlgebra(alg, uq))


@pytest.mark.parametrize("tag", ["G3", "G4", "L3", "L4"])
def test_ucongruences_match_partition_oracle_on_every_unary_map(tag):
    alg = chain(tag)
    for table in itertools.product(alg.elements, repeat=alg.size):
        assert_ucongruences_match_oracle(unchecked_pair(alg, table))


def assert_ufilters_match_oracle(q):
    assert flt.enumerate_ufilters(q) == flt.enumerate_ufilters_subset_oracle(q)


def assert_filters_match_oracle(alg):
    assert flt.enumerate_filters(alg) == flt.enumerate_filters_subset_oracle(alg)
    for uq in enumerate_quantifiers(alg):
        assert_ufilters_match_oracle(UMTLAlgebra(alg, uq))


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_filters_match_subset_oracle(seed):
    assert_filters_match_oracle(random_algebra(seed, 8))


@pytest.mark.parametrize("name", ["G12", "G4+L4+N4", "L3xL3", "G3xL3"])
def test_filters_match_subset_oracle_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    assert alg.size <= 12
    assert_filters_match_oracle(alg)


@pytest.mark.parametrize("tag", ["G3", "L3"])
def test_ufilters_match_subset_oracle_on_every_unary_map(tag):
    alg = chain(tag)
    for table in itertools.product(alg.elements, repeat=alg.size):
        assert_ufilters_match_oracle(unchecked_pair(alg, table))
