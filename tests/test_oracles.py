"""Differential tests of the closure-based fast paths against the
exhaustive scans in `tests/oracles.py`, on random products and ordinal sums
of chains, on the larger constructions of the benchmark ladder and on the
bundled corpus.

The MTL axioms are checked a row at a time (`core.check_mtl_tables`,
`core.validate`); the cell-by-cell scan
`oracles.check_mtl_tables_reference` must give the same violations with
the same least witnesses, and the same leq, meet and join tables, on the
valid algebras and on 2,400 seeded corruptions of them that reach every
axiom the scan can report.  Cone-bitmask lower covers are checked
against the definition, and the principal U-filter closures that decide
quotient simplicity in the theorem audit against `analysis.is_simple`.

Quantifier enumeration only relativizes to subalgebras, so "the image is
a subalgebra" (item 14 of `properties_suite`) holds by construction for
every enumerated pair.  Agreement with the all-subsets scan and with the
n^n scan is what checks that no quantifier is lost by that restriction,
nor by the cut of the subalgebra search at persistent U2 failures.  The
search that cuts only below its start rank and excludes nothing,
`oracles.image_tables_reference`, checks the exclusions and the cut at
decided floors where those scans cannot reach: nilpotent-minimum chains
up to 24 elements, the 16-element ladder rungs and random algebras of up
to 18 elements.  Work counts pin the closures on G20 and N32.

U-congruences are the congruences of the algebra that respect the
quantifier, and the congruences are joins of the principal congruences
of one covering pair per join-irreducible, computed once per algebra
object; the Bell(n) partition scan checks them, also on unary maps that
are not quantifiers, since neither step relies on U1-U3, the join over
all pairs checks them at 12 elements, and the order in which quantifiers
reach the shared lattice must not matter.  The refinement test of the
correspondence audit reads each element's least class member; the test of
every block against every block checks it on the corpus and the random
algebras.  Each U-filter's congruence, and a proper one's quotient
classes, must be the partition scan's congruence whose top class is that
filter, so a filter relation that merges two classes is caught.
Quotients collapse the parent's tables on class representatives; the
build by `core.validate` and `validate_quantifier` checks them, and the
class-map homomorphism test, the one well-definedness check, must pass on
every one.

Filters and U-filters are read off the up-sets of the idempotents, with
no closure; the 2^n subset scans in `umtl.filters` check them, U-filters
also on unary maps that are not quantifiers, and the close-by-one search
`oracles.filters_close_by_one` over `filters.filter_table` checks them on
the ladder and at 64 elements.  Generated filters and U-filters are
`core.closure` of the seed over that table; the explicit descriptions in
`oracles` check them, and `core.closure` itself must give the least
closed set of the search that holds the seed, on the filter, U-filter and
subalgebra tables.

Both audits share every value that reads only the algebra, or the
algebra and a filter, across the pairs of one algebra object: the
subvariety profile, the verdicts of the soundness programs with no
`forall` step, and the MTL part of each quotient.  The same pairs, each
rebuilt on its own copy of the algebra so that nothing is shared, must
give the same entries, on the corpus and on the random algebras.

Formulas are compiled once and evaluated a block of valuations at a time,
one bit per valuation (`logic.semantics`); the recursive tree walk
`oracles.eval_formula_tree` and the hand-ranked
`oracles.first_refutation_tree_walk` check the values and every search's
first refutation, on the corpus pairs and on products and ordinal sums of
8 to 16 elements, also with small blocks of both kinds the block rule
gives (powers of the carrier size, and the fixed fallback), across the
boundaries of the module's own blocks, and on sugared `|` chains, whose
shared subtrees the tree walk expands.  The one-pass compile must give
the program of the two-visit walk `oracles.compile_formulas_reference`,
field for field, on the catalog checks, the bundled proofs, random goals
and `|` chains.
Formula nodes are interned, so equality is identity;
`oracles.same_tree_reference`, which walks both trees and compares their
leaves by fields, must agree with it on random pairs, `|` chains and
nodes rebuilt from their children.

Formulas are parsed by one operator-precedence loop, each node's depth
carried up from its operands'; `oracles.parse_formula_reference`, which
tokenizes first, recurses and derives depths by a walk, must give the
same tree with the same shared node objects, or the same message at the
same position, on random token strings, on each nesting shape around the
depth bound (also under a recursion limit far below it, which only the
loop can meet), on the bundled proofs, on fully parenthesised random
formulas and on printed random formulas.
"""

from __future__ import annotations

import ast
import itertools
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import umtl
from umtl import analysis as ana
from umtl import core, corpus
from umtl import filters as flt
from umtl.audit import corpus_pairs
from umtl.core import (
    FiniteMTLAlgebra,
    chain_algebra,
    classify,
    closed_masks,
    closure,
    validate,
)
from umtl.filters import enumerate_ucongruences
from umtl.logic import proofs, semantics
from umtl.logic.formulas import (
    MAX_DEPTH,
    And,
    Bot,
    Box,
    FormulaSyntaxError,
    Impl,
    Min,
    Var,
    children,
    iff,
    lor,
    neg,
    parse_formula,
    print_formula,
    top,
    variables_of,
)
from umtl.logic.schemas import MP, NEC, A, B, C, SchemaCatalog
from umtl.logic.semantics import (
    Countermodel,
    RuleInstance,
    SearchExhausted,
    compile_formulas,
    consequence,
    countermodel_search,
    eval_formula,
    soundness_audit,
)
from umtl.quantifier import (
    UMTLAlgebra,
    enumerate_quantifiers,
    make_umtl,
    subalgebra_table,
    validate_quantifier,
)

import oracles

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
# The ladder constructions with at most 14 elements, and N12.
LADDER = {
    "G12": lambda: chain("G12"),
    "G14": lambda: chain("G14"),
    "N12": lambda: chain("N12"),
    "G4+L4+N4": lambda: ordinal_sum(chain("G4"), chain("L4"), chain("N4")),
    "L3xL3": lambda: product_algebra(chain("L3"), chain("L3")),
    "G3xL3": lambda: product_algebra(chain("G3"), chain("L3")),
}


def tables(alg, method="fixpoint"):
    return [q.table for q in enumerate_quantifiers(alg, method=method)]


# Case ids keep the "-standard" suffix they had while a second reading of
# U2 was also checked, so that each case keeps its name.
STANDARD_IDS = "{}-standard".format


def assert_subalgebras_match_oracle(alg):
    got = closed_masks(alg.size, (alg.bottom, alg.top), subalgebra_table(alg))
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


def scan_algebras(corpus_entries):
    """The valid algebras the MTL scans are compared on: the corpus, the
    chains of each kind, the ladder's products and ordinal sums and the
    random algebras."""
    chains = [chain_algebra(kind, n) for kind in KINDS.values() for n in (2, 5, 9)]
    return [
        *(e.algebra for e in corpus_entries),
        *chains,
        *(build() for build in LADDER.values()),
        *(random_algebra(seed, 10) for seed in RANDOM_SEEDS),
    ]


# every axiom `core.check_mtl_tables` can report
SCAN_AXIOMS = {
    "degenerate-size", "top-out-of-range", "top-equals-bottom",
    "odot-non-square", "arrow-non-square",
    "odot-entry-out-of-range", "arrow-entry-out-of-range",
    "order-reflexive", "order-antisymmetric", "order-transitive",
    "bottom-least", "top-greatest", "order-not-a-lattice",
    "monoid-unit", "monoid-commutative", "monoid-associative",
    "residuation", "prelinearity",
}


def corrupted(alg, rnd: random.Random):
    """(size, odot, arrow, top) of `alg` with one to three corruptions:
    mostly a cell set to another element, sometimes to a value outside
    the carrier; or a shape fault, which ends the list: another top, a
    row or a table one short, or a degenerate size."""
    n, top = alg.size, alg.top
    odot, arrow = [list(row) for row in alg.odot], [list(row) for row in alg.arrow]
    for _ in range(rnd.randint(1, 3)):
        table, kind = rnd.choice((odot, arrow)), rnd.random()
        if kind < 0.9:
            table[rnd.randrange(n)][rnd.randrange(n)] = rnd.randrange(n)
        elif kind < 0.94:
            table[rnd.randrange(n)][rnd.randrange(n)] = rnd.choice((-1, n))
        else:
            if kind < 0.96:
                top = rnd.randrange(-1, n + 1)
            elif kind < 0.98:
                table[rnd.randrange(n)].pop()
            elif kind < 0.995:
                table.pop()
            else:
                n = 1
            break
    return n, odot, arrow, top


def assert_scan_matches_reference(size, odot, arrow, top):
    """`check_mtl_tables` gives the cell scan's violations, and a valid
    algebra's leq, meet and join are the cell scan's tables."""
    want, lattice = oracles.check_mtl_tables_reference(size, odot, arrow, top)
    got = core.check_mtl_tables(size, odot, arrow, top)
    assert got == want
    if not got:
        alg = validate(size, odot, arrow, top)
        assert (alg.leq, alg.meet, alg.join) == lattice
    return got


def test_mtl_scan_matches_cell_scan(corpus_entries):
    for alg in scan_algebras(corpus_entries):
        assert assert_scan_matches_reference(alg.size, alg.odot, alg.arrow, alg.top) == []


def test_mtl_scan_matches_cell_scan_on_corruptions(corpus_entries):
    algebras = [a for a in scan_algebras(corpus_entries) if a.size <= 12]
    rnd = random.Random(2001)
    seen = set()
    for _ in range(2400):
        tables = corrupted(rnd.choice(algebras), rnd)
        seen.update(v.axiom for v in assert_scan_matches_reference(*tables))
    assert seen == SCAN_AXIOMS


def test_mtl_scan_matches_cell_scan_beyond_ascii():
    # the triple axioms compare strings of chr(v); from 128 on these are
    # not ASCII
    alg = chain_algebra("nilpotent-minimum", 130)
    assert assert_scan_matches_reference(alg.size, alg.odot, alg.arrow, alg.top) == []
    odot = [list(row) for row in alg.odot]
    odot[128][127] = odot[127][128] = 0
    violations = assert_scan_matches_reference(alg.size, odot, alg.arrow, alg.top)
    assert {"monoid-associative", "residuation"} <= {v.axiom for v in violations}


def test_lower_covers_match_reference(corpus_entries):
    orders = [a.leq for a in scan_algebras(corpus_entries)]
    # inclusion orders on U-filter families, as `hasse` draws them
    for q in corpus_pairs(corpus_entries):
        family = flt.enumerate_ufilters(q)
        orders.append([[a.members <= b.members for b in family] for a in family])
    for leq in orders:
        assert core.lower_covers(leq) == oracles.lower_covers_reference(leq)


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


@pytest.mark.parametrize("seed", RANDOM_SEEDS, ids=STANDARD_IDS)
def test_pruned_enumeration_matches_fixpoint_subset_scan(seed):
    alg = random_algebra(seed, 10)
    assert tables(alg) == oracles.fixpoint_subset_tables(alg)


def test_goedel_20_search_stays_polynomial(monkeypatch):
    # 2^18 subalgebras, one quantifier; the cut search closes at most n^2
    # sets, in any labelling
    alg = relabel(chain("G20"), random.Random("G20"))
    calls = count_closures(monkeypatch)
    assert tables(alg) == [tuple(range(20))]
    assert 0 < len(calls) <= alg.size**2


def count_closures(monkeypatch) -> list:
    calls = []

    def counting_closure(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(core, "closure", counting_closure)
    return calls


def test_nilpotent_minimum_32_search_stays_polynomial(monkeypatch):
    # 2^15 subalgebras (0, top and any union of pairs {x, neg x}) and 16
    # quantifiers; the search that cuts at decided floors closes at most
    # n^2 sets (136), where the cut at ranks below the start closed 278,528
    alg = relabel(chain("N32"), random.Random("N32"))
    calls = count_closures(monkeypatch)
    assert len(tables(alg)) == 16
    assert 0 < len(calls) <= alg.size**2


def assert_image_search_matches_reference(alg):
    assert tables(alg) == sorted(oracles.image_tables_reference(alg))


@pytest.mark.parametrize("n", range(2, 25))
def test_image_search_matches_reference_on_nilpotent_minimum_chains(n):
    # N_n has ceil(n/2) quantifiers, whose images form a chain
    for alg in (chain(f"N{n}"), relabel(chain(f"N{n}"), random.Random(f"N{n}"))):
        assert_image_search_matches_reference(alg)
        assert len(tables(alg)) == (n + 1) // 2


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_image_search_matches_reference(seed):
    assert_image_search_matches_reference(random_algebra(seed, 18))


# the four 16-element rungs of the benchmark ladder
RUNGS_16 = {
    "L16": lambda: chain("L16"),
    "N16": lambda: chain("N16"),
    "L4xL4": lambda: product_algebra(chain("L4"), chain("L4")),
    "L2^4": lambda: direct_power(chain("L2"), 4),
}


def test_image_search_matches_reference_on_ladder_and_corpus(corpus_entries):
    builders = {**LADDER, **RUNGS_16}
    for name, build in builders.items():
        assert_image_search_matches_reference(relabel(build(), random.Random(name)))
    for entry in corpus_entries:
        assert_image_search_matches_reference(entry.algebra)


def test_image_search_matches_brute_force_on_small_chains():
    for kind in "LGN":
        for n in range(2, 6):
            for alg in (chain(f"{kind}{n}"), relabel(chain(f"{kind}{n}"), random.Random(n))):
                assert tables(alg) == tables(alg, "brute")


def test_closure_reports_the_element_that_stopped_it():
    # closing a closed set with x under floor x stops exactly when the
    # least closed superset holds an element below x outside the set, and
    # the last member it reports is one
    for seed in RANDOM_SEEDS:
        alg = random_algebra(seed, 8)
        table = subalgebra_table(alg)
        n = alg.size
        closed = closed_masks(n, (alg.bottom, alg.top), table)
        for mask in closed:
            for x in range(n):
                if mask >> x & 1:
                    continue
                members = [z for z in range(n) if mask >> z & 1]
                whole = closure(table, (x,), mask, members.copy())
                below = whole & ~mask & ((1 << x) - 1)
                got = closure(table, (x,), mask, members, x)
                if below:
                    assert got is None and below >> members[-1] & 1
                else:
                    assert got == whole


def test_excluded_elements_lie_in_no_set_of_the_subtree():
    # every set in the subtree of a node (S, start) contains S and agrees
    # with it below start; no such closed set holds an excluded element
    exclusions = 0
    for seed in RANDOM_SEEDS:
        alg = random_algebra(seed, 10)
        n, table = alg.size, subalgebra_table(alg)
        nodes = []

        def record(mask, members, start, excluded):
            nodes.append((mask, start, excluded))
            return False

        everything = closed_masks(n, (alg.bottom, alg.top), table)
        assert closed_masks(n, (alg.bottom, alg.top), table, record) == everything
        for mask, start, excluded in nodes:
            exclusions += bin(excluded).count("1")
            low = (1 << start) - 1
            for t in everything:
                if t & mask == mask and t & low == mask & low:
                    assert not t & excluded
    assert exclusions


@pytest.mark.parametrize("seed", range(8), ids=STANDARD_IDS)
def test_enumeration_matches_brute_force(seed):
    alg = random_algebra(seed, 5)
    assert tables(alg) == tables(alg, "brute")


def test_enumeration_matches_brute_force_on_corpus(corpus_entries):
    for entry in corpus_entries:
        alg = entry.algebra
        if alg.size <= 5:
            assert tables(alg) == tables(alg, "brute")


def test_image_simple_matches_subset_oracle_on_corpus(corpus_entries):
    for entry in corpus_entries:
        assert_image_simple_matches_oracle(entry.algebra)


def assert_ucongruences_match_oracle(q):
    assert enumerate_ucongruences(q) == oracles.ucongruences_partition_oracle(q)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_ucongruences_match_partition_oracle(seed):
    alg = random_algebra(seed, 7)
    quantifiers = enumerate_quantifiers(alg)
    # the identity respects every congruence, so the whole congruence
    # lattice the quantifiers share is checked too
    assert tuple(alg.elements) in [uq.table for uq in quantifiers]
    for uq in quantifiers:
        assert_ucongruences_match_oracle(UMTLAlgebra(alg, uq))


def test_ucongruences_match_partition_oracle_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_ucongruences_match_oracle(q)


def blocks_of(c) -> list[frozenset[int]]:
    """The classes of a congruence held as least-member tuple."""
    return [frozenset(x for x, r in enumerate(c) if r == root) for root in sorted(set(c))]


def assert_congruence_order_matches_blockwise(q):
    congruences = enumerate_ucongruences(q)
    for c1, c2 in itertools.product(congruences, repeat=2):
        blockwise = all(any(b1 <= b2 for b2 in blocks_of(c2)) for b1 in blocks_of(c1))
        assert ana._congruence_leq(c1, c2) == blockwise


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_congruence_order_matches_blockwise(seed):
    # the identity respects every congruence of the algebra
    alg = random_algebra(seed, 7)
    assert_congruence_order_matches_blockwise(make_umtl(alg, tuple(alg.elements)))


def test_congruence_order_matches_blockwise_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_congruence_order_matches_blockwise(q)


def assert_filter_congruences_match_partition_oracle(q):
    top = q.algebra.top
    by_top_class = {
        frozenset(x for x, r in enumerate(c) if r == c[top]): c
        for c in oracles.ucongruences_partition_oracle(q)
    }
    for u in flt.enumerate_ufilters(q):
        c = by_top_class[u.members]
        assert flt.congruence_of_filter(q, u.members) == c
        if u.is_proper():
            assert list(flt.quotient(q, u.members).classes) == blocks_of(c)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_filter_congruences_match_partition_oracle(seed):
    alg = random_algebra(seed, 7)
    for uq in enumerate_quantifiers(alg):
        assert_filter_congruences_match_partition_oracle(UMTLAlgebra(alg, uq))


def test_filter_congruences_match_partition_oracle_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_filter_congruences_match_partition_oracle(q)


@pytest.mark.parametrize("name", ["L3xL3", "G3xL3"])
def test_ucongruences_match_partition_oracle_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    assert alg.size == 9
    for uq in enumerate_quantifiers(alg):
        assert_ucongruences_match_oracle(UMTLAlgebra(alg, uq))


@pytest.mark.parametrize("name", ["G12", "N12"])
def test_ucongruences_match_all_pairs_oracle_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    assert alg.size == 12
    for uq in enumerate_quantifiers(alg):
        q = UMTLAlgebra(alg, uq)
        assert enumerate_ucongruences(q) == oracles.ucongruences_all_pairs_oracle(q)


@pytest.mark.parametrize("tag", ["G3", "G4", "L3", "L4"])
def test_ucongruences_match_partition_oracle_on_every_unary_map(tag):
    alg = chain(tag)
    for table in itertools.product(alg.elements, repeat=alg.size):
        assert_ucongruences_match_oracle(oracles.unchecked_pair(alg, table))


def boolean_16():
    l2 = chain("L2")
    return product_algebra(product_algebra(product_algebra(l2, l2), l2), l2)


def test_ucongruences_do_not_depend_on_the_order_of_quantifiers():
    # the quantifier asked first builds the shared lattice: forward and
    # reverse order on one algebra object each, and a fresh object per
    # quantifier, must agree
    forward_alg, reverse_alg = boolean_16(), boolean_16()
    tables = [uq.table for uq in enumerate_quantifiers(forward_alg)]
    assert len(tables) == 15
    forward = {t: enumerate_ucongruences(make_umtl(forward_alg, t)) for t in tables}
    reverse = {t: enumerate_ucongruences(make_umtl(reverse_alg, t)) for t in tables[::-1]}
    fresh = {t: enumerate_ucongruences(make_umtl(boolean_16(), t)) for t in tables}
    assert reverse == forward
    assert fresh == forward
    assert len({len(c) for c in forward.values()}) > 1


def test_ucongruences_share_one_congruence_lattice_per_algebra():
    alg = product_algebra(chain("L3"), chain("G3"))
    first, second = (make_umtl(alg, uq.table) for uq in enumerate_quantifiers(alg)[:2])
    assert "congruences" not in alg.cache
    enumerate_ucongruences(first)
    lattice = alg.cache["congruences"]
    enumerate_ucongruences(second)
    assert alg.cache["congruences"] is lattice


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
        assert_ufilters_match_oracle(oracles.unchecked_pair(alg, table))


def assert_filters_match_close_by_one(alg):
    assert flt.enumerate_filters(alg) == oracles.filters_close_by_one(alg)
    for uq in enumerate_quantifiers(alg):
        q = UMTLAlgebra(alg, uq)
        assert flt.enumerate_ufilters(q) == oracles.filters_close_by_one(alg, q.forall)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_filters_match_close_by_one_on_ladder(name):
    assert_filters_match_close_by_one(relabel(LADDER[name](), random.Random(name)))


def direct_power(alg, k):
    out = alg
    for _ in range(k - 1):
        out = product_algebra(out, alg)
    return out


# 64 elements, beyond the 2^n subset scans: 203, 22 and 6 quantifiers
LARGE = {
    "L2^6": lambda: direct_power(chain("L2"), 6),
    "L4^3": lambda: direct_power(chain("L4"), 3),
    "L8xL8": lambda: direct_power(chain("L8"), 2),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_filters_match_close_by_one_at_64_elements(name):
    alg = LARGE[name]()
    assert alg.size == 64
    assert_filters_match_close_by_one(alg)


def test_filter_enumerations_compute_no_closure(monkeypatch):
    alg = relabel(LADDER["G4+L4+N4"](), random.Random("G4+L4+N4"))
    quantifiers = enumerate_quantifiers(alg)
    assert "filters" not in alg.cache

    def refuse(*args, **kwargs):
        raise AssertionError("a closure was computed")

    for module, name in ((core, "closure"), (core, "closed_masks"), (flt, "closure")):
        monkeypatch.setattr(module, name, refuse)
    assert len(flt.enumerate_filters(alg)) > 2
    for uq in quantifiers:
        assert flt.enumerate_ufilters(UMTLAlgebra(alg, uq))


def assert_closure_is_least_closed_superset(n, base, table):
    closed = closed_masks(n, base, table)
    seeds = [(x,) for x in range(n)] + list(itertools.combinations(range(n), 2))
    for seed in seeds:
        seed = (*base, *seed)
        want = (1 << n) - 1
        for m in closed:
            if all(m >> x & 1 for x in seed):
                want &= m
        assert closure(table, seed) == want


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_closure_is_the_least_closed_set_holding_the_seed(seed):
    alg = random_algebra(seed, 8)
    n = alg.size
    assert_closure_is_least_closed_superset(n, (alg.top,), flt.filter_table(alg))
    assert_closure_is_least_closed_superset(
        n, (alg.bottom, alg.top), subalgebra_table(alg)
    )
    for uq in enumerate_quantifiers(alg):
        table = flt.filter_table(alg, uq.table)
        assert_closure_is_least_closed_superset(n, (alg.top,), table)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_generated_filters_match_formula(seed):
    alg = random_algebra(seed, 8)
    seeds = [{x} for x in alg.elements]
    seeds += [{x, y} for x, y in itertools.combinations(alg.elements, 2)]
    pairs = [UMTLAlgebra(alg, uq) for uq in enumerate_quantifiers(alg)]
    for s in seeds:
        got = flt.generated_filter(alg, s).members
        assert got == oracles.generated_filter_formula(alg, s)
        for q in pairs:
            got = flt.generated_ufilter(q, s).members
            assert got == oracles.generated_ufilter_formula(q, s)


def assert_quotients_match_validated(q):
    """The quotient by every proper U-filter, built by collapsing tables on
    class representatives, equals the one `core.validate` and
    `validate_quantifier` build from its odot, arrow and quantifier
    tables, and its class map is a U-homomorphism, which is what shows
    every operation well defined on the classes."""
    for u in flt.enumerate_ufilters(q):
        if not u.is_proper():
            continue
        res = flt.quotient(q, u.members)
        got = res.quotient
        alg = got.algebra
        want = validate(alg.size, alg.odot, alg.arrow, alg.top, alg.names)
        assert (alg, alg.leq, alg.meet, alg.join) == (want, want.leq, want.meet, want.join)
        assert got.quantifier == validate_quantifier(want, got.forall)
        assert ana.is_u_homomorphism(res.class_map, q, got) == (True, None)


def test_quotients_match_validated_build_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_quotients_match_validated(q)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_quotients_match_validated_build(seed):
    alg = random_algebra(seed, 10)
    for uq in enumerate_quantifiers(alg):
        assert_quotients_match_validated(UMTLAlgebra(alg, uq))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_quotients_match_validated_build_on_ladder(name):
    alg = relabel(LADDER[name](), random.Random(name))
    for uq in enumerate_quantifiers(alg):
        assert_quotients_match_validated(UMTLAlgebra(alg, uq))


def assert_quotient_simplicity_matches_is_simple(q):
    """On every proper-U-filter quotient, the principal U-filter closures
    that `audit_quotient_simplicity` runs decide what `is_simple` does."""
    for u in flt.enumerate_ufilters(q):
        if u.is_proper():
            quot = flt.quotient(q, u.members).quotient
            whole = frozenset(quot.algebra.elements)
            got = ana._subalgebra_filters_trivial(quot.algebra, whole, quot.forall)
            assert got == ana.is_simple(quot).simple


def test_quotient_simplicity_matches_is_simple_on_corpus(corpus_entries):
    for q in corpus_pairs(corpus_entries):
        assert_quotient_simplicity_matches_is_simple(q)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_quotient_simplicity_matches_is_simple(seed):
    alg = random_algebra(seed, 10)
    for uq in enumerate_quantifiers(alg):
        assert_quotient_simplicity_matches_is_simple(UMTLAlgebra(alg, uq))


def on_own_copy(q: UMTLAlgebra) -> UMTLAlgebra:
    """`q` on a copy of its algebra that starts with an empty cache."""
    a = q.algebra
    alg = validate(a.size, a.odot, a.arrow, a.top, a.names)
    return UMTLAlgebra(alg, q.quantifier, q.name)


FULL_CATALOG = SchemaCatalog.mmtl(extensions=("INV", "WNM", "MV", "EM"))


def with_constant_maps(pairs) -> list[UMTLAlgebra]:
    """`pairs`, then the constant bottom and top maps on each algebra."""
    pool = list(pairs)
    for alg in {id(q.algebra): q.algebra for q in pairs}.values():
        pool += [oracles.unchecked_pair(alg, (x,) * alg.size) for x in (alg.bottom, alg.top)]
    return pool


def assert_sharing_changes_no_entry(pairs):
    alone = [on_own_copy(q) for q in pairs]
    assert len({id(q.algebra) for q in alone}) == len(pairs)
    shared = ana.theorem_audit(pairs)
    assert [e.as_dict() for e in shared] == [e.as_dict() for e in ana.theorem_audit(alone)]
    # the constant maps are no quantifiers: they fail M2b or M1, which
    # every quantifier passes, so a modal verdict shared between the
    # tables of one algebra shows
    pool = with_constant_maps(pairs)
    report = soundness_audit(pool, FULL_CATALOG)
    assert not report.all_valid
    assert report == soundness_audit([on_own_copy(q) for q in pool], FULL_CATALOG)


def test_shared_audits_match_unshared_on_corpus(corpus_entries):
    assert_sharing_changes_no_entry(corpus_pairs(corpus_entries))


@pytest.mark.parametrize("seed", RANDOM_SEEDS, ids=STANDARD_IDS)
def test_shared_audits_match_unshared(seed):
    alg = random_algebra(seed, 8)
    pairs = [UMTLAlgebra(alg, uq) for uq in enumerate_quantifiers(alg)]
    assert_sharing_changes_no_entry(pairs)


def power(f, k: int):
    """f & f & ... & f, k times."""
    return f if k == 1 else And(f, power(f, k - 1))


# Patterns that fail on most algebras, each with the extension guard,
# `forall` reading and leaves of one schema group of the catalog, so that
# several goals of one shared program fail, at different ranks.
FAILING = {
    "F-meet": Min(A, Min(B, C)),  # at rank 0, with A1 A7 A8 A9
    "F-cut": Impl(Impl(A, B), Impl(C, B)),  # where C lies above A and B
    "F-chain": Impl(A, Impl(B, C)),  # where A & B lies above C
    # on L11, A & ... & A (10 times) is top at A = top and bottom below;
    # so this fails first at rank 1298, alpha = top, beta = 8, gamma = 0
    "F-late": Min(neg(And(power(A, 10), power(B, 4))), Impl(C, C)),
    # with modus ponens over (beta, alpha): on a Lukasiewicz chain its
    # least witness in that order is not the least in (alpha, beta) order
    "F-swap": Impl(B, neg(A)),
    "F-up": Impl(A, Box(A)),  # with M1 and necessitation
    "F-box": Impl(Box(A), Box(B)),  # with M2a-M3b
    "F-box-low": Min(Box(A), B),  # at rank 0, with M2a-M3b
}
FAILING_CATALOG = SchemaCatalog(FULL_CATALOG.schemas + tuple(FAILING.items()))


def assert_soundness_matches_reference(pool, catalog) -> semantics.SoundnessReport:
    report = soundness_audit(pool, catalog)
    assert report == oracles.soundness_audit_reference(pool, catalog)
    return report


def test_soundness_audit_matches_reference_on_corpus(corpus_entries):
    pool = with_constant_maps(corpus_pairs(corpus_entries))
    assert not assert_soundness_matches_reference(pool, FULL_CATALOG).all_valid
    assert_soundness_matches_reference(pool, FAILING_CATALOG)


def test_soundness_entries_follow_the_pool_order(corpus_entries):
    # the audit sweeps one group at a time; its entries still go pair by
    # pair, in the order the pool gives, and catalog order within a pair
    pool = with_constant_maps(corpus_pairs(corpus_entries))[::-1]
    report = assert_soundness_matches_reference(pool, FAILING_CATALOG)
    assert report.entries[0].algebra_label == pool[0].label()
    assert report.entries[-1].algebra_label == pool[-1].label()


def test_soundness_audit_of_no_pairs_is_empty_and_sound():
    assert soundness_audit([], FULL_CATALOG) == semantics.SoundnessReport((), True, True)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_soundness_audit_matches_reference(seed):
    alg = random_algebra(seed, 8)
    pool = with_constant_maps([UMTLAlgebra(alg, uq) for uq in enumerate_quantifiers(alg)])
    report = assert_soundness_matches_reference(pool, FAILING_CATALOG)
    # goals of one group fail with different least witnesses
    for q in pool:
        witnesses = {
            e.countervaluation
            for e in report.entries
            if e.algebra_label == q.label() and e.schema_id in ("F-meet", "F-chain")
        }
        assert len(witnesses) == 2


def patched_blocks(monkeypatch, cap: int, block: int) -> list[tuple[int, int, int]]:
    """Patch the block rule's cap (`MAX_BLOCK`) and fallback (`BLOCK`), and
    record the carrier size, leaf count and size of every block a sweep
    evaluates from then on."""
    monkeypatch.setattr(semantics, "MAX_BLOCK", cap)
    monkeypatch.setattr(semantics, "BLOCK", block)
    used = []
    masks = semantics.Program.masks

    def recording(program, q, leaf_masks, full):
        used.append((q.algebra.size, len(leaf_masks), full.bit_length()))
        return masks(program, q, leaf_masks, full)

    monkeypatch.setattr(semantics.Program, "masks", recording)
    return used


def assert_blocks_follow_the_rule(used, cap: int, block: int):
    """Every block holds at most the valuations the rule gives n and k,
    the largest n^m (m <= k) up to the cap or else the fallback, and some
    sweep of more valuations than that ran blocks of exactly that size."""

    def rule(n, k):
        power = max(n**m for m in range(k + 1) if n**m <= cap)
        return power if power >= min(block, n**k) else block

    assert all(size <= rule(n, k) for n, k, size in used)
    assert any(size == rule(n, k) < n**k for n, k, size in used)


# (cap, fallback): a cap of one runs every sweep in blocks of the fallback,
# smaller than, coprime to or a power of the carrier sizes; a fallback of
# one runs blocks of the largest power of n up to the cap
SMALL_BLOCKS = [(1, 1), (1, 5), (1, 7), (1, 36), (8, 1), (36, 1)]
SMALL_BLOCK_IDS = [str(b) if cap == 1 else f"powers-to-{cap}" for cap, b in SMALL_BLOCKS]


@pytest.mark.parametrize("cap, block", SMALL_BLOCKS, ids=SMALL_BLOCK_IDS)
def test_soundness_audit_matches_reference_with_small_blocks(
    corpus_entries, monkeypatch, cap, block
):
    # goals of one program close in different blocks, and a failing goal
    # stays closed while the sweep goes on for the valid ones
    used = patched_blocks(monkeypatch, cap, block)
    pool = with_constant_maps(corpus_pairs(corpus_entries))[::4]
    assert_soundness_matches_reference(pool, FAILING_CATALOG)
    assert_blocks_follow_the_rule(used, cap, block)


def assert_goals_close_in_different_blocks(used, size: int):
    """F-meet fails in the first block of L11 over three metavariables,
    F-late in a later one, and the valid schemas are swept through all of
    them, in blocks of `size` valuations."""
    alg = chain("L11")
    pool = [UMTLAlgebra(alg, uq) for uq in enumerate_quantifiers(alg)][:2]
    report = assert_soundness_matches_reference(pool, FAILING_CATALOG)
    witnesses = {
        e.schema_id: e.countervaluation
        for e in report.entries
        if e.algebra_label == pool[0].label()
    }
    assert witnesses["F-meet"] == (("alpha", 0), ("beta", 0), ("gamma", 0))
    assert witnesses["F-late"] == (("alpha", 10), ("beta", 8), ("gamma", 0))
    assert 10 * 11**2 + 8 * 11 >= size
    assert max(s for n, k, s in used if (n, k) == (11, 3)) == size
    assert witnesses["A1"] is None


def test_soundness_goals_close_in_different_blocks(monkeypatch):
    # under a cap of 11**2 the 11**3 valuations run in two blocks of the
    # fallback 1296
    assert_goals_close_in_different_blocks(patched_blocks(monkeypatch, 11**2, 1296), 1296)


def test_soundness_goals_close_in_different_aligned_blocks(monkeypatch):
    # with no fallback they run in 11 blocks of 11**2
    assert_goals_close_in_different_blocks(patched_blocks(monkeypatch, 11**2, 1), 11**2)


def random_formula(rnd: random.Random, depth: int, k: int):
    """A formula over p0..p{k-1} with bot, the primitives and the `|` and
    `neg` sugar, so some subtrees are shared objects."""
    if depth == 0 or rnd.random() < 0.25:
        return Var(rnd.randrange(k)) if rnd.random() < 0.9 else Bot()
    kind = rnd.randrange(6)
    if kind == 0:
        return Box(random_formula(rnd, depth - 1, k))
    if kind == 1:
        return neg(random_formula(rnd, depth - 1, k))
    left, right = (random_formula(rnd, depth - 1, k) for _ in range(2))
    return (Impl, And, Min, lor)[kind - 2](left, right)


def random_goal(rnd: random.Random, k: int):
    """A conclusion and zero to two premises over p0..p{k-1}; the
    conclusion is often a two-valued tautology, so refutations land past
    the Boolean pair."""
    t = random_formula(rnd, 3, k)
    conclusion = rnd.choice([t, lor(t, neg(t)), Impl(neg(neg(t)), t), Impl(t, Box(t))])
    premises = tuple(random_formula(rnd, 2, k) for _ in range(rnd.randrange(3)))
    return premises, conclusion


def assert_searches_match_tree_walk(pool, premises, conclusion):
    expected = oracles.first_refutation_tree_walk(pool, premises, conclusion)
    goal = RuleInstance(premises, conclusion) if premises else conclusion
    hit = countermodel_search(goal, pool)
    if expected is None:
        k = len({v for f in (conclusion, *premises) for v in variables_of(f)})
        assert hit == SearchExhausted(len(pool), sum(q.algebra.size**k for q in pool))
    else:
        index, valuation, value = expected
        assert hit == Countermodel(
            index, pool[index].label(), tuple(sorted(valuation.items())), value
        )
    for index, q in enumerate(pool):
        verdict = consequence(q, premises, conclusion)
        want = oracles.first_refutation_tree_walk([q], premises, conclusion)
        if want is None:
            assert verdict.valid
        else:
            assert (verdict.valid, verdict.countervaluation, verdict.value) == (False, *want[1:])
    return expected


@pytest.fixture(scope="module")
def formula_pool(corpus_entries):
    pool = corpus_pairs(corpus_entries)
    assert len(pool) == 25
    return pool


# Carriers of 8 to 16 elements: 1296 = 6^4 is a multiple of none of 8^3,
# 9^3 and 16^2, so real blocks start part way through the period of a leaf.
LARGER = {
    "L4xL2": lambda: product_algebra(chain("L4"), chain("L2")),
    "G3xL3": lambda: product_algebra(chain("G3"), chain("L3")),
    "G3+L3+N4": lambda: ordinal_sum(chain("G3"), chain("L3"), chain("N4")),
    "L4xL4": lambda: product_algebra(chain("L4"), chain("L4")),
}


@pytest.fixture(scope="module")
def larger_pool():
    """Each LARGER algebra, relabelled, with its non-identity quantifier
    of most distinct values."""
    pool = []
    for name, build in LARGER.items():
        alg = relabel(build(), random.Random(name))
        uq = max(
            (uq for uq in enumerate_quantifiers(alg) if uq.table != tuple(alg.elements)),
            key=lambda uq: len(set(uq.table)),
        )
        pool.append(make_umtl(alg, uq.table, name=f"{name}+{','.join(map(str, uq.table))}"))
    return pool


def test_eval_formula_matches_tree_walk(formula_pool, larger_pool):
    rnd = random.Random(6)
    for pool in (formula_pool, larger_pool):
        for _ in range(200):
            q = rnd.choice(pool)
            k = rnd.randint(1, 4)
            f = random_formula(rnd, 5, k)
            valuation = {v: rnd.randrange(q.algebra.size) for v in range(k)}
            assert eval_formula(q, valuation, f) == oracles.eval_formula_tree(q, valuation, f)
            # one variable short or out of the carrier: the same value, or
            # the same error
            missing = dict(valuation)
            del missing[rnd.randrange(k)]
            outside = dict(valuation)
            outside[rnd.randrange(k)] = rnd.choice([-1, q.algebra.size, 99, None])
            for broken in (missing, outside):

                def outcome(evaluate):
                    try:
                        return evaluate(q, broken, f)
                    except ValueError as exc:
                        return str(exc)

                assert outcome(eval_formula) == outcome(oracles.eval_formula_tree)


@pytest.mark.parametrize("text, value", [("p0", 99), ("box p0", -1), ("p0 -> p0", 99)])
def test_tree_walk_rejects_values_outside_the_carrier(text, value):
    q = make_umtl(chain("L2"), (0, 1), name="boolean-2+01")
    message = f"valuation gives p0 the value {value}, not an element of 0..1"
    for evaluate in (eval_formula, oracles.eval_formula_tree):
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(q, {0: value}, parse_formula(text))


@pytest.mark.parametrize("seed", range(4))
def test_searches_match_tree_walk(formula_pool, larger_pool, seed):
    rnd = random.Random(f"searches/{seed}")
    for pool in (formula_pool, larger_pool):
        hits = 0
        for _ in range(12):
            premises, conclusion = random_goal(rnd, rnd.randint(1, 4))
            hits += assert_searches_match_tree_walk(pool, premises, conclusion) is not None
        assert 0 < hits < 12


@pytest.mark.parametrize("cap, block", SMALL_BLOCKS, ids=SMALL_BLOCK_IDS)
def test_searches_match_tree_walk_with_small_blocks(
    formula_pool, larger_pool, monkeypatch, cap, block
):
    # small blocks put first refutations in later blocks and at every
    # offset inside one; at most 3 variables on the larger carriers keep
    # the sweeps of one-bit blocks short
    used = patched_blocks(monkeypatch, cap, block)
    rnd = random.Random(f"blocks/{cap}/{block}")
    for pool, most in ((formula_pool, 4), (larger_pool, 3)):
        for _ in range(10):
            premises, conclusion = random_goal(rnd, rnd.randint(1, most))
            assert_searches_match_tree_walk(pool, premises, conclusion)
    assert_blocks_follow_the_rule(used, cap, block)


# On the Goedel chain G6 (values 0 < ... < 5, neg x = 5 if x = 0 else 0,
# p & neg p = 0) each goal's first refutation has a known rank next to the
# first or second block boundary: over p0..p5 the module's own rule runs
# blocks of 6^5 valuations, and over p0..p4 a cap of 6^4 runs blocks of
# 6^4.
AROUND_BLOCKS = [
    ((1, 2, 3, 4), "p0", (0, 5, 5, 5, 5)),  # rank 1295
    ((), "neg p0 | (neg p1 & p1 & p2 & p3 & p4)", (1, 0, 0, 0, 0)),  # 1296
    ((), "neg p0 | neg p4 | (neg p1 & p1 & p2 & p3)", (1, 0, 0, 0, 1)),  # 1297
    ((1, 2, 3, 4), "neg p0", (1, 5, 5, 5, 5)),  # 2591
    ((1, 2, 3, 4, 5), "p0", (0, 5, 5, 5, 5, 5)),  # 7775
    ((), "neg p0 | (neg p1 & p1 & p2 & p3 & p4 & p5)", (1, 0, 0, 0, 0, 0)),  # 7776
    ((), "neg p0 | neg p5 | (neg p1 & p1 & p2 & p3 & p4)", (1, 0, 0, 0, 0, 1)),  # 7777
    ((1, 2, 3, 4, 5), "neg p0", (1, 5, 5, 5, 5, 5)),  # 15551
]


@pytest.mark.parametrize("premises, text, digits", AROUND_BLOCKS)
def test_first_refutation_around_block_boundaries(monkeypatch, premises, text, digits):
    k = len(digits)
    cap = 6**4 if k == 5 else semantics.MAX_BLOCK
    used = patched_blocks(monkeypatch, cap, semantics.BLOCK)
    q = make_umtl(chain("G6"), tuple(range(6)), name="goedel-6+012345")
    theory = tuple(Var(v) for v in premises)
    expected = assert_searches_match_tree_walk([q], theory, parse_formula(text))
    assert expected is not None
    _index, valuation, _value = expected
    assert tuple(valuation[v] for v in range(k)) == digits
    assert {size for _, _, size in used} == {6 ** (k - 1)}


@pytest.mark.parametrize("links", range(1, 9))
def test_or_chains_match_tree_walk(formula_pool, links):
    operands = ["p0", "box p1", "neg p0"]
    text = " | ".join(operands[i % 3] for i in range(links))
    f = parse_formula(text)
    for q in formula_pool[::6]:
        for x in q.algebra.elements:
            for y in q.algebra.elements:
                assert eval_formula(q, {0: x, 1: y}, f) == oracles.eval_formula_tree(
                    q, {0: x, 1: y}, f
                )
    assert_searches_match_tree_walk(formula_pool, (), f)


def compile_cases() -> list[tuple]:
    """Formula tuples to compile: each catalog check (conclusion, then
    premises), each bundled proof's formulas alone and together, random
    goals and formulas, and flat `|` chains."""
    cases = [(pattern,) for _, pattern in FAILING_CATALOG.schemas]
    cases += [(rule.conclusion, *rule.premises) for rule in (MP, NEC)]
    for path in sorted(corpus.proofs_dir().glob("*.prf")):
        proof = proofs.parse_proof_text(path.read_text(encoding="utf-8"))
        formulas = [f for _, f in proof.theory] + [step.formula for step in proof.steps]
        cases += [(f,) for f in formulas] + [tuple(formulas)]
    rnd = random.Random("compile")
    for _ in range(200):
        premises, conclusion = random_goal(rnd, rnd.randint(1, 4))
        cases += [(conclusion, *premises), (random_formula(rnd, 5, rnd.randint(1, 4)),)]
    operands = ["p0", "box p1", "neg p0"]
    for links in range(1, 30):
        cases.append((parse_formula(" | ".join(operands[i % 3] for i in range(links))),))
    return cases


def test_compile_matches_reference():
    for formulas in compile_cases():
        program = compile_formulas(formulas)
        assert program._asdict() == oracles.compile_formulas_reference(formulas)._asdict()


def test_identity_equality_matches_the_structural_walk():
    rnd = random.Random("same-tree")
    outcomes = Counter()
    for _ in range(2000):
        # small formulas over two variables, so that many pairs are equal
        f, g = (random_formula(rnd, rnd.randint(0, 2), 2) for _ in range(2))
        same = oracles.same_tree_reference(f, g)
        assert (f == g) is (f is g) is same
        outcomes[same] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100
    operands = ["p0", "box p1", "neg p0", "p1"]
    chains = [
        parse_formula(" | ".join(operands[i % k] for i in range(links)))
        for k in (1, 2, 4)
        for links in (1, 2, 15, 30)
    ]
    for f, g in itertools.product(chains, repeat=2):
        assert (f is g) is oracles.same_tree_reference(f, g)
    for f in chains + [random_formula(rnd, 5, 3) for _ in range(100)]:
        for node in dag_nodes(f):
            kids = children(node)
            if kids:
                rebuilt = type(node)(*kids)
            else:
                rebuilt = type(node)(*(getattr(node, k) for k in node.__match_args__))
            assert rebuilt is node and oracles.same_tree_reference(rebuilt, node)


def dag_nodes(f) -> list:
    """The distinct node objects of `f`."""
    seen, stack = {}, [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            stack.extend(children(g))
    return list(seen.values())


def dag_shape(f):
    """The distinct node objects of `f`, numbered in post-order, each with
    its class and its children's numbers, or its own repr for a leaf: two
    trees have the same shape iff they are equal and share the same
    subtrees."""
    number = {}  # by id(): `f` keeps every node alive
    rows = []

    def visit(g):
        if id(g) not in number:
            if isinstance(g, Box):
                kids = (visit(g.arg),)
            elif isinstance(g, (Impl, And, Min)):
                kids = (visit(g.left), visit(g.right))
            else:
                kids = repr(g)
            rows.append((type(g).__name__, kids))
            number[id(g)] = len(rows) - 1
        return number[id(g)]

    visit(f)
    return tuple(rows)


def parse_outcome(parse, text):
    try:
        return dag_shape(parse(text))
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


def assert_parsers_agree(text):
    expected = parse_outcome(oracles.parse_formula_reference, text)
    assert parse_outcome(parse_formula, text) == expected, text
    return expected


# words, operators, characters no token starts with (rarer) and gaps;
# pieces with no gap between them can merge, as `p0p1` or `->`
PARSE_PIECES = (
    ["p0", "p1", "p17", "bot", "top", "box", "neg", "P0", "q", "p"]
    + ["(", ")", "(", ")", "&", "^", "|", "->", "<->", "-", ">", "<"]
)
PARSE_BAD = ["@", "0", "é", "!", "~"]
PARSE_GAPS = ["", " ", " ", " ", "  ", "\t", "\u00a0"]


def random_token_text(rnd: random.Random) -> str:
    pieces = []
    for _ in range(rnd.randrange(14)):
        pieces.append(rnd.choice(PARSE_GAPS))
        pieces.append(rnd.choice(PARSE_BAD if rnd.random() < 0.03 else PARSE_PIECES))
    return "".join(pieces) + rnd.choice(PARSE_GAPS)


def random_sugared_formula(rnd: random.Random, depth: int):
    """A formula built with every constructor the printer re-sugars."""
    if depth == 0 or rnd.random() < 0.2:
        return rnd.choice([Var(rnd.randrange(4)), Var(rnd.randrange(4)), Bot(), top()])
    kind = rnd.randrange(8)
    if kind < 2:
        return (Box, neg)[kind](random_sugared_formula(rnd, depth - 1))
    left, right = (random_sugared_formula(rnd, depth - 1) for _ in range(2))
    return (Impl, And, Min, lor, iff, Impl)[kind - 2](left, right)


def test_parser_matches_reference_on_random_token_strings():
    rnd = random.Random(2024)
    texts = [random_token_text(rnd) for _ in range(3000)]
    # printed formulas, some with one token dropped, doubled or replaced
    for _ in range(1000):
        printed = print_formula(random_sugared_formula(rnd, 4))
        words = re.findall(r"<->|->|[&^|()]|\w+", printed)
        at = rnd.randrange(len(words))
        edit = rnd.randrange(4)
        if edit == 0:
            del words[at]
        elif edit == 1:
            words.insert(at, words[at])
        elif edit == 2:
            words[at] = rnd.choice(PARSE_PIECES)
        texts.append(" ".join(words))
    outcomes = [assert_parsers_agree(text) for text in texts]
    errors = [o[0] for o in outcomes if isinstance(o[0], str)]
    for kind in (
        "unexpected character",
        "unexpected token",
        "unknown identifier",
        "unexpected end of formula",
        "expected ')'",
    ):
        assert any(e.startswith(kind) for e in errors), kind
    assert len(outcomes) - len(errors) > 300


# each shape as a function of its unit count, with the levels one unit adds
# to the tree depth or to the nesting of parentheses, prefixes and
# implications
DEPTH_SHAPES = {
    "(": (lambda k: "(" * k + "p0" + ")" * k, 1),
    "box": (lambda k: "box " * k + "p0", 1),
    "neg": (lambda k: "neg " * k + "p0", 1),
    "&": (lambda k: "p0 & " * k + "p0", 1),
    "->": (lambda k: "p0 -> " * k + "p0", 1),
    "<->": (lambda k: "p0 <-> " * k + "p0", 2),
    "|": (lambda k: "p0 | " * k + "p0", 3),
}


def depth_shape_text(shape: str, levels: int) -> str:
    """The shape `levels` levels deep: whole units, with box prefixes for
    the remainder."""
    build, per_unit = DEPTH_SHAPES[shape]
    units, rest = divmod(levels - 1, per_unit)
    return "box " * rest + "(" * (rest > 0) + build(units) + ")" * (rest > 0)


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_parser_matches_reference_around_the_depth_bound(shape):
    for levels in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        outcome = assert_parsers_agree(depth_shape_text(shape, levels))
        too_deep = isinstance(outcome[0], str)
        assert too_deep == (levels > MAX_DEPTH)
        if too_deep:
            assert outcome[0].startswith(f"formula nested more than {MAX_DEPTH} levels")


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_parser_needs_no_recursion():
    # the reference recurses at least once per level, so it gives its
    # outcomes under the default limit; the parser must give them under a
    # limit that leaves far fewer than MAX_DEPTH frames above this one
    for shape in sorted(DEPTH_SHAPES):
        texts = [depth_shape_text(shape, levels) for levels in (MAX_DEPTH, MAX_DEPTH + 1)]
        expected = [parse_outcome(oracles.parse_formula_reference, text) for text in texts]
        error = None
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + MAX_DEPTH // 4)
        try:
            parsed = parse_formula(texts[0])
            try:
                parse_formula(texts[1])
            except FormulaSyntaxError as exc:
                error = str(exc), exc.position
        finally:
            sys.setrecursionlimit(limit)
        assert dag_shape(parsed) == expected[0], shape
        assert error == expected[1], shape


def test_parser_matches_reference_on_bundled_proofs(monkeypatch):
    texts = []
    parse = proofs.parse_formula

    def recording(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(proofs, "parse_formula", recording)
    for path in sorted(corpus.proofs_dir().glob("*.prf")):
        proofs.parse_proof_text(path.read_text(encoding="utf-8"))
    assert len(texts) > 100
    for text in texts:
        assert isinstance(assert_parsers_agree(text)[0], tuple)


def random_parenthesised_text(rnd: random.Random, connectives: int) -> str:
    """A sugared formula with that many connectives, each binary one
    written `(a op b)`, as the benchmark writes its formulas."""
    if connectives == 0:
        return rnd.choice(["p0", "p1", "p2", "p3", "p4", "p5", "top", "bot"])
    op = rnd.choice(["&", "->", "^", "|", "<->", "neg", "box"])
    if op in ("neg", "box"):
        return f"{op} {random_parenthesised_text(rnd, connectives - 1)}"
    left = rnd.randrange(connectives)
    a = random_parenthesised_text(rnd, left)
    b = random_parenthesised_text(rnd, connectives - 1 - left)
    return f"({a} {op} {b})"


def test_parser_matches_reference_on_parenthesised_formulas():
    rnd = random.Random(1973)
    texts = [random_parenthesised_text(rnd, rnd.randint(1, 12)) for _ in range(2000)]
    for op in ("(", "&", "->", "^", "|", "<->", "neg", "box", "top", "bot"):
        assert sum(op in text for text in texts) > 500, op
    for text in texts:
        assert isinstance(assert_parsers_agree(text)[0], tuple), text
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) is f, text


def test_parser_matches_reference_on_printed_formulas():
    rnd = random.Random(7)
    for _ in range(200):
        f = random_sugared_formula(rnd, 5)
        shape = assert_parsers_agree(print_formula(f))
        assert parse_formula(print_formula(f)) == f
        assert isinstance(shape[0], tuple)


def test_or_sides_are_shared_objects():
    f = parse_formula("p0 | box p1")
    # Min(Impl(Impl(a, b), b), Impl(Impl(b, a), a))
    (ab, b), (ba, a) = (f.left.left, f.left.right), (f.right.left, f.right.right)
    assert ab.left is ba.right is a and ab.right is ba.left is b
    # nodes are interned, so each link of a flat chain of one operand adds
    # five node objects (four implications and the meet), and the first
    # link three, as its two sides are one node: fewer than the six per
    # link of a tree that shares only the operands' objects
    links = 30
    distinct = len(dag_shape(parse_formula(" | ".join(["p0"] * (links + 1)))))
    assert distinct == 5 * links - 1 < 6 * links + 1


def _imported_modules(path: Path, package: str) -> set[str]:
    """The absolute names of the modules that a source file in `package`
    imports, `from m import name` counted as importing m and m.name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(m for m in (base, node.module) if m)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def _test_only(module: str) -> bool:
    return any(part == "oracles" or part.startswith("test_") for part in module.split("."))


def test_package_modules_do_not_import_the_oracles():
    # the oracles are test-only, and the fast paths must stay independent
    # of them; the formula evaluator does not depend on the analysis either.
    # The tests put tests/ on sys.path, so a package module that imported
    # the oracles or a test module would pass here and fail once installed
    root = Path(umtl.__file__).parent
    assert not list(root.rglob("oracles.py"))
    imports = {}
    for path in root.rglob("*.py"):
        name = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        name = name.removesuffix(".__init__")
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        imports[name] = _imported_modules(path, package)
    assert "umtl.quantifier" in imports["umtl.analysis"]  # relative imports resolve
    assert "umtl.analysis" in imports["umtl.cli"]  # so do `from . import m` ones
    users = sorted(m for m, found in imports.items() if any(map(_test_only, found)))
    assert users == []
    semantics_imports = imports["umtl.logic.semantics"]
    assert not any(m.startswith("umtl.analysis") for m in semantics_imports)


def test_oracles_import_only_primitives_and_definitions_from_the_package():
    # an oracle that imported a fast path, such as filters.enumerate_filters,
    # would make its cross-check tautological; what the oracles may share is
    # the primitives, the formula and soundness records, and the definitions
    # of a candidate quantifier table
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("umtl") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            if node.module.startswith("umtl"):
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    allowed = {
        "umtl.core": (
            "FiniteMTLAlgebra Violation classify closed_masks closure"
            " first_violations lower_covers"
        ),
        "umtl.filters": "FilterSet filter_table members_of",
        "umtl.logic.formulas": (
            "MAX_DEPTH And Bot Box Formula FormulaSyntaxError Impl MetaVar Min"
            " Var children iff lor neg top variables_of"
        ),
        "umtl.logic.schemas": "A B metavars_of",
        "umtl.logic.semantics": "Program SchemaSoundness SoundnessReport",
        "umtl.quantifier": (
            "UMTLAlgebra UniversalQuantifier quantifier_violations"
            " relativization_table subalgebra_table"
        ),
    }
    assert imported == {f"{m}.{name}" for m, names in allowed.items() for name in names.split()}
