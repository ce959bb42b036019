"""Checks of the benchmark's pins and generators against the package's
slow oracles.  These run outside any timed region:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import ops  # noqa: E402
from spans import NullTracer, self_times  # noqa: E402
from umtl import core, quantifier  # noqa: E402
from umtl import filters as flt  # noqa: E402
from umtl.audit import corpus_pairs  # noqa: E402
from umtl.corpus import bundled_corpus  # noqa: E402
from umtl.logic import formulas, semantics  # noqa: E402

RUNGS = [name for name, _ in inputs.LADDER]
# Small members of the ladder's families, where the n^n quantifier scan
# and every 2^n subset scan are affordable.
SMALL = {
    "L2xL2": ("product", "L2", "L2"),
    "L2xG3": ("product", "L2", "G3"),
    "G2+L3+N3": ("ordinal", "G2", "L3", "N3"),
    "N5": ("chain", "nilpotent-minimum", 5),
}


def build(tables):
    return core.validate(*tables)


def inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def test_chain_tables_match_package():
    for kind in ("lukasiewicz", "goedel", "nilpotent-minimum"):
        for n in (2, 5, 8):
            ours = build(inputs.chain_tables(kind, n))
            assert ours.table_key() == core.chain_algebra(kind, n).table_key()


@pytest.mark.parametrize("name", RUNGS)
def test_rung_pin_matches_package_and_filter_oracle(name):
    alg = build(inputs.rung_tables(dict(inputs.LADDER)[name]))
    summary, _tables = ops.analyse_rung(NullTracer(), alg)
    assert json.loads(json.dumps(summary)) == ops.GOLDEN["ladder"][name]
    assert [f.members for f in flt.enumerate_filters(alg)] == [
        f.members for f in flt.enumerate_filters_subset_oracle(alg)
    ]


@pytest.mark.parametrize(
    "name", [n for n in RUNGS if inputs.rung_tables(dict(inputs.LADDER)[n])[0] <= 14]
)
def test_rung_ufilter_counts_match_subset_oracle(name):
    alg = build(inputs.rung_tables(dict(inputs.LADDER)[name]))
    counts = sorted(
        len(flt.enumerate_ufilters_subset_oracle(quantifier.UMTLAlgebra(alg, q)))
        for q in quantifier.enumerate_quantifiers(alg)
    )
    assert counts == sorted(row[0] for row in ops.GOLDEN["ladder"][name]["pairs"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_family_members_agree_with_oracles(name):
    alg = build(inputs.rung_tables(SMALL[name]))
    fast = quantifier.enumerate_quantifiers(alg)
    brute = quantifier.enumerate_quantifiers(alg, method="brute")
    assert [q.table for q in fast] == [q.table for q in brute]
    for q in fast:
        pair = quantifier.UMTLAlgebra(alg, q)
        assert [f.members for f in flt.enumerate_ufilters(pair)] == [
            f.members for f in flt.enumerate_ufilters_subset_oracle(pair)
        ]


@pytest.mark.parametrize("name", ["G4+L4+N4", "G3xL3", "L2^4"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_rung_maps_back_to_the_same_results(name, seed):
    base = build(inputs.rung_tables(dict(inputs.LADDER)[name]))
    tables, perm = inputs.ladder_rung(name, seed)
    alg = build(tables)
    back = build(inputs.relabel(tables, inverse(perm)))
    assert back.table_key() == base.table_key()

    summary, qtables = ops.analyse_rung(NullTracer(), alg)
    assert json.loads(json.dumps(summary)) == ops.GOLDEN["ladder"][name]
    inv = inverse(perm)
    mapped = sorted(tuple(inv[t[perm[x]]] for x in range(alg.size)) for t in qtables)
    assert mapped == [q.table for q in quantifier.enumerate_quantifiers(base)]
    mapped_filters = sorted(
        sorted(frozenset(inv[m] for m in f.members) for f in flt.enumerate_filters(alg)),
        key=sorted,
    )
    assert mapped_filters == sorted(
        sorted(f.members for f in flt.enumerate_filters(base)), key=sorted
    )


def test_formula_sizes_and_variables_follow_the_generator():
    rnd = random.Random(7)
    for k in (3, 4, 5):
        trees, leaves = inputs._draw_trees(rnd, 3, 9, k)
        texts = [inputs._text(inputs._assign(t, inputs._leaf_variables(rnd, leaves, k))) for t in trees]
        for tree, text in zip(trees, texts):
            assert node_count(formulas.parse_formula(text)) == inputs._primitive_size(tree)
    texts = inputs.formula_texts(random.Random(3), 3, 7, 5)
    assert texts == inputs.formula_texts(random.Random(3), 3, 7, 5)
    found = set()
    for text in texts:
        found.update(formulas.variables_of(formulas.parse_formula(text)))
    assert found == set(range(5))


def node_count(f) -> int:
    return 1 + sum(node_count(getattr(f, a)) for a in ("left", "right", "arg") if hasattr(f, a))


def test_early_exit_goals_stop_at_the_stated_refutation():
    pool = corpus_pairs(bundled_corpus())
    assert [q.label() for q in pool] == ops.GOLDEN["formulas"]["pool"]
    tables = [ops._tables(q) for q in pool]
    goals = inputs.early_exit_goals(random.Random(11), tables, 9, (3, 4), 250_000, 300_000)
    assert len(goals) > 5
    for text, index, valuation in goals:
        f = formulas.parse_formula(text)
        assert index >= 1  # two-valued tautologies: the Boolean pair never refutes them
        assert formulas.variables_of(f) == tuple(range(len(valuation)))
        hit = semantics.countermodel_search(f, pool)
        assert (hit.pool_index, hit.valuation) == (index, valuation)
        assert all(semantics.is_valid(q, f).valid for q in pool[:index])


def test_audit_pin_matches_cli_for_any_job_count():
    (BENCH / "out").mkdir(exist_ok=True)
    for jobs in ("1", "2", "8"):
        out = BENCH / "out" / f"test-audit-jobs{jobs}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "umtl.cli", "--jobs", jobs, "--json", str(out), "audit"],
            cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["report_digest"] == ops.GOLDEN["audit"]["report_digest"]
        assert ops._disagreements(doc) == ops.GOLDEN["audit"]["disagreements"]


def test_self_time_subtracts_the_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [("op", 6.0), ("a", 2.0), ("b", 1.0), ("c", 1.0)]
