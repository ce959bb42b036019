"""The benchmark's operations, run one per fresh worker process.

Each workload has a `setup` (paid once per worker, reported as setup_s),
a `prepare` that builds the operation's inputs outside the timed region
from a key made of the seed and the pass number, a timed `run` whose
calls into the package go through a tracer, a `check` plus `counts`
computed afterwards from the outputs, and an `extra` that traced passes
run after the operation.
Every call into the package is named after the layer it enters, and that
name becomes the per-layer metric `<name>_s`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from umtl import analysis, audit, cli, core, corpus, quantifier, report
from umtl import filters as flt
from umtl.algfile import load_algebra_file
from umtl.logic import formulas, proofs, schemas, semantics, transform

import inputs

U2 = "standard"
EXTENSIONS = ("INV", "WNM", "MV", "EM")
GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())


def _disagreements(doc: dict) -> list[str]:
    return sorted(
        f"{c['check']}@{c['subject']}" for c in doc["report"]["checks"] if not c["agrees"]
    )


class Workload:
    """`in_process` is set for every pass of a --trace 1 run, so that
    traced and untraced passes time the same code path."""

    def __init__(self, in_process: bool = False):
        self.in_process = in_process

    def setup(self):
        pass

    def extra(self, t, op, data, result) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# cli-audit: `umtl --json <tmp> audit` on the bundled corpus


class CliAudit(Workload):
    def prepare(self, op, key, tmp: Path):
        return tmp / "audit.json"

    def run(self, t, op, out: Path):
        if self.in_process:
            return t.call("op", self._replay, t, out)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--json", str(out), "audit"])

    @staticmethod
    def _replay(t, out: Path) -> int:
        """The audit command through the package's public calls, in the
        order the CLI makes them; it must write the same report."""
        paths = sorted(corpus.corpus_dir().glob("*.alg"))
        entries = []
        for p in paths:
            doc = t.call("corpus.load", load_algebra_file, p)
            alg = t.call("core.validate", _validate_document, doc)
            entries.append(corpus.CorpusEntry(doc.name, alg, doc.forall))
        pairs, rejected = t.call("audit.corpus_pairs", audit.corpus_pairs_with_rejects, entries, U2)
        found = t.call("analysis.theorem_audit", analysis.theorem_audit, pairs, U2)
        found += t.call("audit.fixture_audits", audit.fixture_audits, entries, pairs, U2)
        for name, violations in rejected:
            found.append(
                analysis.AuditEntry(
                    "quantifier-axioms",
                    name,
                    False,
                    {
                        "violations": [
                            {"axiom": v.axiom, "witness": list(v.witness)} for v in violations
                        ],
                        "u2_parse": U2,
                    },
                )
            )
        found.sort(key=lambda e: (e.check, e.subject))
        catalog = schemas.SchemaCatalog.mmtl(U2, extensions=EXTENSIONS)
        sound = t.call("logic.soundness", semantics.soundness_audit, pairs, catalog)
        bundle = audit.AuditBundle(tuple(pairs), tuple(found), sound)
        code = 1 if bundle.disagreements() else 0
        t.call("report.build", _build_and_write, out, [str(p) for p in paths], bundle.as_checks(), code)
        return code

    def check(self, op, out: Path, code) -> list[str]:
        problems = []
        if code not in (0, 1, 2):
            problems.append(f"exit code {code} outside the 0/1/2 contract")
        elif code != 1:
            problems.append(f"exit code {code}, expected 1 (documented disagreements)")
        doc = json.loads(out.read_text())
        if doc["report_digest"] != GOLDEN["audit"]["report_digest"]:
            problems.append(f"report_digest {doc['report_digest']} differs from the pin")
        ids = _disagreements(doc)
        if ids != GOLDEN["audit"]["disagreements"]:
            problems.append(f"disagreement ids differ from the pin: {ids}")
        return problems

    def counts(self, op, out: Path, code) -> dict:
        checks = json.loads(out.read_text())["report"]["checks"]
        sound = next(c for c in checks if c["check"] == "schema-soundness")
        return {
            "audit.entries": len(checks) - 1,
            "audit.disagreements": sum(not c["agrees"] for c in checks),
            "logic.schema_instances": sound["details"]["schema_instances"],
        }


def _validate_document(doc):
    violations = core.check_mtl_tables(doc.size, doc.odot, doc.arrow, doc.top)
    if violations:
        raise core.InvalidAlgebraError(violations)
    return core.validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names)


def _build_and_write(out, inputs_, checks, code):
    report.write_report(out, report.build_report("audit", {"u2_parse": U2}, inputs_, checks, code))


# ---------------------------------------------------------------------------
# structure-ladder: one relabelled rung per operation


def analyse_rung(t, alg):
    """Every structural call the ladder measures, on one algebra.

    Returns a summary that relabelling cannot change (counts and
    verdicts, per-quantifier rows sorted) and the quantifier tables."""
    t.call("core.classify", core.classify, alg)
    qs = t.call("quantifier.enumerate", quantifier.enumerate_quantifiers, alg, U2)
    filters = t.call("filters.enumerate_filters", flt.enumerate_filters, alg)
    t.call("filters.minimal_primes", flt.minimal_primes, alg)
    rows = []
    for uq in qs:
        q = quantifier.UMTLAlgebra(alg, uq)
        ufilters = t.call("filters.enumerate_ufilters", flt.enumerate_ufilters, q)
        maximal = t.call("filters.maximal_ufilters", flt.maximal_ufilters, q)
        t.call("filters.radical", flt.radical, q)
        simple = t.call("analysis.is_simple", analysis.is_simple, q)
        rep = t.call("analysis.is_representable", analysis.is_representable, q)
        strong = t.call("analysis.is_strong", analysis.is_strong, q)
        semi = t.call("analysis.is_semisimple", analysis.is_semisimple, q)
        congruences = None
        if alg.size <= inputs.CONGRUENCE_MAX_SIZE:
            congruences = len(t.call("filters.ucongruences", flt.enumerate_ucongruences, q))
        rows.append(
            [
                len(ufilters),
                len(maximal),
                congruences,
                [
                    simple.ufilters_trivial,
                    simple.image_simple,
                    simple.fixpoints_two_element,
                    simple.unique_proper_ufilter,
                    simple.finite_order_outside_top,
                ],
                rep.representable,
                strong.strong,
                semi.semisimple,
            ]
        )
    summary = {
        "size": alg.size,
        "quantifiers": len(qs),
        "filters": len(filters),
        "pairs": sorted(rows),
    }
    return summary, [q.table for q in qs]


class StructureLadder(Workload):
    def prepare(self, op, key, tmp):
        tables, _perm = inputs.ladder_rung(op, key)
        return tables

    def run(self, t, op, tables):
        return t.call("op", self._rung, t, tables)

    @staticmethod
    def _rung(t, tables):
        alg = t.call("core.validate", core.validate, *tables)
        return (alg, *analyse_rung(t, alg))

    def check(self, op, tables, result) -> list[str]:
        got = json.loads(json.dumps(result[1]))
        pinned = GOLDEN["ladder"][op]
        return [] if got == pinned else [f"{op}: summary {got} differs from the pin {pinned}"]

    def counts(self, op, tables, result) -> dict:
        summary = result[1]
        congruences = [row[2] for row in summary["pairs"] if row[2] is not None]
        return {
            "quantifier.found": summary["quantifiers"],
            "filters.ufilters_found": sum(row[0] for row in summary["pairs"]),
            "filters.ucongruences_found": sum(congruences),
        }

    def extra(self, t, op, tables, result) -> list[str]:
        """Traced pass only, after the operation: the same enumeration with
        two worker processes."""
        alg, _summary, tables_jobs1 = result
        qs = t.call("quantifier.enumerate_jobs2", quantifier.enumerate_quantifiers, alg, U2, "fixpoint", 2)
        same = [q.table for q in qs] == tables_jobs1
        return [] if same else [f"{op}: jobs=2 enumeration differs from jobs=1"]


# ---------------------------------------------------------------------------
# formula-sweep: full validity sweeps, early-exit searches, proofs

# (variables per instance, cycled over the 15 schemas; primitive size of
# each metavariable's formula).  Full sweeps visit n^k valuations, so the
# 8-element pair gets fewer variables to keep both parts comparable.
SWEEP_SHAPE = {"sweep-6": ((3, 4, 5), 7), "sweep-8": ((3, 4), 7)}
# Early exits: goals over 3 or 4 variables, each costing at most EXIT_MOST
# evaluator steps, drawn until they cost EXIT_STEPS together (see
# inputs.early_exit_goals).
EXIT_SIZE = 9
EXIT_VARIABLES = (3, 4)
EXIT_MOST = 250_000
EXIT_STEPS = 1_500_000


def _round_trip(text: str):
    """Parse the sugared text, print it and parse the print."""
    first = formulas.parse_formula(text)
    return first, formulas.parse_formula(formulas.print_formula(first))


def _tables(q) -> tuple:
    a = q.algebra
    return a.size, a.odot, a.arrow, a.meet, q.forall, a.top, a.bottom


def _valuation_rank(valuation, size: int) -> int:
    """Mixed-radix rank of a valuation, last variable fastest."""
    rank = 0
    for _var, value in sorted(valuation.items()):
        rank = rank * size + value
    return rank


class FormulaSweep(Workload):
    def setup(self):
        pool = audit.corpus_pairs(corpus.bundled_corpus(), U2)
        six = next(q for q in pool if q.label() == GOLDEN["formulas"]["six_pair"])
        tables = inputs.rung_tables(("product", "L4", "L2"))
        alg8 = core.validate(*tables)
        plain = {quantifier.identity_table(alg8), quantifier.delta_table(alg8)}
        (uq,) = [q for q in quantifier.enumerate_quantifiers(alg8, U2) if q.table not in plain]
        eight = quantifier.UMTLAlgebra(alg8, uq, "L4xL2+" + "".join(map(str, uq.table)))
        self.ctx = {
            "pool": pool,
            "pool_tables": [_tables(q) for q in pool],
            "sweep-6": six,
            "sweep-8": eight,
            "core": schemas.SchemaCatalog.mmtl(U2),
            "full": schemas.SchemaCatalog.mmtl(U2, extensions=EXTENSIONS),
        }

    def prepare(self, op, key, tmp):
        rnd = random.Random(f"formulas/{key}/{op}")
        if op in SWEEP_SHAPE:
            ks, size = SWEEP_SHAPE[op]
            out = []
            for i, (schema_id, pattern) in enumerate(self.ctx["core"].schemas):
                labels = schemas.metavars_of(pattern)
                k = ks[i % len(ks)]
                texts = inputs.formula_texts(rnd, len(labels), size, k)
                out.append((schema_id, pattern, k, dict(zip(labels, texts))))
            return out
        if op == "exits":
            return inputs.early_exit_goals(
                rnd, self.ctx["pool_tables"], EXIT_SIZE, EXIT_VARIABLES, EXIT_MOST, EXIT_STEPS
            )
        return [p.read_text(encoding="utf-8") for p in sorted(corpus.proofs_dir().glob("*.prf"))]

    def run(self, t, op, data):
        part = self._proofs if op == "proofs" else self._exits if op == "exits" else self._sweep
        return t.call("op", part, t, op, data)

    def _sweep(self, t, op, instances):
        q = self.ctx[op]
        out = []
        for schema_id, pattern, k, texts in instances:
            parsed = {label: t.call("logic.parse", _round_trip, text) for label, text in texts.items()}
            binding = {label: pair[1] for label, pair in parsed.items()}
            f = schemas.instantiate(pattern, binding)
            out.append((schema_id, k, parsed, f, t.call("logic.is_valid", semantics.is_valid, q, f)))
        return out

    def _exits(self, t, op, drawn):
        pool = self.ctx["pool"]
        out = []
        for text, _index, _valuation in drawn:
            pair = t.call("logic.parse", _round_trip, text)
            out.append((pair, t.call("logic.countermodel", semantics.countermodel_search, pair[1], pool)))
        return out

    def _proofs(self, t, op, texts):
        out = []
        for text in texts:
            proof = t.call("logic.parse", proofs.parse_proof_text, text)
            verdict = t.call("logic.check_proof", proofs.check_proof, self.ctx["core"], proof)
            deduced = None
            if proof.theory:
                result = t.call("logic.deduce", transform.deduction_transform, self.ctx["core"], proof, proof.theory[0][0])
                deduced = (result, t.call("logic.check_proof", proofs.check_proof, self.ctx["core"], result.proof))
            out.append((proof, verdict, deduced))
        sound = t.call("logic.soundness", semantics.soundness_audit, self.ctx["pool"], self.ctx["full"])
        return out, sound

    def check(self, op, data, result) -> list[str]:
        problems = []
        if op in SWEEP_SHAPE:
            for schema_id, k, parsed, f, verdict in result:
                if any(first != again for first, again in parsed.values()):
                    problems.append(f"{schema_id}: print/parse round trip changed a formula")
                if formulas.variables_of(f) != tuple(range(k)):
                    problems.append(f"{schema_id}: instance variables {formulas.variables_of(f)}")
                if not verdict.valid:
                    problems.append(f"{schema_id} instance {formulas.print_formula(f)} not valid")
        elif op == "exits":
            pool = self.ctx["pool"]
            if [q.label() for q in pool] != GOLDEN["formulas"]["pool"]:
                problems.append("the bundled pool differs from the pin")
            for ((first, f), hit), (_text, index, valuation) in zip(result, data):
                shown = formulas.print_formula(first)
                if first != f:
                    problems.append(f"round trip changed {shown}")
                if not isinstance(hit, semantics.Countermodel):
                    problems.append(f"no countermodel for {shown}")
                    continue
                q = pool[hit.pool_index]
                value = semantics.eval_formula(q, hit.valuation_dict(), f)
                if value != hit.value or value == q.algebra.top or q.label() != hit.algebra_label:
                    problems.append(f"countermodel for {shown} does not recompute")
                if (hit.pool_index, hit.valuation) != (index, valuation):
                    problems.append(f"{shown}: not the first refutation, pair {index} at {valuation}")
        else:
            checked, sound = result
            for proof, verdict, deduced in checked:
                if not verdict:
                    problems.append(f"{proof.name}: bundled proof rejected")
                if deduced is not None and not deduced[1]:
                    problems.append(f"{proof.name}: deduced proof rejected")
            if len(checked) != GOLDEN["formulas"]["proofs"]:
                problems.append(f"{len(checked)} bundled proofs")
            if not sound.all_valid:
                problems.append("soundness_audit reports an invalid schema")
        return problems

    def counts(self, op, data, result) -> dict:
        if op in SWEEP_SHAPE:
            n = self.ctx[op].algebra.size
            visited = sum(
                n**k if v.valid else _valuation_rank(v.countervaluation, n) + 1
                for _sid, k, _p, _f, v in result
            )
            return {"logic.valuations": visited}
        if op == "exits":
            pool = self.ctx["pool"]
            visited = 0
            for (_first, f), hit in result:
                k = len(formulas.variables_of(f))
                if isinstance(hit, semantics.Countermodel):
                    n = pool[hit.pool_index].algebra.size
                    visited += sum(q.algebra.size**k for q in pool[: hit.pool_index])
                    visited += _valuation_rank(hit.valuation_dict(), n) + 1
                else:
                    visited += hit.valuations_checked
            return {"logic.valuations": visited}
        return {"logic.schema_instances": len(result[1].entries)}

    def extra(self, t, op, data, result) -> list[str]:
        """Traced pass only, after the operation: the early-exit searches
        again with two worker processes."""
        if op != "exits":
            return []
        problems = []
        for (_first, f), hit in result:
            again = t.call("logic.countermodel_jobs2", semantics.countermodel_search, f, self.ctx["pool"], 6, 2)
            if again != hit:
                problems.append(f"jobs=2 search differs on {formulas.print_formula(f)}")
        return problems


WORKLOADS = {
    "cli-audit": CliAudit,
    "structure-ladder": StructureLadder,
    "formula-sweep": FormulaSweep,
}
