"""Command-line front end.

Exit codes: 0 success/confirmed, 1 property fails or countermodel found
(still a successful run), 2 input error.  `--json` writes the structured
report; identical invocations write identical reports (timings are off by
default and live outside the digested region).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import analysis as ana
from . import filters as flt
from . import hasse, report
from .algfile import AlgebraFileError, load_algebra_file
from .audit import corpus_pairs_with_rejects, pair_name, run_corpus_audit
from .core import (
    FiniteMTLAlgebra,
    InvalidAlgebraError,
    classify,
    validate,
)
from .corpus import CorpusEntry, corpus_dir
from .logic.formulas import FormulaSyntaxError, parse_formula, print_formula
from .logic.proofs import ProofFileError, check_proof, parse_proof_text, print_proof
from .logic.schemas import RULE_SHAPES, RuleInstance, SchemaCatalog
from .logic.semantics import (
    Countermodel,
    VariableBudgetError,
    countermodel_search,
    element_names,
    pool_validity,
)
from .logic.transform import deduction_transform
from .quantifier import (
    InvalidQuantifierError,
    delta_table,
    enumerate_quantifiers,
    identity_table,
    make_umtl,
    quantifier_violations,
)

OK, PROPERTY_FAILS, INPUT_ERROR = 0, 1, 2


class CommandError(Exception):
    def __init__(self, message: str, code: int = INPUT_ERROR):
        self.code = code
        super().__init__(message)


class Run:
    """Collects human-readable lines and report checks for one command."""

    def __init__(self, args):
        self.args = args
        self.checks: list[dict] = []
        self.inputs: list[str] = []
        self.started = time.perf_counter()

    def say(self, line: str) -> None:
        print(line)

    def check(self, check_id: str, subject: str, ok: bool, **details) -> None:
        self.checks.append(
            {"check": check_id, "subject": subject, "agrees": ok, "details": details}
        )

    def finish(self, command: str, code: int) -> int:
        if self.args.json:
            timings = None
            if self.args.timings:
                timings = {"seconds": round(time.perf_counter() - self.started, 6)}
            doc = report.build_report(
                command,
                {"u2_parse": "standard"},
                self.inputs,
                self.checks,
                code,
                timings,
            )
            try:
                report.write_report(self.args.json, doc)
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return INPUT_ERROR
        return code


def _load_document(run: Run, path: str):
    try:
        doc = load_algebra_file(path)
    except AlgebraFileError as exc:
        raise CommandError(f"{path}: {exc}") from exc
    run.inputs.append(path)
    return doc


def _invalid(what: str, violations, names) -> CommandError:
    """The input error for `what`, listing `violations` in element names."""
    return CommandError(f"{what}: " + "; ".join(v.describe(names) for v in violations))


def _report_violations(
    run: Run, check_id: str, doc, failed: str, violations, **details
) -> bool:
    """Record the check of `violations` on `doc` in its element names; when
    there are any, say `failed` and one indented line each.  True when none."""
    details["violations"] = [v.as_dict(doc.names) for v in violations]
    run.check(check_id, doc.name, not violations, **details)
    if violations:
        run.say(f"{doc.name}: {failed}")
        for v in violations:
            run.say(f"  {v.describe(doc.names)}")
    return not violations


def _validated_algebra(run: Run, path: str) -> tuple[FiniteMTLAlgebra, object]:
    doc = _load_document(run, path)
    try:
        return validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names), doc
    except InvalidAlgebraError as exc:
        what = f"{path}: not an MTL-algebra"
        raise _invalid(what, exc.violations, doc.names) from exc


def _resolve_forall(run: Run, alg, doc, spec: str | None) -> tuple[int, ...]:
    if spec in (None, "file"):
        if doc.forall is None:
            raise CommandError(
                "no forall line in the file; pass --forall delta|identity|<ints>"
            )
        return tuple(doc.forall)
    if spec == "delta":
        return delta_table(alg)
    if spec == "identity":
        return identity_table(alg)
    try:
        table = tuple(int(v) for v in spec.replace(",", " ").split())
    except ValueError as exc:
        raise CommandError(f"bad --forall value {spec!r}") from exc
    if len(table) != alg.size:
        raise CommandError(
            f"--forall lists {len(table)} entries; the carrier has {alg.size} elements"
        )
    return table


def _pair(run: Run, alg, doc, forall_spec: str | None):
    table = _resolve_forall(run, alg, doc, forall_spec)
    try:
        return make_umtl(alg, table, doc.name)
    except InvalidQuantifierError as exc:
        raise _invalid("not a universal quantifier", exc.violations, alg.names) from exc


def _parse_members(alg, spec: str) -> frozenset[int]:
    by_name = {name: i for i, name in enumerate(alg.names)}
    members = set()
    for token in spec.replace(",", " ").split():
        if token in by_name:
            members.add(by_name[token])
        else:
            try:
                members.add(int(token))
            except ValueError:
                raise CommandError(f"unknown element {token!r}")
    bad = next((i for i in members if not (0 <= i < alg.size)), None)
    if bad is not None:
        raise CommandError(f"element index {bad} out of range")
    return frozenset(members)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}") from exc


# -- commands ----------------------------------------------------------------


def cmd_validate(run: Run, args) -> int:
    doc = _load_document(run, args.path)
    try:
        alg = validate(doc.size, doc.odot, doc.arrow, doc.top, doc.names)
        violations = []
    except InvalidAlgebraError as exc:
        violations = exc.violations
    ok = _report_violations(run, "mtl-axioms", doc, "MTL-algebra: INVALID", violations)
    if ok:
        run.say(f"{doc.name}: MTL-algebra: valid")
    if ok and doc.forall is not None:
        qv = quantifier_violations(alg, doc.forall)
        ok = _report_violations(run, "quantifier-axioms", doc, "forall: INVALID", qv)
        if ok:
            run.say(f"{doc.name}: forall: valid universal quantifier")
    return OK if ok else PROPERTY_FAILS


def cmd_classify(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    profile = classify(alg)
    run.check("subvariety-profile", doc.name, True, **profile.as_dict())
    flags = " ".join(f"{k}={str(v).lower()}" for k, v in profile.as_dict().items())
    run.say(f"{doc.name}: {flags}")
    return OK


def cmd_quantifiers(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    if args.mode == "check":
        table = _resolve_forall(run, alg, doc, args.forall)
        try:
            q = make_umtl(alg, table, doc.name)
            violations = []
        except InvalidQuantifierError as exc:
            violations = exc.violations
        failed = "not a universal quantifier"
        ok = _report_violations(
            run, "quantifier-axioms", doc, failed, violations, table=list(table)
        )
        if not ok:
            return PROPERTY_FAILS
        run.say(f"{doc.name}: valid universal quantifier")
        failures = ana.property_failures(q)
        run.check("quantifier-property-suite", doc.name, not failures, failures=failures)
        return OK
    quantifiers = enumerate_quantifiers(alg)
    run.check(
        "quantifier-enumeration",
        doc.name,
        True,
        count=len(quantifiers),
        tables=[list(q.table) for q in quantifiers],
    )
    run.say(f"{doc.name}: {len(quantifiers)} universal quantifier(s)")
    for q in quantifiers:
        fix = ",".join(alg.name_of(i) for i in sorted(q.fixpoints))
        run.say(f"  table={list(q.table)} fixpoints={{{fix}}}")
    return OK


def cmd_filters(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    kind = args.kind
    if kind in ("ufilters", "maximal-ufilters"):
        q = _pair(run, alg, doc, args.forall)
        family = (
            flt.enumerate_ufilters(q)
            if kind == "ufilters"
            else flt.maximal_ufilters(q)
        )
    elif kind == "filters":
        family = flt.enumerate_filters(alg)
    elif kind == "primes":
        family = flt.prime_filters(alg)
    elif kind == "minimal-primes":
        res = flt.minimal_primes(alg)
        family = res.by_inclusion
        run.check("minimal-prime-characterizations", doc.name, res.agree)
    else:  # "maximal"; argparse rejects every other kind
        family = flt.maximal_filters(alg)
    run.check(
        f"{kind}-listing",
        doc.name,
        True,
        count=len(family),
        members=[[alg.name_of(i) for i in f.sorted_members()] for f in family],
    )
    run.say(f"{doc.name}: {len(family)} {kind}")
    for f in family:
        tag = "" if f.is_proper() else "  (improper)"
        run.say(f"  {f.label()}{tag}")
    return OK


def cmd_quotient(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    q = _pair(run, alg, doc, args.forall)
    members = _parse_members(alg, args.filter)
    try:
        result = flt.quotient(q, members)
    except flt.QuotientError as exc:
        run.check("quotient", doc.name, False, error=str(exc))
        run.say(f"{doc.name}: quotient failed: {exc}")
        return PROPERTY_FAILS
    quotient_alg = result.quotient.algebra
    hom_ok, hom_witness = ana.is_u_homomorphism(result.class_map, q, result.quotient)
    run.check(
        "quotient",
        doc.name,
        hom_ok,
        classes=[[alg.name_of(i) for i in sorted(c)] for c in result.classes],
        size=quotient_alg.size,
        forall=list(result.quotient.forall),
        class_map_is_u_homomorphism=hom_ok,
    )
    run.say(
        f"{doc.name}: quotient has {quotient_alg.size} classes; "
        f"class map is a U-homomorphism: {hom_ok}"
    )
    for c in result.classes:
        run.say("  class " + "{" + ",".join(alg.name_of(i) for i in sorted(c)) + "}")
    return OK if hom_ok else PROPERTY_FAILS


def cmd_analyze(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    q = _pair(run, alg, doc, args.forall)
    rep = ana.is_representable(q)
    strong = ana.is_strong(q)
    simple = ana.is_simple(q)
    semi = ana.is_semisimple(q)
    run.check(
        "analysis",
        doc.name,
        True,
        representable=rep.representable,
        representability_conditions_agree=rep.agree,
        strong=strong.strong,
        strong_matches_representable=strong.agree,
        simple=simple.simple,
        simplicity_conditions=list(simple.conditions()),
        semisimple=semi.semisimple,
        radical=[alg.name_of(i) for i in semi.radical_members],
    )
    run.say(
        f"{doc.name}: representable={str(rep.representable).lower()} "
        f"strong={str(strong.strong).lower()} simple={str(simple.simple).lower()} "
        f"semisimple={str(semi.semisimple).lower()}"
    )
    if rep.equation_witness:
        x, y = rep.equation_witness
        run.say(f"  representability witness: ({alg.name_of(x)},{alg.name_of(y)})")
    run.say(f"  radical: {{{','.join(alg.name_of(i) for i in semi.radical_members)}}}")
    all_good = rep.representable and strong.strong
    return OK if all_good else PROPERTY_FAILS


def _load_corpus(run: Run, path: Path) -> list[CorpusEntry]:
    """The validated algebras of a directory's `.alg` files, in name
    order, or of the one file `path`."""
    paths = sorted(path.glob("*.alg")) if path.is_dir() else [path]
    if not paths:
        raise CommandError(f"no .alg files under {path}")
    entries = []
    for p in paths:
        alg, doc = _validated_algebra(run, str(p))
        entries.append(CorpusEntry(doc.name, alg, doc.forall))
    return entries


def cmd_audit(run: Run, args) -> int:
    path = Path(args.corpus_dir) if args.corpus_dir else corpus_dir()
    entries = _load_corpus(run, path)
    bundle = run_corpus_audit(entries)
    for chk in bundle.as_checks():
        run.checks.append(chk)
    disagreements = bundle.disagreements()
    run.say(
        f"audited {len(bundle.pairs)} pairs over {len(entries)} algebras: "
        f"{len(bundle.entries)} audit entries, {len(disagreements)} disagreement(s)"
    )
    for e in disagreements:
        run.say(f"  DISAGREES {e.check} on {e.subject}")
    run.say(f"schema soundness: {'pass' if bundle.soundness.all_valid else 'FAIL'}")
    return OK if not disagreements else PROPERTY_FAILS


def cmd_prove(run: Run, args) -> int:
    try:
        text = Path(args.proof_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's text names the path again
        reason = getattr(exc, "strerror", None) or exc
        raise CommandError(f"{args.proof_path}: cannot read: {reason}") from exc
    try:
        proof = parse_proof_text(text)
    except (ProofFileError, FormulaSyntaxError) as exc:
        raise CommandError(f"{args.proof_path}: {exc}") from exc
    run.inputs.append(args.proof_path)
    catalog = SchemaCatalog.mmtl(extensions=tuple(args.extensions))
    if args.mode == "check":
        result = check_proof(catalog, proof)
        run.check(
            "proof-check",
            proof.name or Path(args.proof_path).name,
            result.ok,
            failed_step=result.failed_step,
            reason=result.reason,
        )
        if result.ok:
            run.say(
                f"proof accepted ({len(proof.steps)} steps, "
                f"conclusion {print_formula(proof.conclusion())})"
            )
            return OK
        run.say(f"proof REJECTED at step {result.failed_step}: {result.reason}")
        return PROPERTY_FAILS
    # deduce
    if not args.discharge:
        raise CommandError("deduce requires --discharge <hypothesis name>")
    try:
        result = deduction_transform(catalog, proof, args.discharge)
    except ValueError as exc:
        raise CommandError(str(exc)) from exc
    recheck = check_proof(catalog, result.proof)
    run.check(
        "deduction-transform",
        proof.name or Path(args.proof_path).name,
        recheck.ok,
        exponent=result.exponent,
        conclusion=print_formula(result.conclusion),
        weakened=result.weakened,
        steps=len(result.proof.steps),
    )
    run.say(
        f"discharged {args.discharge!r}: {result.describe()}; "
        f"output {len(result.proof.steps)} steps, re-checks: {recheck.ok}"
    )
    if args.out:
        _write_text(args.out, print_proof(result.proof))
        run.say(f"wrote transformed proof to {args.out}")
    return OK if recheck.ok else PROPERTY_FAILS


def cmd_logic(run: Run, args) -> int:
    try:
        goal = parse_formula(args.formula) if args.formula else None
    except FormulaSyntaxError as exc:
        raise CommandError(str(exc)) from exc
    if args.rule:
        rule = RULE_SHAPES.get(args.rule)
        if rule is None:
            raise CommandError(f"unknown rule {args.rule!r}")
        if goal is not None:
            raise CommandError("pass either a formula or --rule, not both")
        goal = rule
    if goal is None:
        raise CommandError("no formula or rule given")
    entries = _load_corpus(run, Path(args.pool) if args.pool else corpus_dir())
    pool, rejected = corpus_pairs_with_rejects(entries)
    if rejected:
        name, violations = rejected[0]
        alg = next(
            e.algebra
            for e in entries
            if e.forall is not None and pair_name(e.name, e.forall) == name
        )
        raise _invalid(f"{name}: not a universal quantifier", violations, alg.names)
    if args.mode == "valid":
        if isinstance(goal, RuleInstance):
            raise CommandError("validity mode expects a formula, not a rule")
        try:
            verdicts = pool_validity(goal, pool, max_vars=args.max_vars)
        except VariableBudgetError as exc:
            raise CommandError(str(exc)) from exc
        failures = [
            {
                "algebra": q.label(),
                "valuation": element_names(q.algebra, v.countervaluation.items()),
            }
            for q, v in zip(pool, verdicts)
            if not v.valid
        ]
        run.check(
            "validity",
            print_formula(goal),
            not failures,
            pool_size=len(pool),
            failures=failures,
        )
        if failures:
            first = failures[0]
            named = ", ".join(map("=".join, first["valuation"].items()))
            run.say(f"NOT valid on {first['algebra']}: {named}")
            return PROPERTY_FAILS
        run.say(f"valid on all {len(pool)} pool members")
        return OK
    # countermodel mode
    try:
        hit = countermodel_search(goal, pool, max_vars=args.max_vars)
    except VariableBudgetError as exc:
        raise CommandError(str(exc)) from exc
    subject = args.rule if isinstance(goal, RuleInstance) else print_formula(goal)
    if isinstance(hit, Countermodel):
        alg = pool[hit.pool_index].algebra
        valuation = element_names(alg, hit.valuation)
        run.check(
            "countermodel",
            subject,
            True,
            found=True,
            algebra=hit.algebra_label,
            valuation=valuation,
            value=alg.name_of(hit.value),
        )
        named = ", ".join(map("=".join, valuation.items()))
        run.say(
            f"countermodel on {hit.algebra_label}: {named} "
            f"(value {alg.name_of(hit.value)})"
        )
        return PROPERTY_FAILS
    run.check(
        "countermodel",
        subject,
        True,
        found=False,
        pool_size=hit.pool_size,
        valuations_checked=hit.valuations_checked,
    )
    run.say(
        f"exhausted: no countermodel over {hit.pool_size} algebras "
        f"({hit.valuations_checked} valuations)"
    )
    return OK


def cmd_export(run: Run, args) -> int:
    alg, doc = _validated_algebra(run, args.path)
    if args.what == "order":
        text = hasse.order_dot(alg, doc.name)
    elif args.what == "ufilters":
        q = _pair(run, alg, doc, args.forall)
        text = hasse.filter_lattice_dot(
            list(flt.enumerate_ufilters(q)), doc.name + "-ufilters"
        )
    else:  # "filters"; argparse rejects every other target
        text = hasse.filter_lattice_dot(
            list(flt.enumerate_filters(alg)), doc.name + "-filters"
        )
    if args.out:
        _write_text(args.out, text)
        run.say(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    run.check("export", doc.name, True, what=args.what, bytes=len(text))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umtl",
        description="Finite MTL-algebras with universal quantifiers: "
        "validation, enumeration, structure, audits, and modal proof checking.",
    )
    parser.add_argument("--json", metavar="PATH", help="write a JSON report")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (every command is serial)",
    )
    parser.add_argument(
        "--u2-parse",
        choices=("standard",),
        default="standard",
        help="accepted for compatibility; the second quantifier axiom has one reading",
    )
    parser.add_argument(
        "--timings", action="store_true", help="include timings in the report"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the MTL axioms of a table file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="subvariety profile of an algebra")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quantifiers", help="enumerate or check quantifiers")
    p.add_argument("path")
    p.add_argument("mode", choices=("enum", "check"))
    p.add_argument("--forall", help="file|delta|identity|<ints>")
    p.set_defaults(func=cmd_quantifiers)

    p = sub.add_parser("filters", help="list filters of a given kind")
    p.add_argument("path")
    p.add_argument(
        "--kind",
        default="filters",
        choices=(
            "filters",
            "ufilters",
            "primes",
            "minimal-primes",
            "maximal",
            "maximal-ufilters",
        ),
    )
    p.add_argument("--forall", help="file|delta|identity|<ints>")
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("quotient", help="quotient by a U-filter")
    p.add_argument("path")
    p.add_argument("--filter", required=True, help="members, e.g. 'd,1'")
    p.add_argument("--forall", help="file|delta|identity|<ints>")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("analyze", help="representable/strong/simple/semisimple")
    p.add_argument("path")
    p.add_argument("--forall", help="file|delta|identity|<ints>")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "audit", help="run the full audit over a corpus directory or one .alg file"
    )
    p.add_argument("corpus_dir", nargs="?", help="defaults to the bundled corpus")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("prove", help="check a proof file or discharge a hypothesis")
    p.add_argument("mode", choices=("check", "deduce"))
    p.add_argument("proof_path")
    p.add_argument("--discharge", help="hypothesis name for deduce")
    p.add_argument("--out", help="write the transformed proof here")
    p.add_argument(
        "--extensions",
        nargs="*",
        default=[],
        choices=("INV", "WNM", "MV", "EM"),
        help="additional axiom schemas",
    )
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("logic", help="semantic validity and countermodel search")
    p.add_argument("mode", choices=("valid", "countermodel"))
    p.add_argument("formula", nargs="?", help="goal formula")
    p.add_argument("--rule", help="named rule, e.g. disj-box")
    p.add_argument("--pool", help="algebra file or corpus directory")
    p.add_argument("--max-vars", type=int, default=6)
    p.set_defaults(func=cmd_logic)

    p = sub.add_parser("export", help="DOT export of order or filter lattices")
    p.add_argument("format", choices=("dot",))
    p.add_argument("path")
    p.add_argument("--what", default="order", choices=("order", "filters", "ufilters"))
    p.add_argument("--forall", help="file|delta|identity|<ints>")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = Run(args)
    counts = (("--jobs", args.jobs), ("--max-vars", getattr(args, "max_vars", 0)))
    try:
        for flag, value in counts:
            if value < 0:
                raise CommandError(f"{flag} must be non-negative, got {value}")
        code = args.func(run, args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return run.finish(args.command, exc.code)
    except (InvalidAlgebraError, InvalidQuantifierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return run.finish(args.command, INPUT_ERROR)
    return run.finish(args.command, code)


if __name__ == "__main__":
    sys.exit(main())
