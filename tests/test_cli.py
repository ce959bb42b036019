from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umtl import analysis as ana
from umtl import chain_algebra, core, example_3_2, make_umtl, quantifier
from umtl import filters as flt
from umtl.algfile import load_algebra_file
from umtl.cli import main
from umtl.corpus import SIX_BLOCKY, corpus_dir, proofs_dir
from umtl.logic.formulas import MAX_DEPTH, Var, lor, parse_formula
from umtl.logic.semantics import ValidityResult, compile_formulas, is_valid
from umtl.quantifier import delta_table

import oracles

CORPUS = corpus_dir()
SIX = str(CORPUS / "example-3-2.alg")
SIX_DELTA = str(CORPUS / "example-3-2-delta.alg")
SIX_BLOCK = str(CORPUS / "example-3-2-block.alg")
NM3 = str(CORPUS / "nm-3.alg")


def run_cli(*argv):
    return main(list(argv))


def test_validate_ok(capsys):
    assert run_cli("validate", SIX) == 0
    assert "MTL-algebra: valid" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    text = (CORPUS / "goedel-3.alg").read_text().replace("0 1 1\n", "0 1 0\n", 1)
    bad.write_text(text)
    assert run_cli("validate", str(bad)) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "junk.alg"
    bad.write_text("algebra x\nsize 2\n")
    assert run_cli("validate", str(bad)) == 2


def test_one_element_file_prints_its_size_as_a_number(tmp_path, capsys):
    # the degenerate-size witness is the carrier size, not an element
    one = tmp_path / "one.alg"
    one.write_text("algebra one\nsize 1\nodot\n0\narrow\n0\n")
    report = tmp_path / "one.json"
    assert main(["--json", str(report), "validate", str(one)]) == 1
    out = capsys.readouterr().out
    assert "  degenerate-size fails at (1)" in out.splitlines()
    violations = json.loads(report.read_text())["report"]["checks"][0]["details"]
    assert violations == {"violations": [{"axiom": "degenerate-size", "witness": [1]}]}
    for argv in (
        ("classify", str(one)),
        ("filters", str(one)),
        ("quantifiers", str(one), "enum"),
        ("analyze", str(one), "--forall", "0"),
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"error: {one}: not an MTL-algebra: degenerate-size fails at (1)"
        ]


def test_validate_checks_forall_line(capsys, monkeypatch):
    scan, scans = core._scan, []

    def counting_scan(*tables):
        scans.append(tables)
        return scan(*tables)

    monkeypatch.setattr(core, "_scan", counting_scan)
    assert run_cli("validate", SIX_BLOCK) == 0
    assert "valid universal quantifier" in capsys.readouterr().out
    assert len(scans) == 1  # the MTL axioms are scanned once


def test_validate_flags_invalid_forall_line(tmp_path, capsys):
    bad = tmp_path / "bad-forall.alg"
    text = (CORPUS / "goedel-3.alg").read_text() + "forall 0 0 2\n"
    bad.write_text(text)
    assert run_cli("validate", str(bad)) == 1
    out = capsys.readouterr().out
    assert "MTL-algebra: valid" in out and "forall: INVALID" in out


def test_timings_live_outside_digested_region(tmp_path, capsys):
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    for p in (p1, p2):
        assert main(["--json", str(p), "--timings", "validate", SIX]) == 0
        capsys.readouterr()
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    assert "timings" in d1 and "seconds" in d1["timings"]
    assert d1["report"] == d2["report"]
    assert d1["report_digest"] == d2["report_digest"]


def test_classify(capsys):
    assert run_cli("classify", SIX) == 0
    out = capsys.readouterr().out
    assert "mv=true" in out and "linear=false" in out


def test_quantifiers_enum(capsys):
    assert run_cli("quantifiers", SIX, "enum") == 0
    out = capsys.readouterr().out
    assert "3 universal quantifier(s)" in out


def test_quantifiers_check_delta_on_goedel(capsys):
    assert run_cli("quantifiers", str(CORPUS / "goedel-3.alg"), "check", "--forall", "delta") == 1
    assert "not a universal quantifier" in capsys.readouterr().out


def test_filters_kinds(capsys):
    assert run_cli("filters", SIX_BLOCK, "--kind", "ufilters") == 0
    out = capsys.readouterr().out
    assert "{d,1}" in out and "(improper)" in out
    assert run_cli("filters", SIX, "--kind", "minimal-primes") == 0


def test_quotient(capsys):
    assert run_cli("quotient", SIX_BLOCK, "--filter", "d,1") == 0
    assert "3 classes" in capsys.readouterr().out
    assert run_cli("quotient", SIX_DELTA, "--filter", "d,1") == 1


def test_a_partition_that_is_no_congruence_is_caught(monkeypatch, capsys):
    # quotients read their tables off class representatives and check no
    # pair of classes themselves; the class-map homomorphism test must
    # catch a partition that is no congruence wherever the map is checked
    q = make_umtl(example_3_2(), SIX_BLOCKY)
    mutant = (0, 0, 2, 2, 4, 4)
    assert mutant not in oracles.ucongruences_partition_oracle(q)
    monkeypatch.setattr(flt, "_least_members", lambda alg, s: mutant)
    res = flt.quotient(q, {4, 5})
    ok, witness = ana.is_u_homomorphism(res.class_map, q, res.quotient)
    assert not ok and witness is not None
    decomposition = ana.subdirect_decompose(q, "max-ufilters")
    assert False in decomposition.embedding.coordinates_u_homomorphic
    assert run_cli("quotient", SIX_BLOCK, "--filter", "d,1") == 1
    assert "class map is a U-homomorphism: False" in capsys.readouterr().out


def test_analyze(capsys):
    assert run_cli("analyze", SIX, "--forall", "delta") == 1
    out = capsys.readouterr().out
    assert "representable=false" in out and "simple=true" in out
    assert run_cli("analyze", SIX_BLOCK) == 0


def test_audit_exit_code(capsys):
    # known discrepancies on the bundled corpus: exit 1, still a real run
    assert run_cli("audit", str(CORPUS)) == 1
    out = capsys.readouterr().out
    assert "schema soundness: pass" in out


def test_audit_takes_one_alg_file(tmp_path, capsys):
    # the same report as a directory that holds only that file
    one = CORPUS / "goedel-3.alg"
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / one.name).write_text(one.read_text())
    reports = [tmp_path / "file.json", tmp_path / "dir.json"]
    for report, path in zip(reports, (one, directory)):
        assert main(["--json", str(report), "audit", str(path)]) == 1
    assert "audited 1 pairs over 1 algebras" in capsys.readouterr().out
    file_report, dir_report = (json.loads(r.read_text())["report"] for r in reports)
    assert file_report["checks"] == dir_report["checks"]


def test_audit_subjects_keep_a_plus_in_the_algebra_name(tmp_path, capsys):
    # pair names append one "+<digits>", so the subject is all before the last "+"
    for n in (3, 4):
        text = (CORPUS / f"goedel-{n}.alg").read_text()
        (tmp_path / f"g{n}.alg").write_text(text.replace(f"algebra goedel-{n}", f"algebra g+{n}", 1))
    report = tmp_path / "audit.json"
    assert main(["--json", str(report), "audit", str(tmp_path)]) == 1
    capsys.readouterr()
    checks = json.loads(report.read_text())["report"]["checks"]
    for check in ("minimal-prime-characterizations", "delta-on-linear-bases"):
        assert [c["subject"] for c in checks if c["check"] == check] == ["g+3", "g+4"]


def test_audit_records_a_rejected_file_table(tmp_path, capsys):
    bad = tmp_path / "goedel-3.alg"
    bad.write_text((CORPUS / "goedel-3.alg").read_text() + "forall 0 0 2\n")
    report = tmp_path / "audit.json"
    assert main(["--json", str(report), "audit", str(bad)]) == 1
    assert "DISAGREES quantifier-axioms on goedel-3+002" in capsys.readouterr().out
    checks = json.loads(report.read_text())["report"]["checks"]
    assert [c for c in checks if c["check"] == "quantifier-axioms"] == [
        {
            "check": "quantifier-axioms",
            "subject": "goedel-3+002",
            "agrees": False,
            "details": {
                "violations": [{"axiom": "U2", "witness": [1, 0]}],
                "u2_parse": "standard",
            },
        }
    ]


def test_audit_of_a_missing_path_is_an_input_error(tmp_path, capsys):
    for argv in (("audit", "missing.alg"), ("prove", "check", "missing.prf")):
        missing = tmp_path / argv[-1]
        assert run_cli(*argv[:-1], str(missing)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].count(str(missing)) == 1


@pytest.mark.parametrize(
    "mode", [["check"], ["deduce", "--discharge", "h"]], ids=["check", "deduce"]
)
@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("missing.prf", None, "No such file or directory"),
        ("bad.prf", b"\xff\xfe\x00", "'utf-8' codec can't decode byte 0xff in position 0"),
    ],
    ids=["missing", "undecodable"],
)
def test_unreadable_proof_file_says_cannot_read(tmp_path, capsys, mode, name, content, reason):
    # the same shape as an unreadable algebra file
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert run_cli("prove", mode[0], str(path), *mode[1:]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: cannot read: {reason}")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "{dir}/bad.alg"),
        ("classify", "{dir}/bad.alg"),
        ("audit", "{dir}/bad.alg"),
        ("audit", "{dir}"),
        ("logic", "valid", "p0", "--pool", "{dir}"),
        ("prove", "check", "{dir}/bad.prf"),
    ],
)
def test_undecodable_input_is_an_input_error(tmp_path, capsys, argv):
    for name in ("bad.alg", "bad.prf"):
        (tmp_path / name).write_bytes(b"\xff\xfe\x00")
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "can't decode byte 0xff" in err[0]


def test_prove_check_accepts_a_step_on_a_long_or_chain(tmp_path, capsys):
    # the checker compares the step with the instantiated schema; a flat
    # chain of 30 `|` links is exponential as a tree
    chain = " | ".join(f"p{i % 3}" for i in range(31))
    src = tmp_path / "chain.prf"
    src.write_text(
        f"step 1: ({chain}) & p1 -> ({chain}) ; axiom A2 [alpha:={chain}, beta:=p1]\n"
    )
    assert run_cli("prove", "check", str(src)) == 0
    assert "proof accepted" in capsys.readouterr().out


def test_prove_check_and_deduce(tmp_path, capsys):
    proof = sorted(proofs_dir().glob("*.prf"))[0]
    assert run_cli("prove", "check", str(proof)) == 0
    src = tmp_path / "use.prf"
    src.write_text(
        "theory:\nalpha: p0\nstep 1: p0 ; hyp alpha\nstep 2: box p0 ; nec 1\n"
    )
    out_path = tmp_path / "deduced.prf"
    assert (
        run_cli("prove", "deduce", str(src), "--discharge", "alpha", "--out", str(out_path))
        == 0
    )
    assert "exponent 1" in capsys.readouterr().out
    assert run_cli("prove", "check", str(out_path)) == 0


def test_prove_rejects_a_binding_label_the_schema_lacks(tmp_path, capsys):
    # a label outside the schema fails the check, so the deduction, which
    # passes the binding on by keyword, never reads one named `schema_id`
    src = tmp_path / "sid.prf"
    src.write_text(
        "theory:\nh: p0\n"
        "step 1: p0 & p1 -> p0 ; axiom A2 [alpha:=p0, beta:=p1, schema_id:=p0]\n"
        "step 2: p0 ; hyp h\n"
    )
    assert run_cli("prove", "check", str(src)) == 1
    out = capsys.readouterr().out
    assert "binding names metavariables ['schema_id'] that the schema lacks" in out
    assert run_cli("prove", "deduce", str(src), "--discharge", "h") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: input proof does not check: step 1,")


def test_prove_rejects_bad_step(tmp_path, capsys):
    src = tmp_path / "bad.prf"
    src.write_text("step 1: p0 ; axiom A10\n")
    assert run_cli("prove", "check", str(src)) == 1
    assert "REJECTED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "step,message",
    [
        ("step 1: p0 -> p0 ;\n", "empty justification"),
        ("step 1: p0 -> p0 ; mp a b\n", "step indices must be integers"),
        (
            "step 1: p0 -> (p1 -> p0) ; axiom A2 [alpha:=p0, beta:=p1 &]\n",
            "unexpected end of formula (at position 4) (line 1)",
        ),
    ],
)
def test_prove_malformed_justification_is_input_error(tmp_path, capsys, step, message):
    src = tmp_path / "bad.prf"
    src.write_text(step)
    assert run_cli("prove", "check", str(src)) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_logic_valid(capsys):
    assert run_cli("logic", "valid", "box p0 -> p0", "--pool", str(CORPUS)) == 0
    assert run_cli("logic", "valid", "p0 -> box p0", "--pool", str(CORPUS)) == 1


def test_logic_countermodel(capsys):
    assert run_cli("logic", "countermodel", "p0 -> box p0", "--pool", NM3) == 1
    out = capsys.readouterr().out
    assert "countermodel on" in out
    assert run_cli("logic", "countermodel", "box p0 -> p0", "--pool", NM3) == 0


def test_logic_rule(capsys):
    assert run_cli("logic", "countermodel", "--rule", "disj-box", "--pool", str(CORPUS)) == 1
    assert "example-3-2+000005" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [("valid", "p0"), ("countermodel", "--rule", "disj-box")])
def test_a_pool_with_a_rejected_table_is_an_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "goedel-3.alg"
    bad.write_text((CORPUS / "goedel-3.alg").read_text() + "forall 0 0 2\n")
    assert run_cli("logic", *argv, "--pool", str(bad)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: goedel-3+002: not a universal quantifier: U2 fails at (e1,e0)"]


def test_an_empty_pool_is_an_input_error(tmp_path, capsys):
    # every .alg file yields at least the identity quantifier, so only a
    # path without one gives an empty pool
    for argv in (("logic", "valid", "p0", "--pool", str(tmp_path)), ("audit", str(tmp_path))):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: no .alg files under {tmp_path}"]


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "order.gv"
    assert run_cli("export", "dot", SIX, "--what", "order", "-o", str(out)) == 0
    text = out.read_text()
    assert "digraph" in text and "rankdir=BT" in text
    assert run_cli("export", "dot", SIX_BLOCK, "--what", "ufilters", "-o", str(out)) == 0
    assert "{d,1}" in out.read_text()


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_export_dot_escapes_names(tmp_path):
    # every quoted string must be well formed and carry its name back
    path = tmp_path / "quoted.alg"
    text = Path(SIX_BLOCK).read_text().replace("algebra ", 'algebra q"', 1)
    path.write_text(text.replace("names 0 a b ", 'names 0 a"b b\\ ', 1))
    names = ["0", 'a"b', "b\\", "c", "d", "1"]
    for what in ("order", "filters", "ufilters"):
        out = tmp_path / f"{what}.gv"
        assert run_cli("export", "dot", str(path), "--what", what, "-o", str(out)) == 0
        strings = []
        for line in out.read_text().splitlines():
            assert '"' not in DOT_STRING.sub("", line), line
            for quoted in DOT_STRING.findall(line):
                strings.append(re.sub(r"\\(.)", r"\1", quoted[1:-1]))
        assert strings[0].startswith('q"example-3-2-block')
        if what == "order":
            assert strings[1:] == names
        else:
            assert "{" + ",".join(names) + "}" in strings


def test_missing_forall_is_input_error(capsys):
    # ufilters need a quantifier; nm-3.alg ships without one
    assert run_cli("filters", NM3, "--kind", "ufilters") == 2
    assert "error" in capsys.readouterr().err


def test_bad_forall_value_is_input_error(capsys):
    assert run_cli("analyze", SIX, "--forall", "nonsense") == 2
    assert run_cli("analyze", SIX, "--forall", "0 0 9 9 9 5") == 2
    capsys.readouterr()
    for spec, count in (("0,1,2,3,4", 5), ("0,1", 2), ("", 0)):
        for argv in (
            ("quantifiers", NM3, "check"),
            ("analyze", NM3),
            ("filters", NM3, "--kind", "ufilters"),
            ("quotient", NM3, "--filter", "2"),
            ("export", "dot", NM3, "--what", "ufilters"),
        ):
            assert run_cli(*argv, f"--forall={spec}") == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: --forall lists {count} entries; the carrier has 3 elements"]


def test_explicit_forall_table(capsys):
    assert run_cli("quantifiers", SIX, "check", "--forall", "0,0,2,2,4,5") == 0
    assert "valid universal quantifier" in capsys.readouterr().out


def test_quantifiers_check_scans_the_table_once(capsys, monkeypatch):
    scan, scans = quantifier._violations, []

    def counting_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(quantifier, "_violations", counting_scan)
    assert run_cli("quantifiers", SIX, "check", "--forall", "0,0,2,2,4,5") == 0
    assert len(scans) == 1


def test_u2_parse_flag_accepts_only_standard(capsys):
    # kept for compatibility, like --jobs; U2 has one reading
    assert run_cli("--u2-parse", "standard", "validate", SIX) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("--u2-parse", "alt", "validate", SIX)
    assert exc.value.code == 2
    assert "argument --u2-parse: invalid choice" in capsys.readouterr().err


def test_unknown_element_in_filter_spec(capsys):
    assert run_cli("quotient", SIX_BLOCK, "--filter", "z,1") == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("quotient", SIX_BLOCK, "--filter", "d,9"), "element index 9 out of range"),
        (("prove", "deduce", "{proof}"), "deduce requires --discharge <hypothesis name>"),
        (("logic", "countermodel", "--rule", "nosuch", "--pool", NM3), "unknown rule 'nosuch'"),
        (
            ("logic", "countermodel", "p0", "--rule", "disj-box", "--pool", NM3),
            "pass either a formula or --rule, not both",
        ),
        (("logic", "valid", "--pool", NM3), "no formula or rule given"),
        (
            ("logic", "valid", "--rule", "disj-box", "--pool", NM3),
            "validity mode expects a formula, not a rule",
        ),
        (
            ("logic", "valid", "p0 & p1", "--max-vars", "1", "--pool", NM3),
            "2 variables exceed the budget of 1",
        ),
        (
            ("logic", "countermodel", "p0 & p1 & p2", "--max-vars", "2", "--pool", NM3),
            "3 variables exceed the budget of 2",
        ),
    ],
    ids=[
        "element-out-of-range",
        "deduce-without-discharge",
        "unknown-rule",
        "formula-and-rule",
        "no-goal",
        "rule-in-validity-mode",
        "validity-over-budget",
        "countermodel-over-budget",
    ],
)
def test_command_input_errors_are_one_line(capsys, argv, message):
    proof = str(sorted(proofs_dir().glob("*.prf"))[0])
    assert run_cli(*(a.format(proof=proof) for a in argv)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_unwritable_output_paths_are_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing" / "out"
    assert run_cli("--json", str(missing), "classify", NM3) == 2
    src = tmp_path / "use.prf"
    src.write_text("theory:\nalpha: p0\nstep 1: p0 ; hyp alpha\n")
    assert (
        run_cli("prove", "deduce", str(src), "--discharge", "alpha", "--out", str(missing))
        == 2
    )
    assert run_cli("export", "dot", SIX, "-o", str(missing)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 3 and all(line.startswith("error: cannot write") for line in err)
    assert not missing.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--jobs", "-3", "classify", NM3),
        ("logic", "valid", "box p0 -> p0", "--max-vars", "-1", "--pool", NM3),
    ],
)
def test_negative_counts_are_input_errors(capsys, argv):
    assert run_cli(*argv) == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_duplicate_element_names_are_input_errors(tmp_path, capsys):
    dup = tmp_path / "dup.alg"
    text = (CORPUS / "goedel-3.alg").read_text()
    dup.write_text(text.replace("size 3\n", "size 3\nnames a a b\n"))
    assert run_cli("validate", str(dup)) == 2
    assert run_cli("quotient", str(dup), "--forall", "identity", "--filter", "a") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert all("duplicate element name 'a' (line 3)" in line for line in err)


def test_misplaced_operator_is_one_line_input_error(capsys):
    assert run_cli("logic", "valid", "p0 & & p1") == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == ["error: unexpected token '&' (at position 5)"]


@pytest.mark.parametrize(
    "formula",
    ["(" * 3000 + "p0" + ")" * 3000, "box " * 5000 + "p0", "p0 & " * 3000 + "p0"],
    ids=["parentheses", "box-prefixes", "flat-conjunction"],
)
def test_deeply_nested_formulas_are_input_errors(capsys, formula):
    assert run_cli("logic", "valid", formula, "--pool", NM3) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"more than {MAX_DEPTH} levels deep" in err[0]


@pytest.mark.parametrize(
    "shape",
    [
        lambda k: "(" * k + "p0" + ")" * k,
        lambda k: "box " * k + "p0",
        lambda k: "p0 & " * k + "p0",
    ],
    ids=["parentheses", "box-prefixes", "flat-conjunction"],
)
def test_formula_just_inside_depth_bound_evaluates(capsys, shape):
    # each shape is refuted by p0 = bottom
    assert run_cli("logic", "valid", shape(MAX_DEPTH - 1), "--pool", NM3) == 1
    assert "NOT valid on" in capsys.readouterr().out
    assert run_cli("logic", "valid", shape(MAX_DEPTH), "--pool", NM3) == 2


def test_or_chains_compile_to_linear_programs(capsys):
    # `a | b` holds each side three times, so the tree of a flat chain of
    # `|` grows about 2.5 times per link, while its program grows by at
    # most five slots.  Each link adds three levels: 34 links is the
    # longest flat chain inside the depth bound, and 40 an input error.
    longest = (MAX_DEPTH - 1) // 3 + 1
    for links, code in ((longest, 1), (40, 2)):
        text = " | ".join(["p0"] * links)
        assert run_cli("logic", "valid", text, "--pool", NM3) == code
        assert run_cli("logic", "countermodel", text, "--pool", NM3) == code
    out, err = capsys.readouterr()
    assert "NOT valid on nm-3+002: p0=e0" in out
    assert "countermodel on nm-3+002: p0=e0 (value e0)" in out
    assert err.count(f"more than {MAX_DEPTH} levels deep") == 2
    parsed = parse_formula(" | ".join(["p0"] * longest))
    assert len(compile_formulas((parsed,)).code) <= 5 * longest
    built = Var(0)
    for _ in range(39):
        built = lor(built, Var(0))
    assert len(compile_formulas((built,)).code) <= 5 * 40
    nm3 = chain_algebra("nilpotent-minimum", 3)
    assert is_valid(make_umtl(nm3, delta_table(nm3)), built) == ValidityResult(False, {0: 0}, 0)


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "umtl.cli", "validate", SIX],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "valid" in result.stdout


def _report_body(path):
    data = json.loads(path.read_text())
    assert data["report_digest"]
    return json.dumps(data["report"], sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", SIX),
        ("classify", SIX),
        ("quantifiers", SIX, "enum"),
        ("filters", SIX_BLOCK, "--kind", "ufilters"),
        ("quotient", SIX_BLOCK, "--filter", "d,1"),
        ("analyze", SIX, "--forall", "delta"),
        ("prove", "check", str(sorted(proofs_dir().glob("*.prf"))[0])),
        ("logic", "valid", "box p0 -> p0", "--pool", NM3),
        ("logic", "countermodel", "p0 -> box p0", "--pool", NM3),
        ("export", "dot", SIX, "--what", "order", "-o", "/dev/null"),
    ],
)
def test_json_reports_deterministic(tmp_path, capsys, argv):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    jobs = ["1", "1", "8"]
    for path, j in zip(paths, jobs):
        assert main(["--json", str(path), "--jobs", j, *argv]) in (0, 1)
        capsys.readouterr()
    bodies = {path.read_text() for path in paths}
    assert len(bodies) == 1  # byte-identical including the digest


def test_audit_report_deterministic_across_jobs(tmp_path, capsys):
    p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
    assert main(["--json", str(p1), "--jobs", "1", "audit", str(CORPUS)]) == 1
    capsys.readouterr()
    assert main(["--json", str(p2), "--jobs", "8", "audit", str(CORPUS)]) == 1
    capsys.readouterr()
    assert p1.read_text() == p2.read_text()


ALG_FILES = sorted(CORPUS.glob("*.alg"))
PROOF_FILES = sorted(proofs_dir().glob("*.prf"))
SIZES = {path: load_algebra_file(str(path)).size for path in ALG_FILES}
# splice material for both file formats
FRAGMENTS = [
    "", " ", "\n", "0", "1", "5", "9", "-1", "x", "#", "forall", "size", "names",
    "odot", "arrow", "step", "theory:", "hyp", "mp 1 2", "nec", "axiom", "p0",
    "box", "->", "(", ")", "[", "]", ":=", ";", ":",
]


@st.composite
def _mutated_text(draw, paths):
    path = draw(st.sampled_from(paths))
    text = path.read_text(encoding="utf-8")
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.sampled_from(FRAGMENTS)) + text[stop:]
    return path, text


@st.composite
def _alg_case(draw, target):
    path, text = draw(_mutated_text(ALG_FILES))
    n = SIZES[path]
    entries = draw(st.lists(st.integers(-1, n + 1), min_size=0, max_size=n + 2))
    forall = "--forall=" + ",".join(map(str, entries))
    members = "--filter=" + ",".join(map(str, draw(st.lists(st.integers(0, n), max_size=3))))
    kind = draw(st.sampled_from(["filters", "ufilters", "maximal-ufilters", "primes"]))
    return text, draw(
        st.sampled_from(
            [
                ["validate", str(target)],
                ["classify", str(target)],
                ["quantifiers", str(target), "enum"],
                ["quantifiers", str(target), "check", forall],
                ["analyze", str(target), forall],
                ["filters", str(target), "--kind", kind, forall],
                ["quotient", str(target), members, forall],
                ["export", "dot", str(target), "--what", "ufilters", forall],
            ]
        )
    )


@st.composite
def _proof_case(draw, target):
    _path, text = draw(_mutated_text(PROOF_FILES))
    name = draw(st.sampled_from(["boxed", "guarded", "imp", "equiv", "x"]))
    return text, draw(
        st.sampled_from(
            [["prove", "check", str(target)], ["prove", "deduce", str(target), "--discharge", name]]
        )
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(fuzz_dir, data):
    target = fuzz_dir / data.draw(st.sampled_from(["input.alg", "input.prf"]))
    case = _alg_case if target.suffix == ".alg" else _proof_case
    text, argv = data.draw(case(target))
    raw = text.encode("utf-8")
    if data.draw(st.booleans()):  # splice in a byte that is no UTF-8
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    target.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1
