"""Golden report digests: the behaviour contract of every CLI command.

Each case runs one CLI invocation on the bundled corpus or the bundled
proofs and compares the `report_digest` of its JSON report with the value
pinned in `golden_digests.json`.  Reports hash input file names, not
paths, so the pins hold in any checkout.  A change that alters a report on
purpose regenerates the pins with

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.json

and says which digests moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from umtl.algfile import load_algebra_file
from umtl.cli import main
from umtl.corpus import corpus_dir, proofs_dir

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

FILTER_KINDS = ("filters", "primes", "minimal-primes", "maximal")
UFILTER_KINDS = ("ufilters", "maximal-ufilters")
QUOTIENTS = (
    ("example-3-2-block", "file", "d,1"),
    ("example-3-2-block", "file", "b,c,1"),
    ("example-3-2-block", "file", "1"),
    ("example-3-2-block", "file", "c,1"),  # not a filter
    ("example-3-2-delta", "file", "d,1"),  # not closed under the quantifier
    ("goedel-4", "identity", "2,3"),
    ("lukasiewicz-4", "identity", "3"),
)
DISCHARGES = (
    ("box-carries-implication", "boxed"),
    ("box-carries-implication", "imp"),
    ("boxed-modus-ponens", "boxed"),
    ("boxed-modus-ponens", "boxed_imp"),
    ("congruence-rule", "equiv"),
    ("guarded-necessitation", "guarded"),
)
VALIDITY_GOALS = ("box p0 -> p0", "p0 -> box p0", "box (p0 -> p1) -> box p0 -> box p1")
COUNTERMODEL_GOALS = (["p0 -> box p0"], ["box p0 -> p0"], ["--rule", "disj-box"])


def cases() -> dict[str, list[str]]:
    """Case id -> CLI arguments; the first word of the id names the group."""
    out: dict[str, list[str]] = {}
    for path in sorted(corpus_dir().glob("*.alg")):
        stem, p = path.stem, str(path)
        # "standard" names the one reading of U2, as when a second was pinned
        out[f"validate standard {stem}"] = ["validate", p]
        out[f"classify standard {stem}"] = ["classify", p]
        out[f"quantifiers-enum standard {stem}"] = ["quantifiers", p, "enum"]
        for kind in FILTER_KINDS:
            out[f"filters {kind} {stem}"] = ["filters", p, "--kind", kind]
        for what in ("order", "filters"):
            out[f"export {what} {stem}"] = ["export", "dot", p, "--what", what]
        specs = ["delta", "identity"]
        if load_algebra_file(p).forall is not None:
            specs.append("file")
        for spec in specs:
            forall = ["--forall", spec]
            out[f"quantifiers-check {spec} {stem}"] = ["quantifiers", p, "check", *forall]
            out[f"analyze {spec} {stem}"] = ["analyze", p, *forall]
            for kind in UFILTER_KINDS:
                out[f"filters {kind} {spec} {stem}"] = ["filters", p, "--kind", kind, *forall]
            export = ["export", "dot", p, "--what", "ufilters", *forall]
            out[f"export ufilters {spec} {stem}"] = export
    for stem, spec, members in QUOTIENTS:
        p = str(corpus_dir() / f"{stem}.alg")
        out[f"quotient {spec} {stem} {members}"] = [
            "quotient", p, "--forall", spec, "--filter", members
        ]
    out["audit standard jobs1"] = ["audit"]
    out["audit standard jobs2"] = ["--jobs", "2", "audit"]
    for path in sorted(proofs_dir().glob("*.prf")):
        out[f"prove-check {path.stem}"] = ["prove", "check", str(path)]
    for stem, hyp in DISCHARGES:
        p = str(proofs_dir() / f"{stem}.prf")
        out[f"prove-deduce {stem} {hyp}"] = ["prove", "deduce", p, "--discharge", hyp]
    for goal in VALIDITY_GOALS:
        out[f"logic-valid {goal}"] = ["logic", "valid", goal]
    for goal in COUNTERMODEL_GOALS:
        out[f"logic-countermodel {' '.join(goal)}"] = ["logic", "countermodel", *goal]
    return out


def report_digest(argv: list[str], directory: Path) -> str:
    report = directory / "report.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["--json", str(report), *argv])
    return json.loads(report.read_text())["report_digest"]


CASES = cases()
GROUPS = sorted({case_id.split()[0] for case_id in CASES})


def test_every_case_is_pinned():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert set(GROUPS) == {
        "analyze", "audit", "classify", "export", "filters", "logic-countermodel",
        "logic-valid", "prove-check", "prove-deduce", "quantifiers-check",
        "quantifiers-enum", "quotient", "validate",
    }


@pytest.mark.parametrize("group", GROUPS)
def test_report_digests_match_pins(group, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    moved = [
        case_id
        for case_id, argv in CASES.items()
        if case_id.split()[0] == group
        and report_digest(argv, tmp_path) != golden.get(case_id)
    ]
    assert moved == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pins = {case_id: report_digest(argv, Path(scratch)) for case_id, argv in CASES.items()}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
