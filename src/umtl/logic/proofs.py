"""Hilbert-style proofs and the proof checker.

A proof is a theory (named hypotheses) plus justified steps.  Step k may
be an axiom-schema instance, a hypothesis, modus ponens from steps i and
j (step j must be the implication), or necessitation of an earlier step.
Necessitation applies to any earlier step, hypotheses included.

File format (line-oriented, '#' comments; the header line and the
theory are optional, and hypothesis names are distinct):

    proof <name>
    theory:
    <name>: <formula>
    ...
    step 1: <formula> ; axiom A2 [alpha:=p0, beta:=p1]
    step 2: <formula> ; hyp h
    step 3: <formula> ; mp 2 1
    step 4: <formula> ; nec 3
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .formulas import Box, Formula, Impl, parse_formula, print_formula
from .schemas import SchemaCatalog, instantiate, match_schema, metavars_of


class AxiomStep(NamedTuple):
    schema_id: str
    binding: tuple[tuple[str, Formula], ...] | None = None

    def describe(self) -> str:
        if self.binding is None:
            return f"axiom {self.schema_id}"
        parts = ", ".join(
            f"{name}:={print_formula(value)}" for name, value in self.binding
        )
        return f"axiom {self.schema_id} [{parts}]"


class HypStep(NamedTuple):
    name: str

    def describe(self) -> str:
        return f"hyp {self.name}"


class MPStep(NamedTuple):
    premise: int
    implication: int

    def describe(self) -> str:
        return f"mp {self.premise} {self.implication}"


class NecStep(NamedTuple):
    premise: int

    def describe(self) -> str:
        return f"nec {self.premise}"


Justification = AxiomStep | HypStep | MPStep | NecStep


class ProofStep(NamedTuple):
    formula: Formula
    justification: Justification


class Proof:
    """Named hypotheses and justified steps.  Mutable: the parser and the
    builder append to its lists."""

    __slots__ = ("theory", "steps", "name")

    def __init__(
        self,
        theory: list[tuple[str, Formula]] | None = None,
        steps: list[ProofStep] | None = None,
        name: str = "",
    ):
        self.theory = [] if theory is None else theory
        self.steps = [] if steps is None else steps
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.theory, self.steps, self.name) == (other.theory, other.steps, other.name)

    __hash__ = None

    def __repr__(self):
        return f"Proof(theory={self.theory!r}, steps={self.steps!r}, name={self.name!r})"

    def conclusion(self) -> Formula:
        if not self.steps:
            raise ValueError("empty proof")
        return self.steps[-1].formula

    def hypothesis(self, name: str) -> Formula | None:
        for hyp_name, formula in self.theory:
            if hyp_name == name:
                return formula
        return None


class CheckResult(NamedTuple):
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_step(
    schema: Callable[[str], tuple[Formula, tuple[str, ...]] | None],
    proof: Proof,
    index: int,
) -> str | None:
    """None when step `index` (1-based) is justified, else the reason.
    `schema` gives a schema id's pattern and metavariable labels, or None
    for an id the catalog lacks."""
    step = proof.steps[index - 1]
    just = step.justification
    if isinstance(just, AxiomStep):
        found = schema(just.schema_id)
        if found is None:
            return f"unknown axiom schema {just.schema_id}"
        pattern, labels = found
        if just.binding is not None:
            binding = dict(just.binding)
            missing = [m for m in labels if m not in binding]
            if missing:
                return f"binding misses metavariables {missing}"
            extra = [m for m in binding if m not in labels]
            if extra:
                return f"binding names metavariables {extra} that the schema lacks"
            expected = instantiate(pattern, binding)
            if expected is not step.formula:
                return (
                    f"schema {just.schema_id} with the given binding yields "
                    f"{print_formula(expected)!r}, not the step formula"
                )
            return None
        if match_schema(pattern, step.formula) is None:
            return f"formula is not an instance of {just.schema_id}"
        return None
    if isinstance(just, HypStep):
        hyp = proof.hypothesis(just.name)
        if hyp is None:
            return f"unknown hypothesis {just.name!r}"
        if hyp is not step.formula:
            return f"hypothesis {just.name!r} differs from the step formula"
        return None
    if isinstance(just, MPStep):
        i, j = just.premise, just.implication
        if not (1 <= i < index) or not (1 <= j < index):
            return "modus ponens indices must reference earlier steps"
        premise = proof.steps[i - 1].formula
        implication = proof.steps[j - 1].formula
        if implication is not Impl(premise, step.formula):
            return (
                f"step {j} is not (step {i} -> this step); it is "
                f"{print_formula(implication)!r}"
            )
        return None
    if isinstance(just, NecStep):
        i = just.premise
        if not (1 <= i < index):
            return "necessitation index must reference an earlier step"
        if step.formula is not Box(proof.steps[i - 1].formula):
            return f"formula is not box of step {i}"
        return None
    return f"unknown justification {just!r}"


def check_proof(catalog: SchemaCatalog, proof: Proof) -> CheckResult:
    schemas: dict[str, tuple[Formula, tuple[str, ...]] | None] = {}

    def schema(schema_id: str):  # each id looked up once per proof
        if schema_id not in schemas:
            pattern = catalog.get(schema_id)
            schemas[schema_id] = None if pattern is None else (pattern, metavars_of(pattern))
        return schemas[schema_id]

    for index in range(1, len(proof.steps) + 1):
        reason = check_step(schema, proof, index)
        if reason is not None:
            return CheckResult(False, index, reason)
    return CheckResult(True)


class ProofFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


_STEP_RE = re.compile(r"step\s+(\d+)\s*:\s*(.*?)\s*;\s*(.*)")
_AXIOM_RE = re.compile(r"axiom\s+(\S+)\s*(?:\[(.*)\])?\s*$")


def _parse_binding(text: str, lineno: int) -> tuple[tuple[str, Formula], ...]:
    binding = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":=" not in part:
            raise ProofFileError(f"bad substitution {part!r}", lineno)
        name, value = part.split(":=", 1)
        try:
            binding.append((name.strip(), parse_formula(value.strip())))
        except ValueError as exc:
            raise ProofFileError(str(exc), lineno) from exc
    return tuple(binding)


def _parse_justification(text: str, lineno: int) -> Justification:
    text = text.strip()
    m = _AXIOM_RE.fullmatch(text)
    if m:
        binding = _parse_binding(m.group(2), lineno) if m.group(2) else None
        return AxiomStep(m.group(1), binding)
    parts = text.split()
    if not parts:
        raise ProofFileError("empty justification", lineno)
    if parts[0] == "hyp" and len(parts) == 2:
        return HypStep(parts[1])
    try:
        if parts[0] == "mp" and len(parts) == 3:
            return MPStep(int(parts[1]), int(parts[2]))
        if parts[0] == "nec" and len(parts) == 2:
            return NecStep(int(parts[1]))
    except ValueError as exc:
        raise ProofFileError(
            f"step indices must be integers in {text!r}", lineno
        ) from exc
    raise ProofFileError(f"bad justification {text!r}", lineno)


def parse_proof_text(text: str) -> Proof:
    proof = Proof()
    in_theory = False
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts[0] == "proof":
            if len(parts) != 2:
                raise ProofFileError("the proof header takes exactly one name", lineno)
            proof.name = parts[1]
            continue
        if body == "theory:":
            in_theory = True
            continue
        m = _STEP_RE.fullmatch(body)
        if m:
            in_theory = False
            number = int(m.group(1))
            if number != expected:
                raise ProofFileError(
                    f"expected step {expected}, found step {number}", lineno
                )
            expected += 1
            try:
                formula = parse_formula(m.group(2))
            except ValueError as exc:
                raise ProofFileError(str(exc), lineno) from exc
            proof.steps.append(
                ProofStep(formula, _parse_justification(m.group(3), lineno))
            )
            continue
        if in_theory and ":" in body:
            name, value = body.split(":", 1)
            name = name.strip()
            if proof.hypothesis(name) is not None:
                raise ProofFileError(f"hypothesis {name!r} is named twice", lineno)
            try:
                proof.theory.append((name, parse_formula(value.strip())))
            except ValueError as exc:
                raise ProofFileError(str(exc), lineno) from exc
            continue
        raise ProofFileError(f"unrecognised line {body!r}", lineno)
    if not proof.steps:
        raise ProofFileError("proof has no steps")
    return proof


def print_proof(proof: Proof) -> str:
    out = []
    if proof.name:
        out.append(f"proof {proof.name}")
    if proof.theory:
        out.append("theory:")
        for name, formula in proof.theory:
            out.append(f"{name}: {print_formula(formula)}")
    for k, step in enumerate(proof.steps, start=1):
        out.append(
            f"step {k}: {print_formula(step.formula)} ; "
            f"{step.justification.describe()}"
        )
    return "\n".join(out) + "\n"
