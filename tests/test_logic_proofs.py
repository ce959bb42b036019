from __future__ import annotations

import random

import pytest

from umtl.logic.builder import ProofBuilder, power
from umtl.logic.formulas import MAX_DEPTH, And, Bot, Box, Impl, Min, Var
from umtl.logic.proofs import (
    AxiomStep,
    HypStep,
    MPStep,
    NecStep,
    Proof,
    ProofFileError,
    ProofStep,
    check_proof,
    parse_proof_text,
    print_proof,
)
from umtl.logic.schemas import SchemaCatalog, instantiate, match_schema
from umtl.logic.transform import deduction_transform
from umtl.corpus import proofs_dir

CATALOG = SchemaCatalog.mmtl()
P0, P1, P2 = Var(0), Var(1), Var(2)


def test_one_step_axiom_proof():
    proof = Proof(
        steps=[
            ProofStep(
                Impl(Bot(), P0), AxiomStep("A10", (("alpha", P0),))
            )
        ]
    )
    assert check_proof(CATALOG, proof).ok


def test_axiom_matching_without_binding():
    proof = Proof(steps=[ProofStep(Impl(Bot(), P0), AxiomStep("A10"))])
    assert check_proof(CATALOG, proof).ok
    bad = Proof(steps=[ProofStep(Impl(P0, Bot()), AxiomStep("A10"))])
    result = check_proof(CATALOG, bad)
    assert not result.ok and "not an instance" in result.reason


def test_wrong_binding_rejected():
    proof = Proof(
        steps=[ProofStep(Impl(Bot(), P0), AxiomStep("A10", (("alpha", P1),)))]
    )
    result = check_proof(CATALOG, proof)
    assert not result.ok and result.failed_step == 1


def test_hypothesis_and_nec():
    proof = Proof(
        theory=[("h", P0)],
        steps=[
            ProofStep(P0, HypStep("h")),
            ProofStep(Box(P0), NecStep(1)),
        ],
    )
    assert check_proof(CATALOG, proof).ok


def test_mp_shape_mismatch():
    proof = Proof(
        theory=[("h", P0), ("i", Impl(P1, P2))],
        steps=[
            ProofStep(P0, HypStep("h")),
            ProofStep(Impl(P1, P2), HypStep("i")),
            ProofStep(P2, MPStep(1, 2)),
        ],
    )
    result = check_proof(CATALOG, proof)
    assert not result.ok and result.failed_step == 3


def test_dangling_index():
    proof = Proof(steps=[ProofStep(Box(P0), NecStep(1))])
    assert not check_proof(CATALOG, proof).ok


def test_adding_hypotheses_preserves_acceptance():
    proof = Proof(
        theory=[("h", P0)],
        steps=[ProofStep(P0, HypStep("h")), ProofStep(Box(P0), NecStep(1))],
    )
    assert check_proof(CATALOG, proof).ok
    proof.theory.append(("extra", Impl(P0, P1)))
    assert check_proof(CATALOG, proof).ok


def test_schema_match_binds_consistently():
    pattern = CATALOG.get("A2")
    target = Impl(And(P0, P0), P0)
    binding = match_schema(pattern, target)
    assert binding == {"alpha": P0, "beta": P0}
    assert instantiate(pattern, binding) == target
    assert match_schema(pattern, Impl(And(P0, P1), P1)) is None


BUNDLED = (
    "box-carries-implication",
    "box-idempotence",
    "box-top",
    "boxed-modus-ponens",
    "congruence-rule",
    "guarded-necessitation",
    "k-distribution",
)


def test_shipped_proof_files_check():
    files = sorted(proofs_dir().glob("*.prf"))
    assert [path.stem for path in files] == list(BUNDLED)
    for path in files:
        proof = parse_proof_text(path.read_text(encoding="utf-8"))
        assert proof.name == path.stem
        result = check_proof(CATALOG, proof)
        assert result.ok, (path.name, result.failed_step, result.reason)


def test_proof_file_round_trip():
    for path in sorted(proofs_dir().glob("*.prf")):
        text = path.read_text(encoding="utf-8")
        assert print_proof(parse_proof_text(text)) == text, path.name


def test_proof_at_depth_bound_checks_and_round_trips():
    # M1 instance box^(k+1) p0 -> box^k p0: a tree exactly MAX_DEPTH deep
    k = MAX_DEPTH - 3
    inner = "box " * k + "p0"
    text = f"step 1: box {inner} -> {inner} ; axiom M1 [alpha:={inner}]\n"
    proof = parse_proof_text(text)
    assert check_proof(CATALOG, proof).ok
    reparsed = parse_proof_text(print_proof(proof))
    assert reparsed.steps[0].formula == proof.steps[0].formula
    with pytest.raises(ProofFileError, match="levels deep"):
        parse_proof_text(text.replace("p0", "box p0"))


def test_proof_file_errors():
    with pytest.raises(ProofFileError):
        parse_proof_text("step 2: p0 ; hyp h\n")
    with pytest.raises(ProofFileError):
        parse_proof_text("step 1: p0 ; because\n")
    with pytest.raises(ProofFileError):
        parse_proof_text("junk line\n")
    with pytest.raises(ProofFileError):
        parse_proof_text("# only a comment\n")
    # a header without exactly one name, and a repeated hypothesis name
    for text, line, message in (
        ("proof a b c\nstep 1: top ; axiom A10\n", 1, "exactly one name"),
        ("# header\nproof\nstep 1: top ; axiom A10\n", 2, "exactly one name"),
        ("theory:\nh: p0\nh: p1\nstep 1: p1 ; hyp h\n", 3, "'h' is named twice"),
    ):
        with pytest.raises(ProofFileError, match=message) as exc:
            parse_proof_text(text)
        assert exc.value.line == line


@pytest.mark.parametrize(
    "theory,step,reason",
    [
        ((), ProofStep(P0, AxiomStep("Z9")), "unknown axiom schema Z9"),
        (
            (),
            ProofStep(Impl(And(P0, P1), P0), AxiomStep("A2", (("alpha", P0),))),
            "binding misses metavariables ['beta']",
        ),
        (
            (),
            ProofStep(Impl(Box(P0), P0), AxiomStep("M1", (("alpha", P0), ("zeta", Var(5))))),
            "binding names metavariables ['zeta'] that the schema lacks",
        ),
        ((), ProofStep(P0, HypStep("h")), "unknown hypothesis 'h'"),
        ((("h", P1),), ProofStep(P0, HypStep("h")), "hypothesis 'h' differs"),
        ((("h", P0),), ProofStep(P0, MPStep(1, 2)), "modus ponens indices"),
        ((("h", P0),), ProofStep(P0, MPStep(0, 1)), "modus ponens indices"),
        ((("h", P0),), ProofStep(Box(P1), NecStep(1)), "formula is not box of step 1"),
    ],
    ids=[
        "unknown-schema",
        "missing-label",
        "extra-label",
        "unknown-hypothesis",
        "hypothesis-differs",
        "mp-later-index",
        "mp-zero-index",
        "nec-not-box",
    ],
)
def test_each_rejection_names_its_reason(theory, step, reason):
    # the step under test follows one checking step per hypothesis
    steps = [ProofStep(f, HypStep(name)) for name, f in theory]
    proof = Proof(theory=list(theory), steps=steps + [step])
    result = check_proof(CATALOG, proof)
    assert not result.ok
    assert result.failed_step == len(proof.steps)
    assert reason in result.reason


def test_a_theory_line_that_starts_with_proof_is_a_hypothesis():
    text = "theory:\nproofh: p0\nstep 1: p0 ; hyp proofh\n"
    proof = parse_proof_text(text)
    assert proof.name == "" and proof.theory == [("proofh", P0)]
    assert check_proof(CATALOG, proof).ok
    assert print_proof(proof) == text


def test_builder_identity_and_lemmas():
    b = ProofBuilder(CATALOG)
    for build, expect in [
        (lambda: b.identity(P0), Impl(P0, P0)),
        (lambda: b.weaken(P0, P1), Impl(P0, Impl(P1, P0))),
        (lambda: b.fusion(P0, P1), Impl(And(P0, Impl(P0, P1)), P1)),
        (
            lambda: b.exchange_thm(P0, P1, P2),
            Impl(Impl(P0, Impl(P1, P2)), Impl(P1, Impl(P0, P2))),
        ),
        (lambda: b.box_idem(P0), Impl(Box(P0), Box(Box(P0)))),
        (
            lambda: b.k_distribution(P0, P1),
            Impl(Box(Impl(P0, P1)), Impl(Box(P0), Box(P1))),
        ),
        (
            lambda: b.box_collect(P0, P1),
            Impl(And(Box(P0), Box(P1)), Box(And(P0, P1))),
        ),
    ]:
        idx = build()
        assert b.formula_at(idx) == expect
    assert check_proof(CATALOG, b.proof).ok


def test_builder_power_split():
    b = ProofBuilder(CATALOG)
    h = Box(P0)
    idx = b.power_split(h, 2, 3)
    assert b.formula_at(idx) == Impl(power(h, 5), And(power(h, 2), power(h, 3)))
    assert check_proof(CATALOG, b.proof).ok


def test_builder_power_box_absorb():
    b = ProofBuilder(CATALOG)
    h = Box(P0)
    idx = b.power_box_absorb(h, 3)
    assert b.formula_at(idx) == Impl(power(h, 3), Box(power(h, 3)))
    assert check_proof(CATALOG, b.proof).ok


def test_transform_single_hypothesis():
    proof = Proof(theory=[("alpha", P0)], steps=[ProofStep(P0, HypStep("alpha"))])
    res = deduction_transform(CATALOG, proof, "alpha")
    assert res.exponent == 1
    assert res.conclusion == Impl(Box(P0), P0)
    assert check_proof(CATALOG, res.proof).ok
    # the output is a single M1 instance
    assert isinstance(res.proof.steps[-1].justification, AxiomStep)


def test_transform_nec_of_hypothesis():
    proof = Proof(
        theory=[("alpha", P0)],
        steps=[ProofStep(P0, HypStep("alpha")), ProofStep(Box(P0), NecStep(1))],
    )
    res = deduction_transform(CATALOG, proof, "alpha")
    assert res.exponent == 1
    assert res.conclusion == Impl(Box(P0), Box(P0))
    assert check_proof(CATALOG, res.proof).ok


def test_transform_squares_when_hypothesis_used_twice():
    b = ProofBuilder(CATALOG, [("alpha", P0)])
    ident = b.identity(And(P0, P0))
    curried = b.curry(ident)
    h = b.hyp("alpha")
    once = b.mp(h, curried)
    b.mp(h, once)
    res = deduction_transform(CATALOG, b.proof, "alpha")
    assert res.exponent == 2
    assert res.conclusion == Impl(power(Box(P0), 2), And(P0, P0))
    assert check_proof(CATALOG, res.proof).ok


def test_transform_mixed_guarded_premise_plain_implication():
    # alpha feeds the premise side; the implication comes from T
    proof = Proof(
        theory=[("alpha", P0), ("imp", Impl(P0, P1))],
        steps=[
            ProofStep(P0, HypStep("alpha")),
            ProofStep(Impl(P0, P1), HypStep("imp")),
            ProofStep(P1, MPStep(1, 2)),
        ],
    )
    res = deduction_transform(CATALOG, proof, "alpha")
    assert res.exponent == 1
    assert res.conclusion == Impl(Box(P0), P1)
    assert check_proof(CATALOG, res.proof).ok
    assert res.proof.theory == [("imp", Impl(P0, P1))]


def test_transform_plain_premise_guarded_implication():
    # alpha IS the implication; the premise comes from T
    proof = Proof(
        theory=[("alpha", Impl(P0, P1)), ("prem", P0)],
        steps=[
            ProofStep(P0, HypStep("prem")),
            ProofStep(Impl(P0, P1), HypStep("alpha")),
            ProofStep(P1, MPStep(1, 2)),
        ],
    )
    res = deduction_transform(CATALOG, proof, "alpha")
    assert res.exponent == 1
    assert res.conclusion == Impl(Box(Impl(P0, P1)), P1)
    assert check_proof(CATALOG, res.proof).ok


def test_transform_nec_over_squared_guard():
    # box the doubled-use conclusion: exponent survives necessitation
    b = ProofBuilder(CATALOG, [("alpha", P0)])
    ident = b.identity(And(P0, P0))
    curried = b.curry(ident)
    h = b.hyp("alpha")
    once = b.mp(h, curried)
    doubled = b.mp(h, once)
    b.nec(doubled)
    res = deduction_transform(CATALOG, b.proof, "alpha")
    assert res.exponent == 2
    assert res.conclusion == Impl(power(Box(P0), 2), Box(And(P0, P0)))
    assert check_proof(CATALOG, res.proof).ok


def test_transform_unused_hypothesis_weakens():
    proof = Proof(
        theory=[("alpha", P0)],
        steps=[ProofStep(Impl(Bot(), P1), AxiomStep("A10", (("alpha", P1),)))],
    )
    res = deduction_transform(CATALOG, proof, "alpha")
    assert res.exponent == 1
    assert res.conclusion == Impl(Box(P0), Impl(Bot(), P1))
    assert check_proof(CATALOG, res.proof).ok


def test_transform_foreign_formula_is_flagged():
    proof = Proof(steps=[ProofStep(Impl(Bot(), P1), AxiomStep("A10"))])
    res = deduction_transform(CATALOG, proof, P0)
    assert res.weakened
    assert res.conclusion == Impl(Box(P0), Impl(Bot(), P1))
    assert check_proof(CATALOG, res.proof).ok


def test_transform_rejects_invalid_input():
    proof = Proof(steps=[ProofStep(P0, AxiomStep("A10"))])
    with pytest.raises(ValueError, match="does not check"):
        deduction_transform(CATALOG, proof, P0)


def _random_valid_proof(seed: int) -> Proof:
    """A random checking proof over a small formula pool; the discharged
    hypothesis 'alpha' is always used at least once."""
    rng = random.Random(seed)
    pool = [P0, P1, Bot(), Box(P0), Impl(P0, P1), And(P0, P1), Min(P0, P1)]
    theory = [("alpha", rng.choice([P0, P1, Impl(P0, P1)])), ("h", Impl(P1, P0))]
    proof = Proof(theory=list(theory))

    def add(formula, justification):
        proof.steps.append(ProofStep(formula, justification))

    add(theory[0][1], HypStep("alpha"))
    schemas = [s for s in CATALOG.ids()]
    for _ in range(rng.randrange(6, 14)):
        action = rng.random()
        if action < 0.45:
            schema_id = rng.choice(schemas)
            pattern = CATALOG.get(schema_id)
            from umtl.logic.schemas import metavars_of

            binding = {m: rng.choice(pool) for m in metavars_of(pattern)}
            add(
                instantiate(pattern, binding),
                AxiomStep(schema_id, tuple(sorted(binding.items()))),
            )
        elif action < 0.6:
            add(theory[1][1], HypStep("h"))
        elif action < 0.75:
            i = rng.randrange(1, len(proof.steps) + 1)
            add(Box(proof.steps[i - 1].formula), NecStep(i))
        else:
            candidates = []
            for j, stj in enumerate(proof.steps, start=1):
                if isinstance(stj.formula, Impl):
                    for i, sti in enumerate(proof.steps, start=1):
                        if sti.formula == stj.formula.left:
                            candidates.append((i, j))
            if candidates:
                i, j = rng.choice(candidates)
                add(proof.steps[j - 1].formula.right, MPStep(i, j))
    return proof


@pytest.mark.parametrize("seed", range(20))
def test_transform_round_trip_on_random_proofs(seed):
    proof = _random_valid_proof(2025_0810 + seed)
    assert check_proof(CATALOG, proof).ok
    res = deduction_transform(CATALOG, proof, "alpha")
    assert check_proof(CATALOG, res.proof).ok
    alpha = proof.hypothesis("alpha")
    beta = proof.conclusion()
    assert res.conclusion == Impl(power(Box(alpha), res.exponent), beta)
    if res.exponent == 1:
        assert res.conclusion == Impl(Box(alpha), beta)
    # the discharged hypothesis is gone from the output theory
    assert all(name != "alpha" for name, _ in res.proof.theory)
