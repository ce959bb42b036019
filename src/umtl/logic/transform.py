"""Constructive deduction-theorem transform.

Given a checking proof of beta from T together with a discharged
hypothesis alpha, produce a checking proof from T minus alpha whose
conclusion is (box alpha)^n -> beta.  The exponent starts at 1 and grows
only when modus ponens combines two subproofs that both use alpha; the
plain box alpha -> beta form is therefore produced exactly when the
discharged hypothesis is used linearly.  A global exponent-1 form is not
achievable: box alpha -> (box alpha & box alpha) fails in the semantics
(e.g. the identity quantifier on the 3-element Lukasiewicz chain), so no
sound calculus can collapse the power.
"""

from __future__ import annotations

from typing import NamedTuple

from .builder import ProofBuilder, power
from .formulas import Box, Formula, Impl, print_formula
from .proofs import (
    AxiomStep,
    HypStep,
    MPStep,
    NecStep,
    Proof,
    check_proof,
)
from .schemas import SchemaCatalog, match_schema


class TransformResult(NamedTuple):
    proof: Proof
    exponent: int
    conclusion: Formula
    weakened: bool = False

    def describe(self) -> str:
        tag = " (weakened: hypothesis unused)" if self.weakened else ""
        return (
            f"exponent {self.exponent}: {print_formula(self.conclusion)}{tag}"
        )


def deduction_transform(
    catalog: SchemaCatalog, proof: Proof, discharge: str | Formula
) -> TransformResult:
    """Discharge a hypothesis, marked by name or by formula."""
    verdict = check_proof(catalog, proof)
    if not verdict:
        raise ValueError(
            f"input proof does not check: step {verdict.failed_step}, "
            f"{verdict.reason}"
        )
    if isinstance(discharge, str):
        alpha = proof.hypothesis(discharge)
        if alpha is None:
            raise ValueError(f"no hypothesis named {discharge!r}")
        discharged_name = discharge
    else:
        alpha = discharge
        discharged_name = next(
            (n for n, f in proof.theory if f == alpha), None
        )
    beta = proof.conclusion()
    h = Box(alpha)
    remaining = [
        (n, f) for n, f in proof.theory if n != discharged_name
    ]
    builder = ProofBuilder(catalog, remaining)

    # tags[k] = ("plain", idx) proving step k itself from the remaining
    # theory, or ("guarded", n, idx) proving (box alpha)^n -> step k.
    tags: list[tuple] = []
    for step in proof.steps:
        just = step.justification
        if isinstance(just, AxiomStep):
            binding = dict(just.binding) if just.binding is not None else None
            if binding is None:
                binding = match_schema(catalog.get(just.schema_id), step.formula)
            idx = builder.axiom(just.schema_id, **binding)
            tags.append(("plain", idx))
        elif isinstance(just, HypStep):
            if just.name == discharged_name:
                idx = builder.axiom("M1", alpha=alpha)
                tags.append(("guarded", 1, idx))
            else:
                tags.append(("plain", builder.hyp(just.name)))
        elif isinstance(just, MPStep):
            tags.append(
                _transform_mp(
                    builder, h, tags[just.premise - 1], tags[just.implication - 1]
                )
            )
        elif isinstance(just, NecStep):
            tags.append(_transform_nec(builder, h, tags[just.premise - 1]))
        else:
            raise AssertionError(just)

    kind, *rest = tags[-1]
    if kind == "plain":
        # alpha unused (or not a hypothesis at all): weaken by the guard
        w = builder.weaken(beta, h)
        final = builder.mp(rest[0], w)
        exponent = 1
    else:
        exponent, final = rest
    return TransformResult(
        builder.proof,
        exponent,
        builder.formula_at(final),
        weakened=discharged_name is None,
    )


def _transform_mp(builder: ProofBuilder, h: Formula, tag_premise, tag_impl):
    if tag_premise[0] == "plain" and tag_impl[0] == "plain":
        return ("plain", builder.mp(tag_premise[1], tag_impl[1]))
    if tag_premise[0] == "guarded" and tag_impl[0] == "plain":
        # h^n -> phi  and  phi -> psi: chain them.
        n, idx = tag_premise[1], tag_premise[2]
        return ("guarded", n, builder.trans(idx, tag_impl[1]))
    if tag_premise[0] == "plain" and tag_impl[0] == "guarded":
        # phi  and  h^n -> (phi -> psi): assert phi under the guard.
        n, idx = tag_impl[1], tag_impl[2]
        impl = builder.formula_at(idx)
        assert isinstance(impl, Impl) and isinstance(impl.right, Impl)
        asserted = builder.assertion(tag_premise[1], impl.right.right)
        return ("guarded", n, builder.trans(idx, asserted))
    # both guarded: fuse the guards, powers add.
    a, idx_premise = tag_premise[1], tag_premise[2]
    b, idx_impl = tag_impl[1], tag_impl[2]
    phi = builder.formula_at(idx_premise).right
    impl = builder.formula_at(idx_impl).right
    assert isinstance(impl, Impl) and impl.left == phi
    m1 = builder.mono_conj(idx_premise, idx_impl)
    m2 = builder.fusion(phi, impl.right)
    m3 = builder.trans(m1, m2)
    m4 = builder.power_split(h, a, b)
    return ("guarded", a + b, builder.trans(m4, m3))


def _transform_nec(builder: ProofBuilder, h: Box, tag):
    if tag[0] == "plain":
        return ("plain", builder.nec(tag[1]))
    n, idx = tag[1], tag[2]
    phi = builder.formula_at(idx).right
    k1 = builder.nec(idx)
    k2 = builder.k_distribution(power(h, n), phi)
    k3 = builder.mp(k1, k2)
    k4 = builder.power_box_absorb(h, n)
    return ("guarded", n, builder.trans(k4, k3))
