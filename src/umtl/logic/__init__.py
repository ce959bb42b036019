from .formulas import (
    And,
    Bot,
    Box,
    Formula,
    Impl,
    MetaVar,
    Min,
    Var,
    parse_formula,
    print_formula,
    lor,
    neg,
    top,
    iff,
    variables_of,
)
from .schemas import SchemaCatalog, match_schema, instantiate
from .proofs import (
    Proof,
    ProofStep,
    AxiomStep,
    HypStep,
    MPStep,
    NecStep,
    CheckResult,
    check_proof,
    parse_proof_text,
    print_proof,
)
from .builder import ProofBuilder
from .transform import deduction_transform, TransformResult
from .semantics import (
    eval_formula,
    is_valid,
    consequence,
    countermodel_search,
    RuleInstance,
    soundness_audit,
    VariableBudgetError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
