"""umtl: finite MTL-algebras with universal quantifiers.

Validation, quantifier enumeration, filter/quotient/decomposition
structure, desk-scale theorem audits, and a Hilbert-style proof checker
with countermodel search for the associated modal logic.
"""

from .core import (
    FiniteMTLAlgebra,
    InvalidAlgebraError,
    SubvarietyProfile,
    Violation,
    chain_algebra,
    check_mtl_tables,
    classify,
    validate,
)
from .quantifier import (
    InvalidQuantifierError,
    UMTLAlgebra,
    UniversalQuantifier,
    check_mba_axioms,
    check_umv_axioms,
    delta_table,
    enumerate_quantifiers,
    identity_table,
    make_umtl,
    properties_suite,
    quantifier_violations,
    relativization_table,
    validate_quantifier,
)
from .corpus import bundled_corpus, corpus_dir, example_3_2, proofs_dir

__version__ = "0.1.0"
