"""Exact derivation towers of finite-dimensional Leibniz algebras over Q.

The package computes, with rational arithmetic throughout, the chain

    Inner <= CAID <= RCAID <= AID <= Der

for a Leibniz algebra given by structure constants: the derivation algebra,
the right multiplications, the almost inner derivations (pointwise images of
right multiplications) and their centrally/right-annihilator restricted
variants.  Membership in AID is decided in three steps: the linear
candidate; the exact sampling walk, tested against the generators left
open; and refutation rounds.  Symbolic case-split certification of the
generators over Inner runs in the candidate, after each cut of the walk
and in each round.  So every reported dimension is
either certified exact or explicitly marked as a probabilistic upper bound.
An analysis runs in one basis, adapted to the lower central series, and
moves back to the given basis only what it reports.  `algebra` builds that
basis (`_AdaptedBasis`), `certify` holds the case-split elimination, which
knows no basis, and `derivations` runs the analysis in that basis and
moves into it and back out of it what the elimination reads and returns.
"""

from .exactlin import (
    Q,
    QONE,
    QZERO,
    NotASubspace,
    RationalMatrix,
    RrefResult,
    Subspace,
    as_rational,
    complement_in,
    format_rational,
    nullspace,
    rref,
    solve_linear,
    subspace_intersect,
    subspace_sum,
)
from .algebra import (
    Annihilators,
    IdentityViolation,
    IndexOutOfRange,
    LeibnizAlgebra,
    SeriesReport,
    SingularMatrix,
    annihilators,
    central_series,
    change_basis,
    direct_sum,
    from_json_dict,
    to_json_dict,
)
from .certify import CertOutcome, aid_witness
from .derivations import (
    AidConfig,
    AidResult,
    Analysis,
    AnalysisReport,
    DEFAULT_SEED,
    NotBracketClosed,
    aid_basis_candidate,
    aid_certify,
    aid_refine,
    aid_space,
    analysis,
    analysis_report,
    bracket,
    derivation_space,
    endo_to_vec,
    inner_space,
    matrix_unit,
    rcaid_caid,
    refinement_grid,
    restriction_witness,
    subalgebra_nilpotency,
    vec_to_endo,
)
from .catalog import (
    ArityMismatch,
    CatalogEntry,
    CatalogRef,
    ExpectedData,
    ParameterInvalid,
    UnknownCatalogRef,
    expected_for,
    list_entries,
    make,
    parse_ref,
)

__version__ = "0.1.0"

__all__ = [
    "Q",
    "QONE",
    "QZERO",
    "NotASubspace",
    "RationalMatrix",
    "RrefResult",
    "Subspace",
    "as_rational",
    "complement_in",
    "format_rational",
    "nullspace",
    "rref",
    "solve_linear",
    "subspace_intersect",
    "subspace_sum",
    "Annihilators",
    "IdentityViolation",
    "IndexOutOfRange",
    "LeibnizAlgebra",
    "SeriesReport",
    "SingularMatrix",
    "annihilators",
    "central_series",
    "change_basis",
    "direct_sum",
    "from_json_dict",
    "to_json_dict",
    "AidConfig",
    "AidResult",
    "Analysis",
    "AnalysisReport",
    "CertOutcome",
    "DEFAULT_SEED",
    "NotBracketClosed",
    "aid_basis_candidate",
    "aid_certify",
    "aid_refine",
    "aid_space",
    "aid_witness",
    "analysis",
    "analysis_report",
    "bracket",
    "derivation_space",
    "endo_to_vec",
    "inner_space",
    "matrix_unit",
    "rcaid_caid",
    "refinement_grid",
    "restriction_witness",
    "subalgebra_nilpotency",
    "vec_to_endo",
    "ArityMismatch",
    "CatalogEntry",
    "CatalogRef",
    "ExpectedData",
    "ParameterInvalid",
    "UnknownCatalogRef",
    "expected_for",
    "list_entries",
    "make",
    "parse_ref",
    "__version__",
]
