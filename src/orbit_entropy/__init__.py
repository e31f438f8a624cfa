"""Exact orbit cardinalities for the classical reflection families and
for symplectic groups over finite fields, together with the entropy
functionals their normalized logarithms converge to.

Everything that can be an integer or a rational is computed exactly;
floating point appears only in logarithms and in the two entropy
functionals that need them.
"""

from .dynkin import (
    FAMILIES,
    Diagram,
    flag_factors,
    group_order,
    parabolic_for_distribution,
    poincare_closed,
    poincare_parabolic,
    poincare_quotient,
    remove_nodes,
    surviving_components,
)
from .entropy import (
    CoarseMap,
    ProbVec,
    conditional,
    pushforward,
    reflective,
    reflective_chain_residual,
    shannon,
    shannon_chain_residual,
    symplectic_chain_residual,
    symplectic_entropy,
    tsallis2,
)
from .exact import (
    InexactDivisionError,
    IntPolynomial,
    exact_div,
    multinomial,
    q_factorial,
    q_multinomial,
)
from .reflection import (
    coarsening_cardinality_check,
    coarsening_poincare_check,
    normalized_log_orbit,
    orbit_count,
    orbit_poincare,
)
from .report import IdentityReport, chain_rule_check
from .symplectic import (
    FlagType,
    gl_order,
    ig_count,
    isotropic_flag_count,
    normalized_logq_quotient,
    sp_order,
    sp_quotient_closed,
    symplectic_chain_identity_check,
    unipotent_radical_order,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Diagram",
    "flag_factors",
    "group_order",
    "parabolic_for_distribution",
    "poincare_closed",
    "poincare_parabolic",
    "poincare_quotient",
    "remove_nodes",
    "surviving_components",
    "CoarseMap",
    "ProbVec",
    "conditional",
    "pushforward",
    "reflective",
    "reflective_chain_residual",
    "shannon",
    "shannon_chain_residual",
    "symplectic_chain_residual",
    "symplectic_entropy",
    "tsallis2",
    "InexactDivisionError",
    "IntPolynomial",
    "exact_div",
    "multinomial",
    "q_factorial",
    "q_multinomial",
    "coarsening_cardinality_check",
    "coarsening_poincare_check",
    "normalized_log_orbit",
    "orbit_count",
    "orbit_poincare",
    "IdentityReport",
    "chain_rule_check",
    "FlagType",
    "gl_order",
    "ig_count",
    "isotropic_flag_count",
    "normalized_logq_quotient",
    "sp_order",
    "sp_quotient_closed",
    "symplectic_chain_identity_check",
    "unipotent_radical_order",
]
