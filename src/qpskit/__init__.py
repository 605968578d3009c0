"""Symbolic and numeric verification of the canonical position/momentum/spin
operator algebra, relativistic generator decompositions, Newton-Wigner
localization behavior, and truncated Fock-space field/particle duality."""

from .coeffs import AlgebraContext, CoeffError, DEFAULT_CONTEXT, ScalarCoeff
from .expr import (ExprError, OperatorExpr, commutator, normal_form,
                   scalar_derivative, sym_product, total_time_derivative)
from .fock import (ExpectationCurves, FockConfigError, FockField, FockOperator,
                   PhasePoint, expectation_suite, fock_report, profile_fwhm)
from .generators import (GeneratorSet, bargmann_generators,
                         boost_matrix_identities, casimirs, check_table,
                         energy_momentum_constraint_check, foldy_generators,
                         lemma_suite, pauli_lubanski)
from .grid import (GridConfigError, GridRep, LinearMap, UnsupportedSymbolError,
                   gaussian_states, identity_map, map_commutator, operator_norm,
                   realize, residual_norm)
from .localization import (NWEvolutionResult, microcausality_check,
                           nw_evolution, nw_projector)
from .numcheck import (convergence_report, numeric_casimir_report,
                       numeric_lemma_report, numeric_pl_report,
                       numeric_residual_reports, numeric_table_report)
from .parser import ExprSyntaxError, UnknownSymbolError, parse_expr, render_expr
from .report import CheckEntry, VerificationReport
from .spin import SpinConfigError, eval_spin_matrices, matrix_is_zero, spin_matrices_exact

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "CoeffError", "DEFAULT_CONTEXT", "ScalarCoeff",
    "ExprError", "OperatorExpr", "commutator", "normal_form",
    "scalar_derivative", "sym_product", "total_time_derivative",
    "ExpectationCurves", "FockConfigError", "FockField", "FockOperator",
    "PhasePoint", "expectation_suite", "fock_report", "profile_fwhm",
    "GeneratorSet", "bargmann_generators", "boost_matrix_identities",
    "casimirs", "check_table", "energy_momentum_constraint_check",
    "foldy_generators", "lemma_suite", "pauli_lubanski",
    "GridConfigError", "GridRep", "LinearMap", "UnsupportedSymbolError",
    "gaussian_states", "identity_map", "map_commutator", "operator_norm",
    "realize", "residual_norm",
    "NWEvolutionResult", "microcausality_check", "nw_evolution", "nw_projector",
    "convergence_report", "numeric_casimir_report", "numeric_lemma_report",
    "numeric_pl_report", "numeric_residual_reports", "numeric_table_report",
    "ExprSyntaxError", "UnknownSymbolError", "parse_expr", "render_expr",
    "CheckEntry", "VerificationReport",
    "SpinConfigError", "eval_spin_matrices", "matrix_is_zero",
    "spin_matrices_exact",
]
