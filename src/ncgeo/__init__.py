"""Finite-dimensional workbench for noncommutative spin^c and Riemannian geometries.

Everything is explicit dense linear algebra: spectral triples are matrix
data, the structure conditions are numerical checks with reported
residuals, and the conversions between the two structures are executable
constructions with machine-checkable certificates.
"""
from .linalg import Tolerance, herm_eig, operator_norm, span_basis
from .algebra import AlgebraBasis, generate_algebra, commutant, intertwiners, center, graded_split
from .report import CheckEntry, CheckReport
from .modules import ProjectiveModule
from .triples import (
    HochschildChain,
    SpectralTripleData,
    check_extras,
    check_finiteness,
    check_first_order,
    check_orientability,
    check_riemannian,
    check_spinc,
    fit_orientation_cycle,
    hochschild_boundary,
    represent_chain,
    run_condition_suite,
    validate_triple,
    zeta_diagnostic,
)
from .tomita import (
    AntiunitaryMap,
    check_fundamental_class,
    grading_from_cycle,
    mirror_dirac,
    opposite_action,
    tomita_conjugation,
)
from .kasparov import (
    BimoduleConnection,
    connection_condition_check,
    connection_decomposition,
    grassmann_connection,
    index_pairing,
    product_triple,
    twisted_operator,
)
from .convert import (
    CliffordModuleData,
    ConversionResult,
    appendix_equivalence_check,
    poincare_pairing_matrix,
    riemannian_to_spinc,
    round_trip_check,
    spinc_to_riemannian,
)
from .examples import build_example

__version__ = "0.1.0"
