"""Harmonic analysis on compact groups with Gevrey classification.

Fourier transforms on the torus, SU(2) and SO(3), decay-based
Gevrey-Roumieu/Beurling tests, ultradistribution duality, and the
sphere as a class-I quotient of SO(3).
"""

from .calculus import (
    Symbol,
    alpha_symbol,
    apply_symbol,
    canonical_word,
    first_order_constant,
    laplacian_power_apply,
    p_alpha_symbol,
    sobolev_norm,
    vector_field_symbol,
)
from .duality import (
    alpha_dual_series_probe,
    continuity_modulus,
    delta_sequence,
    growth_sequence,
    pair,
    pairing_diagnostic,
    perfectness_roundtrip,
    ultra_membership_test,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    DataError,
    DomainError,
    GevreyKitError,
    IllPairedError,
    InsufficientDataError,
    ResourceError,
)
from .fourier import (
    CoefficientField,
    forward_transform,
    hausdorff_young_gap,
    inverse_on_grid,
    inverse_transform,
    lp_norm,
    plancherel_inner,
    plancherel_norm,
)
from .gevrey import (
    DecayModel,
    GevreyVerdict,
    cross_check,
    fit_decay,
    fourier_side_test,
    space_side_test,
    synthesize_gevrey,
)
from .groups import (
    DualCatalog,
    GroupSpec,
    RepInfo,
    enumerate_dual,
    series_convergence_probe,
)
from .parallel import worker_count
from .quadrature import GroupGrid, band_for_catalog, build_grid, sample_function
from .sphere import (
    ClassIStructure,
    lift,
    project_class_one,
    sphere_gevrey_test,
    sphere_series,
    sphere_ultra_test,
)
from .verification import run_suite

__version__ = "0.1.0"

__all__ = [
    "CoefficientField",
    "ClassIStructure",
    "ConfigurationError",
    "ContractViolation",
    "DataError",
    "DecayModel",
    "DomainError",
    "DualCatalog",
    "GevreyKitError",
    "GevreyVerdict",
    "GroupGrid",
    "GroupSpec",
    "IllPairedError",
    "InsufficientDataError",
    "RepInfo",
    "ResourceError",
    "Symbol",
    "alpha_dual_series_probe",
    "alpha_symbol",
    "apply_symbol",
    "band_for_catalog",
    "build_grid",
    "canonical_word",
    "continuity_modulus",
    "cross_check",
    "delta_sequence",
    "enumerate_dual",
    "first_order_constant",
    "fit_decay",
    "forward_transform",
    "fourier_side_test",
    "growth_sequence",
    "hausdorff_young_gap",
    "inverse_on_grid",
    "inverse_transform",
    "laplacian_power_apply",
    "lift",
    "lp_norm",
    "p_alpha_symbol",
    "pair",
    "pairing_diagnostic",
    "perfectness_roundtrip",
    "plancherel_inner",
    "plancherel_norm",
    "project_class_one",
    "run_suite",
    "sample_function",
    "series_convergence_probe",
    "sobolev_norm",
    "space_side_test",
    "sphere_gevrey_test",
    "sphere_series",
    "sphere_ultra_test",
    "synthesize_gevrey",
    "ultra_membership_test",
    "vector_field_symbol",
    "worker_count",
]
