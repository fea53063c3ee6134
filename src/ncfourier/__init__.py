"""Exact and Monte Carlo computations for Fourier multipliers on group von
Neumann algebras: finite-group multiplier norms and identities, restriction
and periodization machinery, and the Lie-geometric volume scaling behind the
conjugation-survival lower bounds."""

from .groups import (
    AlgebraElement,
    FiniteGroup,
    GroupSubset,
    SubgroupEmbedding,
    build_embedding,
    build_group,
    conjugate_set,
    convolve,
    involution,
    parse_subset,
    regular_matrix,
)
from .liealg import (
    AlgebraVector,
    GroupMatrix,
    LieModel,
    ad_operator,
    adjoint_norm,
    build_model,
    exp_density,
    max_nilpotent_dim,
    nilpotent_orbit_dim,
    orbit_min_norm,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    Neighborhood,
    delta_lower_bound_check,
    delta_mc,
    delta_mc_finite,
    growth_fit,
    key_lemma_ratio,
    main_term_deviation,
    sl2z_count,
    volume_mc,
)
from .multipliers import (
    NormEstimate,
    OptimizerConfig,
    Symbol,
    apply_multiplier,
    consummation_residual,
    estimate_norm,
    nested_residual,
    restrict_symbol,
    symbol_from_spec,
    translation_residual,
)
from .nclp import (
    conjugate_exponent,
    lp_norm,
    plancherel_trace,
)
from .restriction import (
    DeltaValue,
    PreconditionError,
    ResidualReport,
    delta_exact,
    embedding_contraction_residual,
    embedding_lower_residual,
    gram_matrix,
    lattice_maps_report,
    periodization_residual,
    restriction_consistency,
)
from .transference import hertz_schur_transference_residual

__version__ = "0.1.0"
