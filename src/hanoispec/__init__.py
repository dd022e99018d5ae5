"""Numerical spectral analysis on Hanoi attractor graph approximations."""

from .sequences import (
    MatchingPair,
    MatchingSequence,
    ScaleFactors,
    constant,
    explicit,
    geometric_to_limit,
    make_pair,
    predicted_dimensions,
    scale_factors,
    validate_conditions,
)
from .geometry import GraphApprox, build_graph, cell_corner_ids, enumerate_words
from .assembly import (
    Pencil,
    apply_dirichlet,
    assemble_decoupled,
    assemble_neumann,
)
from .eigensolve import (
    InertiaResult,
    Spectrum,
    count_below,
    eig_dense,
)
from .resistance import (
    cell_diameter_scaling,
    compatibility_check,
    effective_resistance,
    harmonic_extension,
)
from .analysis import (
    CountingSample,
    FitResult,
    GraphCounts,
    WindowPolicy,
    bracketing_check,
    counting_function,
    eigenvalue_brackets,
    fit_exponent,
    one_dim_reference,
    run_counting_experiment,
    weyl_ratio,
)

__version__ = "0.1.0"
