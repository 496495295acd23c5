"""Quantum information masking for finite-dimensional state sets.

Construct maskers, deterministic (no probe, unit efficiencies) for
mutually orthogonal states and probabilistic post-selected ones for
linearly independent states, maximize the masking success probability,
and verify the masking property (index-independent marginals)
numerically.
"""

from .fixed_reducing import (
    FixedReducingSet,
    build_distinct_spectrum,
    build_general_spectrum,
    build_uniform_spectrum,
    cyclic_targets,
    from_states,
    marginal_deviations,
    marginals,
    targets_with_overlap,
    verify_fixed_reducing,
)
from .hilbert import (
    MARGINAL_TOL,
    NORM_TOL,
    MultipartiteState,
    Operator,
    StateVector,
    basis_state,
    fidelity,
    gram,
    hermitian_sqrt,
    linearly_independent,
    overlap,
    partial_trace,
    psd_check,
    unitary_completion,
)
from .masker import (
    Masker,
    MaskingOutcome,
    MaskingReport,
    build_deterministic,
    build_probabilistic,
    failure_branches,
    simulate,
    verify_masking,
)
from .optimizer import (
    certify,
    dual_bound,
    feasible,
    max_prob_grid_oracle,
    max_prob_two,
    maximize_general,
    probability_curves,
    residual_matrix,
    success_probability,
    uniform_feasibility_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "MARGINAL_TOL",
    "NORM_TOL",
    "FixedReducingSet",
    "Masker",
    "MaskingOutcome",
    "MaskingReport",
    "MultipartiteState",
    "Operator",
    "StateVector",
    "basis_state",
    "build_deterministic",
    "build_distinct_spectrum",
    "build_general_spectrum",
    "build_probabilistic",
    "build_uniform_spectrum",
    "certify",
    "cyclic_targets",
    "dual_bound",
    "failure_branches",
    "feasible",
    "fidelity",
    "from_states",
    "gram",
    "hermitian_sqrt",
    "linearly_independent",
    "marginal_deviations",
    "marginals",
    "max_prob_grid_oracle",
    "max_prob_two",
    "maximize_general",
    "overlap",
    "partial_trace",
    "probability_curves",
    "psd_check",
    "residual_matrix",
    "simulate",
    "success_probability",
    "targets_with_overlap",
    "uniform_feasibility_boundary",
    "unitary_completion",
    "verify_fixed_reducing",
    "verify_masking",
]
