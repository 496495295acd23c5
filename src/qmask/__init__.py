"""Quantum information masking for finite-dimensional state sets.

Construct maskers, deterministic (no probe, unit efficiencies) for
mutually orthogonal states and probabilistic post-selected ones for
linearly independent states, maximize the masking success probability,
and verify the masking property (index-independent marginals)
numerically.

``import qmask`` loads no submodule and so no numpy: each public name,
and each submodule, is imported on first access through the module
``__getattr__`` (PEP 562). A ``python -m qmask`` process can thus turn
the garbage collector off before numpy loads (``qmask.__main__.run``).
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "fixed_reducing": (
        "FixedReducingSet", "build_distinct_spectrum", "build_general_spectrum",
        "build_uniform_spectrum", "cyclic_targets", "from_states", "marginal_deviations",
        "marginals", "targets_with_overlap",
    ),
    "hilbert": (
        "MARGINAL_TOL", "NORM_TOL", "MultipartiteState", "Operator", "StateVector",
        "basis_state", "fidelity", "gram", "hermitian_sqrt", "overlap", "partial_trace",
        "psd_check", "unitary_completion",
    ),
    "masker": (
        "Masker", "MaskingOutcome", "MaskingReport", "build_deterministic",
        "build_probabilistic", "failure_branches", "simulate", "verify_masking",
    ),
    "optimizer": (
        "certify", "dual_bound", "feasible", "max_prob_two", "maximize_general",
        "probability_curves", "residual_matrix", "success_probability",
        "uniform_feasibility_boundary",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "fileio")
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
