"""Composition accounting and release mechanisms for private histograms.

The package splits into pricing and releasing. Pricing: optimal
composition bounds for pure-DP, bounded-range, and mixed batches
(nonadaptive), their adaptive-order counterparts (adaptive), and a
set-based accountant that covers any adaptive order and subset up front
(setwise). Releasing: seeded top-k mechanisms over histograms together
with noise calibration (mechanisms, calibration) and Monte-Carlo audits
that check released pipelines against their priced guarantees (audit).

Everything randomized takes an explicit RngState, so any run is
reproducible from its seed alone.
"""

from __future__ import annotations

from importlib import import_module

# each submodule and the public names it defines, in __all__'s order
_PUBLIC = {
    "nonadaptive": (
        "CompositionQuery",
        "delta_opt_dp",
        "delta_opt_br_nonadaptive",
        "delta_opt_mixed",
        "eps_inverse",
        "grr_params",
    ),
    "adaptive": (
        "MechanismSequence",
        "GridSpec",
        "ThreeSlotDeltas",
        "delta_opt_recursive",
        "xyz_closed_forms",
        "ordering_gap_curve",
    ),
    "setwise": (
        "PureDP",
        "BoundedRange",
        "Cdp",
        "Zcdp",
        "SetwiseAccountant",
        "global_bound_homogeneous",
        "zcdp_dp_guarantee",
    ),
    "calibration": (
        "HistogramSpec",
        "analytic_gaussian_delta",
        "analytic_gaussian_eps",
        "solve_sigma_analytic",
        "gaussian_zcdp_eps",
        "solve_sigma_zcdp",
        "laplace_eps_coord",
        "single_release_comparison",
        "kfold_comparison",
    ),
    "mechanisms": (
        "Histogram",
        "histogram_from_counts",
        "histogram_from_text",
        "RngState",
        "exp_mech_topk",
        "ls_noise",
        "topk_release",
        "TruncGaussConfig",
        "ReleaseEntry",
        "solve_truncation_level",
        "trunc_gauss_release",
        "known_lap_topk",
        "known_gauss",
        "gauss_cdp_guarantee",
    ),
    "audit": (
        "AuditReport",
        "hockey_stick_exact",
        "monte_carlo_delta",
        "audit_two_point",
        "audit_composed_dp",
        "audit_trunc_gauss",
    ),
    "numerics": ("BracketError", "ConvergenceError"),  # errors the solvers raise
}

__version__ = "0.1.0"

for _module, _names in _PUBLIC.items():
    _source = import_module(f".{_module}", __name__)
    globals().update({_name: getattr(_source, _name) for _name in _names})
__all__ = ["__version__", *(_name for _names in _PUBLIC.values() for _name in _names)]
del import_module, _module, _names, _source
