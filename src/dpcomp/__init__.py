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

from .adaptive import (
    GridSpec,
    MechanismSequence,
    ThreeSlotDeltas,
    delta_opt_recursive,
    ordering_gap_curve,
    xyz_closed_forms,
)
from .audit import (
    AuditReport,
    audit_composed_dp,
    audit_trunc_gauss,
    audit_two_point,
    hockey_stick_exact,
    monte_carlo_delta,
)
from .calibration import (
    HistogramSpec,
    analytic_gaussian_delta,
    analytic_gaussian_eps,
    gaussian_zcdp_eps,
    kfold_comparison,
    laplace_eps_coord,
    single_release_comparison,
    solve_sigma_analytic,
    solve_sigma_zcdp,
)
from .mechanisms import (
    Histogram,
    ReleaseEntry,
    RngState,
    TruncGaussConfig,
    exp_mech_topk,
    gauss_cdp_guarantee,
    histogram_from_counts,
    histogram_from_text,
    known_gauss,
    known_lap_topk,
    ls_noise,
    solve_truncation_level,
    topk_release,
    trunc_gauss_release,
)
from .nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
    eps_inverse,
    grr_params,
)
from .numerics import BracketError, ConvergenceError
from .setwise import (
    BoundedRange,
    Cdp,
    PureDP,
    SetwiseAccountant,
    Zcdp,
    global_bound_homogeneous,
    zcdp_dp_guarantee,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # composition bounds
    "CompositionQuery",
    "delta_opt_dp",
    "delta_opt_br_nonadaptive",
    "delta_opt_mixed",
    "eps_inverse",
    "grr_params",
    # adaptive ordering
    "MechanismSequence",
    "GridSpec",
    "ThreeSlotDeltas",
    "delta_opt_recursive",
    "xyz_closed_forms",
    "ordering_gap_curve",
    # setwise accounting
    "PureDP",
    "BoundedRange",
    "Cdp",
    "Zcdp",
    "SetwiseAccountant",
    "global_bound_homogeneous",
    "zcdp_dp_guarantee",
    # calibration
    "HistogramSpec",
    "analytic_gaussian_delta",
    "analytic_gaussian_eps",
    "solve_sigma_analytic",
    "gaussian_zcdp_eps",
    "solve_sigma_zcdp",
    "laplace_eps_coord",
    "single_release_comparison",
    "kfold_comparison",
    # mechanisms
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
    # audits
    "AuditReport",
    "hockey_stick_exact",
    "monte_carlo_delta",
    "audit_two_point",
    "audit_composed_dp",
    "audit_trunc_gauss",
    # numerics errors surfaced by the solvers
    "BracketError",
    "ConvergenceError",
]
