"""The package's public surface and the README quickstart."""

import re
from pathlib import Path

import dpcomp

README = Path(__file__).resolve().parents[1] / "README.md"

# a removal from dpcomp.__all__ is deliberate: edit this list with it
PUBLIC = [
    "AuditReport",
    "BoundedRange",
    "BracketError",
    "Cdp",
    "CompositionQuery",
    "ConvergenceError",
    "GridSpec",
    "Histogram",
    "HistogramSpec",
    "MechanismSequence",
    "PureDP",
    "ReleaseEntry",
    "RngState",
    "SetwiseAccountant",
    "ThreeSlotDeltas",
    "TruncGaussConfig",
    "Zcdp",
    "__version__",
    "analytic_gaussian_delta",
    "analytic_gaussian_eps",
    "audit_composed_dp",
    "audit_trunc_gauss",
    "audit_two_point",
    "delta_opt_br_nonadaptive",
    "delta_opt_dp",
    "delta_opt_mixed",
    "delta_opt_recursive",
    "eps_inverse",
    "exp_mech_topk",
    "gauss_cdp_guarantee",
    "gaussian_zcdp_eps",
    "global_bound_homogeneous",
    "grr_params",
    "histogram_from_counts",
    "histogram_from_text",
    "hockey_stick_exact",
    "kfold_comparison",
    "known_gauss",
    "known_lap_topk",
    "laplace_eps_coord",
    "ls_noise",
    "monte_carlo_delta",
    "ordering_gap_curve",
    "single_release_comparison",
    "solve_sigma_analytic",
    "solve_sigma_zcdp",
    "solve_truncation_level",
    "topk_release",
    "trunc_gauss_release",
    "xyz_closed_forms",
    "zcdp_dp_guarantee",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(dpcomp.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(dpcomp, name), name


def test_readme_quickstart_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert blocks[0] in text.split("\n## Quickstart\n")[1].split("\n## ")[0]
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # each value a comment states, to the digits it states
    stated = re.findall(r"^(\w+) = .*# (\d+\.(\d+))$", blocks[0], re.M)
    assert [name for name, _, _ in stated] == ["eps_g", "sigma"]
    for name, value, decimals in stated:
        assert round(namespace[name], len(decimals)) == float(value), name
    verdict = re.findall(r'^report\.verdict +# "(\w+)"$', blocks[0], re.M)
    assert verdict == [namespace["report"].verdict] == ["consistent"]
