"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each criterion is one test with a hard tolerance and a runtime budget;
on success it prints a single PASS line (uncaptured), and on failure
pytest reports the test FAILED. Oracles here are recomputed inline from
first principles wherever a closed form exists, so a criterion never
checks an implementation against itself.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dpcomp.adaptive import (
    GridSpec,
    MechanismSequence,
    delta_opt_recursive,
    xyz_closed_forms,
)
from dpcomp.audit import audit_composed_dp, audit_trunc_gauss, audit_two_point
from dpcomp.calibration import HistogramSpec, solve_sigma_zcdp
from dpcomp.cli import figure_data
from dpcomp.mechanisms import (
    RngState,
    TruncGaussConfig,
    histogram_from_counts,
    ls_noise,
    sample_gaussian,
    trunc_gauss_release,
)
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
    eps_inverse,
)
from dpcomp.numerics import std_normal_cdf
from dpcomp.setwise import BoundedRange, Cdp, PureDP, SetwiseAccountant

from .oracles import mixed_brute_force_sup, single_br_position_invariance


@contextmanager
def criterion(capsys, number: int, label: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s")


def test_criterion_1_inversion_and_zcdp_calibration(capsys):
    """eps_inverse and solve_sigma_zcdp hit the reference operating point."""
    with criterion(capsys, 1, "budget inversion and sigma calibration", 1.0):
        eps_g = eps_inverse(1e-6, "dp", 25, 0.1)
        assert eps_g == pytest.approx(2.08, abs=0.01)
        # inversion really inverts: the bound at eps_g returns the target
        assert delta_opt_dp(25, 0.1, eps_g) == pytest.approx(1e-6, rel=1e-6)
        sigma = solve_sigma_zcdp(2.08, 25, 1e-6)
        assert sigma == pytest.approx(13.1, abs=0.05)
        # calibration really calibrates: rho + 2 sqrt(rho ln(1/delta)) = eps
        rho = 25 / (2.0 * sigma * sigma)
        assert rho + 2.0 * math.sqrt(rho * math.log(1e6)) == pytest.approx(2.08, abs=1e-9)


def test_criterion_2_mixed_bound_endpoints(capsys):
    """Mixed bound collapses to the pure-DP form at m=k and BR form at m=0."""
    with criterion(capsys, 2, "mixed bound endpoints m=k and m=0", 30.0):
        for k in range(1, 21):
            for eps in (0.1, 0.5, 1.0):
                for eps_g in np.linspace(0.0, 2.0 * eps, 50):
                    eg = float(eps_g)
                    all_dp = delta_opt_mixed(CompositionQuery(k=k, m=k, eps=eps, eps_g=eg))
                    assert abs(all_dp - delta_opt_dp(k, eps, eg)) <= 1e-12
                    all_br = delta_opt_mixed(CompositionQuery(k=k, m=0, eps=eps, eps_g=eg))
                    assert abs(all_br - delta_opt_br_nonadaptive(k, eps, eg)) <= 1e-12


def test_criterion_3_mixed_bound_vs_brute_force(capsys):
    """Closed-form mixed bound agrees with the product-distribution search."""
    with criterion(capsys, 3, "mixed bound vs brute-force supremum", 300.0):
        for k in range(1, 7):
            for m in range(k + 1):
                for eps in (0.5, 1.0):
                    for eps_g in np.linspace(0.0, 2.0 * eps, 10):
                        eg = float(eps_g)
                        closed = delta_opt_mixed(
                            CompositionQuery(k=k, m=m, eps=eps, eps_g=eg)
                        )
                        brute = mixed_brute_force_sup(k, m, eps, eg)
                        assert abs(closed - brute) <= 1e-9, (k, m, eps, eg)


def test_criterion_4_three_slot_orderings(capsys):
    """Closed forms for {DP,BR,BR} match the recursive evaluator; DP-first
    is strictly worst among the orderings that differ."""
    with criterion(capsys, 4, "adaptive three-slot closed forms", 60.0):
        eps = 1.0
        grid = GridSpec(points_per_level=4001, refine_rounds=60)
        orders = {
            "dp_br_br": ("dp", "br", "br"),
            "br_dp_br": ("br", "dp", "br"),
            "br_br_dp": ("br", "br", "dp"),
        }
        for eps_g in (0.1, 0.3, 0.5, 0.7, 0.9):
            forms = xyz_closed_forms(eps, eps_g)
            for name, slots in orders.items():
                rec = delta_opt_recursive(MechanismSequence(slots, eps), eps_g, grid)
                assert abs(getattr(forms, name) - rec) <= 1e-6, (name, eps_g)
            assert forms.dp_br_br > forms.br_dp_br, eps_g


def test_criterion_5_single_br_position_invariance(capsys):
    """With one BR slot among DP slots, the slot's position is irrelevant
    and the adaptive value equals the non-adaptive mixed bound."""
    with criterion(capsys, 5, "lone BR slot position invariance", 120.0):
        for k in (2, 3, 4):
            for eps_g in (0.25, 0.75):
                assert single_br_position_invariance(k, 1.0, eps_g, tol=1e-6)
                # the helper already compares against the mixed bound;
                # re-derive one position explicitly so the check is visible
                slots = tuple("br" if i == 0 else "dp" for i in range(k))
                rec = delta_opt_recursive(MechanismSequence(slots, 1.0), eps_g)
                ref = delta_opt_mixed(
                    CompositionQuery(k=k, m=k - 1, eps=1.0, eps_g=eps_g)
                )
                assert abs(rec - ref) <= 1e-6


def test_criterion_6_setwise_accountant(capsys):
    """Accountant's subgaussian route equals a hand-derived composition
    bound, and consumption order never changes the global bound."""
    with criterion(capsys, 6, "setwise accountant vs hand derivation", 10.0):
        delta = 1e-6
        # homogeneous pure-DP set, classic advanced-composition shape
        k, eps = 30, 0.2
        acc = SetwiseAccountant()
        for _ in range(k):
            acc.register(PureDP(eps))
        hand = k * eps * math.tanh(eps / 2.0) + math.sqrt(
            2.0 * k * eps * eps * math.log(1.0 / delta)
        )
        assert abs(acc.global_bound_cdp(delta) - hand) <= 1e-12

        # heterogeneous set: two DP, one BR, one explicit subgaussian pair
        acc = SetwiseAccountant()
        acc.register(PureDP(0.5)).register(PureDP(1.0))
        acc.register(BoundedRange(0.8)).register(Cdp(0.05, 0.3))
        r = 0.8 / math.expm1(0.8)
        mu = 0.5 * math.tanh(0.25) + 1.0 * math.tanh(0.5) + (r - 1.0 - math.log(r)) + 0.05
        var = 0.5**2 + 1.0**2 + (0.8 / 2.0) ** 2 + 0.3**2
        hand = mu + math.sqrt(2.0 * var * math.log(1.0 / delta))
        bound = acc.global_bound_cdp(delta)
        assert abs(bound - hand) <= 1e-12

        # consuming in any order leaves the bound untouched
        for seed in range(5):
            order = [PureDP(0.5), PureDP(1.0), BoundedRange(0.8), Cdp(0.05, 0.3)]
            random.Random(seed).shuffle(order)
            replay = SetwiseAccountant.from_json(acc.to_json())
            for g in order:
                replay.consume(g)
                assert abs(replay.global_bound_cdp(delta) - bound) <= 1e-12
            assert len(replay.consumed) == 4


def test_criterion_7_mechanism_invariants_and_audits(capsys):
    """Release pipelines keep their structural invariants and survive
    million-trial Monte-Carlo audits at three standard errors."""
    with criterion(capsys, 7, "mechanism invariants and MC audits", 300.0):
        spec = HistogramSpec(d=6, delta0=2, tau=1.0, d_bar=8)
        hist = histogram_from_counts(
            {"a": 120.0, "b": 80.0, "c": 75.0, "d": 40.0, "e": 10.0, "f": 3.0}, spec
        )
        ids = ["a", "b", "c", "d"]
        sub = hist.restrict(ids)
        for seed in range(20):
            out = ls_noise(sub, ids, 2.0, RngState(seed))
            values = [v for _, v in out]
            # monotone along the requested ordering, never negative
            assert all(x >= y >= 0.0 for x, y in zip(values, values[1:]))
            # projection contracts: the released vector sits no farther
            # from the true counts than the raw noisy draw does
            raw = [sub.count(i) for i in ids]
            draw = raw + sample_gaussian(RngState(seed).generator(), 2.0, size=len(ids))
            assert math.dist(values, raw) <= math.dist(draw, raw) + 1e-9

        config = TruncGaussConfig.from_target(spec, 2.0, 1e-4)
        s = spec.tau * config.sigma
        t_level = config.t_level
        # the window equation, re-derived from normal CDFs
        residual = (
            spec.delta0
            * (std_normal_cdf((spec.tau - t_level) / s) - std_normal_cdf(-t_level / s))
            / (std_normal_cdf(t_level / s) - std_normal_cdf(-t_level / s))
        )
        assert abs(residual - 1e-4) <= 1e-9
        for seed in range(20):
            for entry in trunc_gauss_release(hist, config, RngState(seed)):
                count = hist.count(entry.element)
                assert count - t_level <= entry.value <= count + t_level
                assert entry.value > spec.tau + t_level

        r1 = audit_two_point(1.0, 0.5, 0.25, 1_000_000, RngState(101))
        r2 = audit_composed_dp(3, 0.5, 0.75, 1_000_000, RngState(202))
        audit_spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        audit_cfg = TruncGaussConfig.from_target(audit_spec, 2.0, 1e-4)
        r3 = audit_trunc_gauss(audit_cfg, 1_000_000, RngState(303))
        for report in (r1, r2, r3):
            assert report.verdict == "consistent", report.to_json()
            assert report.empirical_delta <= report.bound_delta + 3.0 * report.std_error


def test_criterion_8_figure_data_properties(capsys):
    """Figure data regenerates from documented parameters and shows the
    qualitative story each figure is about."""
    with criterion(capsys, 8, "figure data regeneration and shape", 120.0):
        # fig 1: setwise bound grows with the DP fraction at every k
        params, header, rows = figure_data(1)
        assert params["figure"] == 1 and "eps" in params and "delta" in params
        i_k, i_m = header.index("k"), header.index("m")
        i_b = header.index("eps_g_setwise")
        by_k: dict = {}
        for r in rows:
            by_k.setdefault(r[i_k], []).append((r[i_m], r[i_b]))
        for k, pairs in by_k.items():
            pairs.sort()
            bounds = [b for _, b in pairs]
            assert all(x <= y + 1e-12 for x, y in zip(bounds, bounds[1:])), k

        # fig 2: at fixed eps_g the optimal delta grows with the DP count
        params, header, rows = figure_data(2)
        i_m, i_g, i_d = header.index("m"), header.index("eps_g"), header.index("delta")
        by_g: dict = {}
        for r in rows:
            by_g.setdefault(r[i_g], []).append((r[i_m], r[i_d]))
        for g, pairs in by_g.items():
            pairs.sort()
            deltas = [d for _, d in pairs]
            assert all(x <= y + 1e-12 for x, y in zip(deltas, deltas[1:])), g

        # fig 3: the DP-first ordering is never better
        _, header, rows = figure_data(3)
        i_ratio = header.index("ratio")
        assert all(r[i_ratio] >= 1.0 for r in rows)

        # fig 4: Laplace wins at small sensitivity, analytic Gaussian at large
        _, header, rows = figure_data(4)
        i_d, i_m, i_g = header.index("delta0"), header.index("method"), header.index("eps_g")
        table: dict = {}
        for r in rows:
            table.setdefault(r[i_d], {})[r[i_m]] = r[i_g]
        assert min(table[1], key=table[1].get) == "laplace_pure"
        assert min(table[50], key=table[50].get) == "gaussian_analytic"
        crossing = next(
            d for d in sorted(table) if table[d]["gaussian_analytic"] < table[d]["laplace_pure"]
        )
        assert 1 < crossing < 50

        # fig 5: Laplace wins only for a single release, zCDP route after
        _, header, rows = figure_data(5)
        i_k, i_m, i_g = header.index("k"), header.index("method"), header.index("eps_g")
        table = {}
        for r in rows:
            table.setdefault(r[i_k], {})[r[i_m]] = r[i_g]
        assert min(table[1], key=table[1].get) == "laplace_pure"
        k_crossing = next(
            k for k in sorted(table) if table[k]["gaussian_zcdp"] < table[k]["laplace_pure"]
        )
        assert k_crossing == 2
        for k in range(k_crossing, 11):
            assert table[k]["gaussian_zcdp"] < table[k]["laplace_pure"]

    with capsys.disabled():
        print(f"  fig4 crossover at delta0={crossing}, fig5 crossover at k={k_crossing}")
