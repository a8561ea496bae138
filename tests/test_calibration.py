"""Tests for noise calibration routes."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp.calibration import (
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
from dpcomp.nonadaptive import delta_opt_dp, eps_inverse

from .oracles import (
    laplace_histogram_delta,
    mp_analytic_gaussian_delta,
    mp_gaussian_zcdp_eps,
    plain_analytic_gaussian_eps,
    plain_solve_sigma_analytic,
)

SPEC = HistogramSpec(d=1000, delta0=25, tau=1.0, d_bar=1200)


class TestHistogramSpec:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            HistogramSpec(d=0, delta0=1, tau=1.0, d_bar=1)
        with pytest.raises(ValueError):
            HistogramSpec(d=10, delta0=0, tau=1.0, d_bar=10)
        with pytest.raises(ValueError):
            HistogramSpec(d=10, delta0=11, tau=1.0, d_bar=20)
        with pytest.raises(ValueError):
            HistogramSpec(d=10, delta0=2, tau=0.0, d_bar=10)
        with pytest.raises(ValueError):
            HistogramSpec(d=10, delta0=2, tau=1.0, d_bar=9)


class TestAnalyticGaussianDelta:
    def test_frozen(self) -> None:
        assert analytic_gaussian_delta(1.0, 1.0) == pytest.approx(
            0.12693673750664394, abs=1e-16
        )
        assert analytic_gaussian_delta(2.0, 0.5) == pytest.approx(
            0.05244032328766966, abs=1e-16
        )

    def test_negative_eps(self) -> None:
        # far below zero the divergence saturates at 1 - e^eps
        assert analytic_gaussian_delta(1.0, -3.0) == pytest.approx(
            0.9502894635852165, abs=1e-15
        )

    def test_extreme_eps_no_overflow(self) -> None:
        assert analytic_gaussian_delta(1.0, 800.0) == 0.0
        assert analytic_gaussian_delta(1.0, -800.0) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            analytic_gaussian_delta(0.0, 1.0)
        with pytest.raises(ValueError):
            analytic_gaussian_delta(1.0, math.inf)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=-5.0, max_value=30.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, sigma: float, eps: float) -> None:
        got = analytic_gaussian_delta(sigma, eps)
        want = float(mp_analytic_gaussian_delta(sigma, eps))
        assert got == pytest.approx(want, abs=1e-14)

    def test_total_variation_at_eps_zero(self) -> None:
        # Phi(a) - Phi(-a) cancels to 0 past sigma ~ 3.6e15; above 1e25
        # the 50-digit oracle itself loses digits
        for i in range(113):
            sigma = 10.0 ** (-3.0 + i / 4.0)
            want = mp_analytic_gaussian_delta(sigma, 0.0)
            assert analytic_gaussian_delta(sigma, 0.0) == pytest.approx(want, rel=1e-14)

    @given(st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_eps_and_sigma(self, sigma: float) -> None:
        deltas = [analytic_gaussian_delta(sigma, e) for e in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        assert analytic_gaussian_delta(sigma * 2.0, 1.0) <= analytic_gaussian_delta(
            sigma, 1.0
        )


class TestSolvers:
    def test_sigma_analytic_frozen(self) -> None:
        # independent high-precision bisection of the same curve
        assert solve_sigma_analytic(1.0, 1e-6) == pytest.approx(
            4.2246788893268352924, rel=1e-9
        )

    def test_eps_analytic_frozen(self) -> None:
        assert analytic_gaussian_eps(2.0, 1e-6) == pytest.approx(
            2.2540846502197409151, rel=1e-9
        )

    @given(
        st.floats(min_value=0.05, max_value=8.0),
        st.floats(min_value=1e-10, max_value=0.3),
    )
    @settings(max_examples=80, deadline=None)
    def test_sigma_analytic_roundtrip(self, eps: float, delta: float) -> None:
        sigma = solve_sigma_analytic(eps, delta)
        assert analytic_gaussian_delta(sigma, eps) <= delta * (1.0 + 1e-9)
        assert analytic_gaussian_delta(sigma * (1.0 - 1e-6), eps) > delta

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=1e-10, max_value=0.3),
    )
    @settings(max_examples=80, deadline=None)
    def test_eps_analytic_roundtrip(self, sigma: float, delta: float) -> None:
        eps = analytic_gaussian_eps(sigma, delta)
        assert analytic_gaussian_delta(sigma, eps) <= delta * (1.0 + 1e-9)
        if eps > 0.0:
            assert analytic_gaussian_delta(sigma, eps * (1.0 - 1e-6) - 1e-12) > delta

    def test_eps_analytic_zero_when_free(self) -> None:
        assert analytic_gaussian_eps(1e6, 0.1) == 0.0

    def test_eps_zero_solves_are_feasible(self) -> None:
        # the total variation at sigma 1e16 is 4e-17, so eps = 0 is no answer
        eps = analytic_gaussian_eps(1e16, 1e-20)
        assert eps > 0.0
        assert mp_analytic_gaussian_delta(1e16, eps) <= 1e-20
        for delta in (1e-6, 1e-12, 1e-20):
            sigma = solve_sigma_analytic(0.0, delta)
            assert mp_analytic_gaussian_delta(sigma, 0.0) <= delta
            assert mp_analytic_gaussian_delta(sigma * (1.0 - 1e-9), 0.0) > delta

    @staticmethod
    def _outcome(solver, *args):
        # the result, or the error a solve ends in (a BracketError beyond
        # 80 doublings), compared alike
        try:
            return solver(*args)
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    def test_eps_analytic_matches_plain_walk(self) -> None:
        # the predicted bracket decides midpoints exactly as evaluating them does
        rng = random.Random(53)
        differ = []
        for _ in range(1000):
            sigma = 10 ** rng.uniform(-3.0, 4.0)
            delta = 10 ** rng.uniform(-30.0, math.log10(0.9))
            got = self._outcome(analytic_gaussian_eps, sigma, delta)
            if got != self._outcome(plain_analytic_gaussian_eps, sigma, delta):
                differ.append((sigma, delta))
        assert differ == []

    def test_sigma_analytic_matches_plain_walk(self) -> None:
        # a fifth of the draws sit below eps = 3e-5, where the curve's
        # rounding floor swamps a small delta near the root
        rng = random.Random(59)
        differ = []
        for i in range(1000):
            top = math.log10(3e-5) if i % 5 == 0 else 3.0
            eps = 10 ** rng.uniform(-6.0, top)
            delta = 10 ** rng.uniform(-30.0, math.log10(0.9))
            got = self._outcome(solve_sigma_analytic, eps, delta)
            if got != self._outcome(plain_solve_sigma_analytic, eps, delta):
                differ.append((eps, delta))
        assert differ == []

    def test_zcdp_eps_frozen(self) -> None:
        assert gaussian_zcdp_eps(13.0937, 25, 1e-6) == pytest.approx(
            2.080181036086258, abs=1e-13
        )

    @given(
        st.floats(min_value=0.5, max_value=100.0),
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=1e-12, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_zcdp_eps_matches_oracle(self, sigma, delta0, delta) -> None:
        got = gaussian_zcdp_eps(sigma, delta0, delta)
        want = float(mp_gaussian_zcdp_eps(sigma, delta0, delta))
        assert got == pytest.approx(want, rel=1e-13)

    def test_sigma_zcdp_anchor(self) -> None:
        # noise scale answering the 25-fold budget anchor near 2.079
        assert solve_sigma_zcdp(2.079056471317263, 25, 1e-6) == pytest.approx(
            13.10054256777321, rel=1e-12
        )

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=1e-10, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_sigma_zcdp_roundtrip_exact(self, eps, delta0, delta) -> None:
        sigma = solve_sigma_zcdp(eps, delta0, delta)
        assert gaussian_zcdp_eps(sigma, delta0, delta) == pytest.approx(
            eps, rel=1e-12
        )

    def test_solver_validation(self) -> None:
        with pytest.raises(ValueError):
            solve_sigma_analytic(-1.0, 1e-6)
        with pytest.raises(ValueError):
            solve_sigma_analytic(1.0, 0.0)
        with pytest.raises(ValueError):
            solve_sigma_zcdp(0.0, 25, 1e-6)
        with pytest.raises(ValueError):
            gaussian_zcdp_eps(1.0, 0, 1e-6)


class TestLaplaceRoute:
    def test_eps_coord(self) -> None:
        # variance matching: Laplace scale tau*sigma/sqrt(2) has variance
        # (tau*sigma)^2, pricing each coordinate at sqrt(2)/sigma
        assert laplace_eps_coord(2.0) == pytest.approx(math.sqrt(2.0) / 2.0, abs=0.0)
        with pytest.raises(ValueError):
            laplace_eps_coord(0.0)

    def test_histogram_delta_is_composed_dp(self) -> None:
        got = laplace_histogram_delta(0.1, SPEC, 1.5)
        assert got == delta_opt_dp(25, 0.1, 1.5)


class TestComparisons:
    def test_single_release_rows(self) -> None:
        rows = single_release_comparison(SPEC, 13.1, 1e-6)
        by_method = {r["method"]: r for r in rows}
        assert set(by_method) == {
            "laplace_pure",
            "gaussian_zcdp",
            "gaussian_analytic",
        }
        assert by_method["laplace_pure"]["count"] == 25
        # exact curve dominates its zCDP relaxation at the same noise
        assert (
            by_method["gaussian_analytic"]["eps_g"]
            < by_method["gaussian_zcdp"]["eps_g"]
        )
        # Laplace eps_g consistent with inverting its own delta curve
        lap = by_method["laplace_pure"]
        assert laplace_histogram_delta(lap["eps_each"], SPEC, lap["eps_g"]) <= 1e-6

    def test_kfold_rows(self) -> None:
        spec = HistogramSpec(d=1000, delta0=10, tau=1.0, d_bar=1200)
        rows = kfold_comparison(5, spec, 10.0, 1e-6)
        by_method = {r["method"]: r for r in rows}
        assert set(by_method) == {
            "laplace_pure",
            "gaussian_zcdp",
            "gaussian_analytic_dp",
        }
        assert by_method["laplace_pure"]["count"] == 50
        assert by_method["gaussian_zcdp"]["count"] == 5
        for r in rows:
            assert r["eps_g"] > 0.0 and math.isfinite(r["eps_g"])

    @pytest.mark.parametrize("delta0, sigma", [(1, 2.0), (25, 13.1), (50, 0.7)])
    def test_single_release_is_kfold_at_one(self, delta0, sigma) -> None:
        # one release shares the Laplace and zCDP rows of k = 1, bit for bit
        spec = HistogramSpec(d=delta0, delta0=delta0, tau=1.0, d_bar=delta0)
        single = single_release_comparison(spec, sigma, 1e-6)
        kfold = kfold_comparison(1, spec, sigma, 1e-6)
        assert single[:2] == kfold[:2]
        assert [r["method"] for r in single[:2]] == ["laplace_pure", "gaussian_zcdp"]

    def test_kfold_matches_single_release_zcdp(self) -> None:
        # the rho sum is linear, so k releases at L0 = delta0 price like
        # one release at L0 = k * delta0
        spec = HistogramSpec(d=100, delta0=4, tau=1.0, d_bar=100)
        rows = kfold_comparison(3, spec, 8.0, 1e-6)
        zc = next(r for r in rows if r["method"] == "gaussian_zcdp")
        assert zc["eps_g"] == pytest.approx(
            gaussian_zcdp_eps(8.0, 12, 1e-6), rel=1e-15
        )

    def test_kfold_grid_beats_endpoint(self) -> None:
        # searching eps_1 never does worse than the minimal feasible one
        spec = HistogramSpec(d=100, delta0=10, tau=1.0, d_bar=100)
        rows = kfold_comparison(5, spec, 10.0, 1e-6)
        an = next(r for r in rows if r["method"] == "gaussian_analytic_dp")
        from dpcomp.nonadaptive import eps_inverse

        eps_min = analytic_gaussian_eps(10.0 / math.sqrt(10), 1e-6 / 10.0)
        endpoint = eps_inverse(5e-7, "dp", 5, eps_min)
        assert an["eps_g"] <= endpoint + 1e-12

    @pytest.mark.parametrize(
        "k, delta0, sigma, delta",
        [(5, 10, 10.0, 1e-6), (1, 1, 2.0, 1e-9), (10, 50, 3.0, 1e-4), (3, 1, 1e4, 0.5)],
    )
    def test_kfold_analytic_row_is_minimal_eps(self, k, delta0, sigma, delta) -> None:
        spec = HistogramSpec(d=delta0, delta0=delta0, tau=1.0, d_bar=delta0)
        rows = kfold_comparison(k, spec, sigma, delta)
        an = next(r for r in rows if r["method"] == "gaussian_analytic_dp")
        eps_min = analytic_gaussian_eps(sigma / math.sqrt(delta0), delta / (2.0 * k))
        eps_g = 0.0 if eps_min == 0.0 else eps_inverse(delta / 2.0, "dp", k, eps_min)
        assert (an["eps_each"], an["eps_g"]) == (eps_min, eps_g)

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=1e-3, max_value=3.0),
        st.floats(min_value=1.0, max_value=100.0, exclude_min=True),
        st.floats(min_value=-5.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_composed_dp_delta_nondecreasing_in_eps(self, k, eps, ratio, eps_g) -> None:
        # why the analytic k-fold row takes the smallest per-release eps
        assert delta_opt_dp(k, eps, eps_g) <= delta_opt_dp(k, eps * ratio, eps_g) + 1e-12

    def test_kfold_validation(self) -> None:
        with pytest.raises(ValueError):
            kfold_comparison(0, SPEC, 1.0, 1e-6)
        with pytest.raises(TypeError):
            kfold_comparison(2, SPEC, 1.0, 1e-6, grid_points=5)
