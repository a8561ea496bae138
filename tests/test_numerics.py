"""Numerics primitives against exact and high-precision oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp.calibration import analytic_gaussian_eps, solve_sigma_analytic
from dpcomp.nonadaptive import eps_inverse
from dpcomp.numerics import (
    BracketError,
    ConvergenceError,
    _predicted_bracket,
    golden_max,
    log1mexp,
    log1pexp,
    log_binomial,
    log_recip,
    pava_monotone_nonneg,
    solve,
    std_normal_cdf,
)

from .oracles import logsumexp, qp_project_monotone_nonneg, stack_pava_monotone_nonneg


class TestLogBinomial:
    def test_frozen_large(self):
        # values from mp_log_binomial (exact math.comb integer, mpmath log)
        assert log_binomial(1000, 500) == pytest.approx(
            689.4672615678512, abs=1e-9
        )
        assert log_binomial(30, 12) == pytest.approx(18.275576645135224, abs=1e-12)

    def test_exact_small(self):
        for n in range(0, 31):
            for i in range(n + 1):
                exact = math.log(math.comb(n, i))
                assert log_binomial(n, i) == pytest.approx(exact, abs=1e-10)

    def test_edges(self):
        assert log_binomial(0, 0) == 0.0
        assert log_binomial(7, 0) == 0.0
        assert log_binomial(7, 7) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)
        with pytest.raises(ValueError):
            log_binomial(5, -1)

    @given(st.integers(0, 60), st.data())
    def test_symmetry_and_pascal(self, n, data):
        i = data.draw(st.integers(0, n))
        assert log_binomial(n, i) == pytest.approx(log_binomial(n, n - i), abs=1e-10)
        if 0 < i <= n:
            # Pascal: C(n+1,i) = C(n,i) + C(n,i-1), checked in linear space
            lhs = math.exp(log_binomial(n + 1, i))
            rhs = math.exp(log_binomial(n, i)) if i <= n else 0.0
            rhs += math.exp(log_binomial(n, i - 1))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLog1mexp:
    def test_frozen(self):
        # values from mp_log1mexp
        assert log1mexp(-1e-12) == pytest.approx(-27.631021115929048, abs=1e-9)
        assert log1mexp(-0.5) == pytest.approx(-0.9327521295671886, abs=1e-12)
        assert log1mexp(-40.0) == pytest.approx(-4.248354255291589e-18, rel=1e-12)

    def test_edges(self):
        assert log1mexp(0.0) == -math.inf
        assert log1mexp(-math.inf) == 0.0
        with pytest.raises(ValueError):
            log1mexp(1e-9)
        with pytest.raises(ValueError):
            log1mexp(math.nan)

    @given(st.floats(min_value=-50.0, max_value=-1e-14))
    def test_roundtrip(self, x):
        # e^log1mexp(x) + e^x should reconstruct 1
        assert math.exp(log1mexp(x)) + math.exp(x) == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=-700.0, max_value=700.0))
    def test_log1pexp_consistency(self, x):
        # ln(1+e^x) - x = ln(1+e^-x)
        assert log1pexp(x) - x == pytest.approx(log1pexp(-x), abs=1e-10)


class TestLogsumexp:
    def test_empty_and_neginf(self):
        assert logsumexp([]) == -math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_values(self):
        vals = [0.0, -1.0, -2.0, -math.inf]
        expected = math.log(1 + math.exp(-1) + math.exp(-2))
        assert logsumexp(vals) == pytest.approx(expected, rel=1e-14)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20))
    def test_matches_direct(self, vals):
        direct = math.log(sum(math.exp(v - max(vals)) for v in vals)) + max(vals)
        assert logsumexp(vals) == pytest.approx(direct, rel=1e-10)


class TestLogRecip:
    def test_is_log_of_reciprocal_where_that_is_finite(self) -> None:
        rng = random.Random(7)
        xs = [10.0 ** -rng.uniform(0.0, 308.0) for _ in range(2000)]
        xs += [0.5, 1e-6, 1e-300, 2.2250738585072014e-308, 5.6e-309]
        for x in xs:
            assert log_recip(x) == math.log(1.0 / x), x

    def test_finite_where_reciprocal_overflows(self) -> None:
        for x in (5.5e-309, 1e-310, 1e-320, 5e-324):
            assert 1.0 / x == math.inf
            assert log_recip(x) == -math.log(x)
        # 5e-324 is 2^-1074
        assert log_recip(5e-324) == pytest.approx(1074 * math.log(2.0), rel=1e-15)


class TestStdNormalCdf:
    def test_frozen_quadrature(self):
        # values from quad_normal_cdf (density quadrature, no erf route)
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-13)
        assert std_normal_cdf(-3.5) == pytest.approx(
            0.00023262907903552504, rel=1e-10
        )

    def test_center_and_tails(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(-40.0) >= 0.0
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, z):
        assert std_normal_cdf(z) + std_normal_cdf(-z) == pytest.approx(
            1.0, abs=1e-14
        )


def _halve(ok, lo, hi, tol_abs, tol_rel=0.0, max_iter=200):
    # solve with hi taken as passing, so only the halving runs
    return solve(
        ok, lo, hi, tol_abs=tol_abs, tol_rel=tol_rel, max_iter=max_iter, doublings=0
    )


class TestBisect:
    """The halving half of ``solve``, on brackets whose hi end is known."""

    def test_simple_root(self):
        root = _halve(lambda x: x * x - 2.0 >= 0.0, 0.0, 2.0, tol_abs=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)

    def test_budget_exhausted(self):
        with pytest.raises(ConvergenceError):
            _halve(lambda x: x >= 1.0 / 3.0, 0.0, 1.0, tol_abs=1e-12, max_iter=3)

    def test_endpoint_root(self):
        # the ends are never evaluated: a root at lo is closed in from above
        root = _halve(lambda x: x >= 0.0, 0.0, 1.0, tol_abs=1e-9)
        assert 0.0 < root <= 1e-9

    def test_decreasing_function(self):
        root = _halve(lambda x: 1.0 - x <= 0.0, 0.0, 3.0, tol_abs=1e-12)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_bracket_validation(self):
        seen = []

        def ok(x):
            seen.append(x)
            return True

        with pytest.raises(ValueError, match="lo < hi"):
            _halve(ok, 1.0, 0.0, tol_abs=1e-9)
        with pytest.raises(ValueError, match="must be positive"):
            _halve(ok, 0.0, 1.0, tol_abs=0.0)
        with pytest.raises(ValueError, match="finite"):
            _halve(ok, 0.0, math.inf, tol_abs=1e-9)
        with pytest.raises(ValueError, match="max_iter"):
            _halve(ok, 0.0, 1.0, tol_abs=1e-9, max_iter=0)
        assert seen == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_returns_hi_side_end(self, sign):
        # nine halvings: the midpoint of the final bracket lies below 1/3
        f = lambda x: sign * (x - 1.0 / 3.0)
        # ok holds where f has the sign it has at hi
        ok = (lambda x: f(x) >= 0.0) if sign > 0 else (lambda x: f(x) <= 0.0)
        root = _halve(ok, 0.0, 1.0, tol_abs=2e-3)
        assert sign * f(root) >= 0.0
        assert root - 1.0 / 3.0 <= 2e-3

    def test_stops_at_adjacent_floats(self):
        root = _halve(lambda x: x * x - 2.0 >= 0.0, 1.0, 2.0, tol_abs=5e-324)
        assert root * root - 2.0 > 0.0
        below = math.nextafter(root, 0.0)
        assert below * below - 2.0 < 0.0

    def test_relative_tolerance(self):
        calls = []

        def ok(x):
            calls.append(x)
            return x >= 1.5e6

        root = _halve(ok, 0.0, 4e6, tol_abs=0.0, tol_rel=1e-3)
        assert 0.0 <= root - 1.5e6 <= 1e-3 * root
        # 12 halvings reach width 4e6 / 2^12 < 1e-3 * 1.5e6; no end is evaluated
        assert len(calls) == 12

    def test_budget_spent_exactly_on_tolerance(self):
        # three halvings take [0, 1] to width 1/8 = tol_abs
        root = _halve(lambda x: x >= 1.0 / 3.0, 0.0, 1.0, tol_abs=0.125, max_iter=3)
        assert root == 0.375

    def test_halve_evaluates_interior_only(self):
        seen = []

        def ok(x):
            seen.append(x)
            return x >= 0.3

        assert _halve(ok, 0.0, 1.0, tol_abs=0.25) == 0.5
        assert seen == [0.5, 0.25]


class TestExpand:
    """The doubling half of ``solve``: ok(hi) is tested before each doubling."""

    @staticmethod
    def _expand(ok, doublings, tol_abs):
        return solve(
            ok, 0.0, 1.0, tol_abs=tol_abs, tol_rel=0.0, max_iter=200, doublings=doublings
        )

    def test_first_passing_point(self):
        seen = []

        def ok(x):
            seen.append(x)
            return x >= 5.0

        # a tolerance as wide as the found bracket returns its hi untouched
        assert self._expand(ok, 10, tol_abs=4.0) == 8.0
        assert seen == [1.0, 2.0, 4.0, 8.0]
        # one more halving shows lo moved up to the last failed point, 4
        seen.clear()
        assert self._expand(ok, 10, tol_abs=2.0) == 6.0
        assert seen == [1.0, 2.0, 4.0, 8.0, 6.0]

    def test_already_passing(self):
        seen = []

        def ok(x):
            seen.append(x)
            return True

        # one test of hi, then one halving of the untouched [0, 1]
        assert self._expand(ok, 1, tol_abs=0.5) == 0.5
        assert seen == [1.0, 0.5]

    def test_raises_bracket_error(self):
        seen = []

        def ok(x):
            seen.append(x)
            return False

        with pytest.raises(BracketError):
            self._expand(ok, 5, tol_abs=1e-9)
        assert seen == [1.0, 2.0, 4.0, 8.0, 16.0]


class TestPredictedWalk:
    """``solve`` with a predicted bracket walks the midpoints it walks without."""

    REL = 1e-9  # the noise the test curve declares, relative to its value

    @classmethod
    def _noisy(cls, x):
        # e^-x times noise inside the declared band, fixed for each x but
        # unrelated between neighbouring floats, so ok is not monotone
        # near the root
        return math.exp(-x) * (1.0 + 0.99 * cls.REL * random.Random(x).uniform(-1.0, 1.0))

    @classmethod
    def _predict(cls, f, target):
        return lambda lo, hi: _predicted_bracket(
            f, target, lo, hi, err=lambda x, fx: cls.REL * fx, x_err=lambda x: 0.0
        )

    @staticmethod
    def _counted(ok):
        calls = []

        def counted(x):
            calls.append(x)
            return ok(x)

        return counted, calls

    def test_noisy_curve_walks_as_plain(self):
        # every threshold and tolerance: same float, fewer ok calls
        saved = 0
        for i in range(200):
            target = math.exp(-0.05 - 9.9 * i / 199.0)
            ok = lambda x: self._noisy(x) <= target
            for tol_abs in (1e-9, 5e-324):
                plain, plain_calls = self._counted(ok)
                want = solve(plain, 0.0, 10.0, tol_abs=tol_abs, tol_rel=0.0, doublings=0)
                walked, walked_calls = self._counted(ok)
                got = solve(
                    walked, 0.0, 10.0, tol_abs=tol_abs, tol_rel=0.0, doublings=0,
                    predict=self._predict(self._noisy, target),
                )
                assert got == want, (target, tol_abs)
                assert set(walked_calls) <= set(plain_calls)
                saved += len(plain_calls) - len(walked_calls)
        assert saved > 0

    def test_zero_end_step_walks_as_plain_in_fewer_evaluations(self):
        # a curve that is exactly 0 at hi and vanishes linearly there, as a
        # composed bound does at k eps: roots near hi are reached by the
        # zero-end step, not by halving toward hi, and solve still returns
        # the plain walk's float
        def f(x):
            noise = 0.99 * self.REL * random.Random(x).random()
            return 0.0 if x >= 1.0 else (1.0 - x) * (1.0 - noise)

        evals = {False: 0, True: 0}
        for i in range(60):
            target = 10.0 ** (-0.5 - 11.0 * i / 59.0)
            ok = lambda x: f(x) <= target
            want = solve(ok, 0.0, 1.0, tol_abs=1e-15, tol_rel=0.0, doublings=0)
            for zero_end in evals:
                seen = []

                def counted(x):
                    seen.append(x)
                    return f(x)

                predict = lambda lo, hi: _predicted_bracket(
                    counted, target, lo, hi, err=lambda x, fx: self.REL * fx,
                    x_err=lambda x: 0.0, zero_end=zero_end,
                )
                got = solve(ok, 0.0, 1.0, tol_abs=1e-15, tol_rel=0.0, doublings=0,
                            predict=predict)
                assert got == want, (target, zero_end)
                evals[zero_end] += len(seen)
        assert evals[True] < evals[False] / 2

    def test_curve_stuck_at_target_evaluates_every_midpoint(self):
        # no point clears its band, so no midpoint is decided unseen
        values = []

        def f(x):
            values.append(x)
            return 0.5

        ok = lambda x: f(x) <= 0.5
        plain, plain_calls = self._counted(ok)
        want = solve(plain, 0.0, 1.0, tol_abs=1e-12, tol_rel=0.0, doublings=0)
        walked, walked_calls = self._counted(ok)
        got = solve(
            walked, 0.0, 1.0, tol_abs=1e-12, tol_rel=0.0, doublings=0,
            predict=self._predict(f, 0.5),
        )
        assert got == want
        assert walked_calls == plain_calls

    def test_budget_bracket_and_ends_unchanged(self):
        # max_iter counts decided midpoints too; a failed doubling raises
        # before any prediction; neither ok nor f ever sees lo
        f_seen = []

        def f(x):
            f_seen.append(x)
            return math.exp(-x)

        target = math.exp(-1.0 / 3.0)
        ok_seen = []

        def ok(x):
            ok_seen.append(x)
            return f(x) <= target

        with pytest.raises(ConvergenceError):
            solve(ok, 0.0, 1.0, tol_abs=1e-12, tol_rel=0.0, max_iter=3, doublings=0,
                  predict=self._predict(f, target))
        seen = len(f_seen)
        with pytest.raises(BracketError):
            solve(lambda x: False, 0.0, 1.0, tol_abs=1e-9, tol_rel=0.0, doublings=5,
                  predict=self._predict(f, target))
        assert len(f_seen) == seen
        got = solve(ok, 0.0, 1.0, tol_abs=1e-12, tol_rel=0.0, max_iter=40, doublings=0,
                    predict=self._predict(f, target))
        assert got == solve(lambda x: math.exp(-x) <= target, 0.0, 1.0, tol_abs=1e-12,
                            tol_rel=0.0, max_iter=40, doublings=0)
        assert 0.0 not in f_seen and 0.0 not in ok_seen
        assert all(0.0 < x < 1.0 for x in f_seen + ok_seen)


class TestGoldenMax:
    def test_interior_peak(self):
        best = golden_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0, 60)
        assert -1e-20 <= best <= 0.0

    def test_includes_endpoints(self):
        assert golden_max(lambda t: t, 0.25, 0.75, 0) == 0.75
        assert golden_max(lambda t: -t, 0.25, 0.75, 40) == -0.25

    def test_running_maximum_never_decreases(self):
        f = lambda t: math.sin(7.0 * t)
        values = [golden_max(f, 0.0, 1.0, r) for r in range(30)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


class TestSolverTable:
    """Values of the bracketing solvers frozen before they shared a core.

    Each is compared within the tolerance its solver was asked for.
    """

    @pytest.mark.parametrize(
        "delta, bound, k, eps, m, tol, want",
        [
            (1e-6, "dp", 10, 0.5, None, 1e-9, 4.999885471188463),
            (1e-6, "dp", 10, 0.5, None, 0.0, 4.9998854711099865),
            (1e-5, "br", 25, 0.3, None, 1e-9, 3.1089016562327743),
            (1e-3, "br", 4, 1.0, None, 1e-6, 3.043977737426758),
            (1e-6, "mixed", 12, 0.4, 5, 1e-9, 4.020799414627255),
            (1e-8, "mixed", 8, 0.9, 8, 0.0, 7.199999846788984),
            (1e-6, "dp", 10, 1e8, None, 1e-9, 999999999.999999),
            (0.05, "br", 30, 0.05, None, 1e-6, 0.010942697525024414),
        ],
    )
    def test_eps_inverse(self, delta, bound, k, eps, m, tol, want):
        assert eps_inverse(delta, bound, k, eps, m=m, tol=tol) == pytest.approx(
            want, rel=0.0, abs=tol
        )

    @pytest.mark.parametrize(
        "sigma, delta, want",
        [
            (1.0, 1e-6, 4.886554117463675),
            (0.05, 1e-9, 319.08196637546644),
            (3.7, 1e-5, 1.0090956502126573),
            (40.0, 1e-12, 0.15561382323539874),
            (0.8, 0.1, 1.7166816629624009),
        ],
    )
    def test_analytic_gaussian_eps(self, sigma, delta, want):
        got = analytic_gaussian_eps(sigma, delta)
        assert abs(got - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize(
        "eps, delta, want",
        [
            (1.0, 1e-6, 4.224678889328061),
            (0.01, 1e-9, 458.5084974972997),
            (5.0, 1e-5, 0.8918682649518814),
            (30.0, 1e-12, 0.28727211507407446),
            (0.3, 0.1, 1.9619682037628081),
        ],
    )
    def test_solve_sigma_analytic(self, eps, delta, want):
        assert abs(solve_sigma_analytic(eps, delta) - want) <= 1e-12 * want


class TestPava:
    def test_frozen_qp(self):
        # expected vectors from qp_project_monotone_nonneg (SLSQP)
        np.testing.assert_allclose(
            pava_monotone_nonneg([2.0, -4.0]), [2.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            pava_monotone_nonneg([1.0, 3.0]), [2.0, 2.0], atol=1e-12
        )
        np.testing.assert_allclose(
            pava_monotone_nonneg([5.0, 1.0, 4.0, 2.0, -1.0, 3.0]),
            [5.0, 2.5, 2.5, 2.0, 1.0, 1.0],
            atol=1e-12,
        )

    def test_already_feasible(self):
        v = [5.0, 4.0, 4.0, 0.5, 0.0]
        np.testing.assert_allclose(pava_monotone_nonneg(v), v, atol=0)

    def test_empty(self):
        assert pava_monotone_nonneg([]).size == 0

    def test_bytes_match_stack_reference(self):
        # seeded vectors with ties, at scales 1e-300 to 1e300 and lengths
        # 1 to 400, against the former slice-assigning block stack
        rng = np.random.default_rng(26)
        for trial in range(1500):
            n = int(rng.integers(1, 401)) if trial % 3 else int(rng.integers(1, 16))
            scale = 10.0 ** rng.integers(-300, 301)
            v = rng.normal(size=n)
            if trial % 2:
                v = np.round(v * 2.0) / 2.0  # heavy ties, zeros and -0.0
            v = v * scale
            got = pava_monotone_nonneg(v)
            want = stack_pava_monotone_nonneg(v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), trial

    def test_validation(self):
        with pytest.raises(ValueError):
            pava_monotone_nonneg([[1.0, 2.0]])
        with pytest.raises(ValueError):
            pava_monotone_nonneg([1.0, math.nan])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12)
    )
    def test_matches_qp_solver(self, vals):
        got = pava_monotone_nonneg(vals)
        want = qp_project_monotone_nonneg(vals)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.data(),
    )
    def test_feasible_and_no_better_point(self, vals, data):
        v = np.asarray(vals)
        x = pava_monotone_nonneg(v)
        assert np.all(np.diff(x) <= 1e-12)
        assert np.all(x >= 0.0)
        # projection must beat any other feasible point
        raw = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=60),
                min_size=len(vals),
                max_size=len(vals),
            )
        )
        y = np.sort(np.asarray(raw))[::-1]
        assert np.sum((x - v) ** 2) <= np.sum((y - v) ** 2) + 1e-9
