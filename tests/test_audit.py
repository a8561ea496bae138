"""Tests for the exact and Monte-Carlo verification routes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp.audit import (
    AuditReport,
    audit_composed_dp,
    audit_trunc_gauss,
    audit_two_point,
    hockey_stick_exact,
    monte_carlo_delta,
)
from dpcomp.calibration import HistogramSpec, analytic_gaussian_delta
from dpcomp.mechanisms import RngState, TruncGaussConfig, sample_gaussian
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_dp,
    delta_opt_mixed,
    grr_params,
)

from .oracles import mixed_brute_force_sup, product_delta


class TestHockeyStickExact:
    def test_identical_pairs_vanish(self) -> None:
        pairs = [(0.3, 0.3), (0.9, 0.9), (0.5, 0.5)]
        for eps_g in (0.0, 0.5, 3.0):
            assert hockey_stick_exact(pairs, eps_g) == 0.0

    def test_single_pair_at_zero_is_total_variation(self) -> None:
        assert hockey_stick_exact([(0.7, 0.2)], 0.0) == pytest.approx(0.5, abs=1e-15)
        q, p = grr_params(2.0, 1.0).q, grr_params(2.0, 1.0).p
        assert hockey_stick_exact([(q, p)], 0.0) == pytest.approx(
            0.46211715726000974, abs=1e-15
        )

    def test_matches_brute_force_on_shared_instances(self) -> None:
        slots = [(0.3, 1.0), (0.9, 1.2), (0.1, 0.4), (0.25, 0.5)]
        pairs = [(grr_params(e, t).q, grr_params(e, t).p) for t, e in slots]
        for eps_g in (0.0, 0.7, 1.9, 3.5):
            assert hockey_stick_exact(pairs, eps_g) == pytest.approx(
                product_delta(pairs, eps_g), abs=1e-14
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.05, 2.0),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(0.0, 4.0),
    )
    def test_brute_force_agreement_property(self, raw, eps_g) -> None:
        slots = [(frac * eps, eps) for eps, frac in raw]
        pairs = [(grr_params(e, t).q, grr_params(e, t).p) for t, e in slots]
        assert hockey_stick_exact(pairs, eps_g) == pytest.approx(
            product_delta(pairs, eps_g), abs=1e-14
        )

    def test_matches_dp_closed_form(self) -> None:
        # worst-case pure-DP product against the k-fold formula
        for k in range(1, 7):
            for eps in (0.1, 0.5, 1.0):
                pair = grr_params(2.0 * eps, eps)
                for eps_g in np.linspace(0.0, k * eps, 8):
                    assert hockey_stick_exact(
                        [(pair.q, pair.p)] * k, float(eps_g)
                    ) == pytest.approx(delta_opt_dp(k, eps, float(eps_g)), abs=1e-10)

    def test_permutation_invariant(self) -> None:
        pairs = [(0.9, 0.4), (0.3, 0.25), (0.6, 0.1)]
        base = hockey_stick_exact(pairs, 0.4)
        assert hockey_stick_exact(pairs[::-1], 0.4) == pytest.approx(base, abs=1e-15)

    def test_monotone_in_eps_g(self) -> None:
        pairs = [(0.8, 0.3), (0.5, 0.2)]
        values = [hockey_stick_exact(pairs, g) for g in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            hockey_stick_exact([], 0.0)
        with pytest.raises(ValueError):
            hockey_stick_exact([(0.5, 0.5)] * 21, 0.0)
        with pytest.raises(ValueError):
            hockey_stick_exact([(1.2, 0.5)], 0.0)
        with pytest.raises(ValueError):
            hockey_stick_exact([(0.5, 0.5)], -0.1)


class TestMixedBruteForce:
    def test_pure_dp_case(self) -> None:
        for eps_g in (0.8, -0.5):
            assert mixed_brute_force_sup(3, 3, 0.5, eps_g) == pytest.approx(
                delta_opt_dp(3, 0.5, eps_g), abs=1e-12
            )

    def test_matches_mixed_closed_form(self) -> None:
        for k in (2, 3, 4):
            for m in range(0, k):
                for eps in (0.5, 1.0):
                    for eps_g in (0.2, 0.8, 1.5):
                        want = delta_opt_mixed(
                            CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g)
                        )
                        got = mixed_brute_force_sup(k, m, eps, eps_g)
                        assert got == pytest.approx(want, abs=1e-9)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            mixed_brute_force_sup(3, 4, 0.5, 0.8)
        with pytest.raises(ValueError):
            mixed_brute_force_sup(3, 1, 0.5, 0.8, grid_points=1)


class TestAuditReport:
    def test_verdict_threshold(self) -> None:
        base = dict(
            mechanism="m", eps_g=1.0, bound_delta=0.1, std_error=0.01
        )
        assert AuditReport(empirical_delta=0.13, **base).verdict == "consistent"
        assert AuditReport(empirical_delta=0.1300001, **base).verdict == "violation"

    def test_json_payload(self) -> None:
        report = AuditReport(
            mechanism="m",
            eps_g=1.0,
            empirical_delta=0.05,
            std_error=0.01,
            bound_delta=0.1,
            metadata={"n_trials": 100000},
        )
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "consistent"
        assert payload["metadata"]["n_trials"] == 100000
        assert set(payload) == {
            "mechanism",
            "eps_g",
            "empirical_delta",
            "std_error",
            "bound_delta",
            "verdict",
            "metadata",
        }


class TestMonteCarloDelta:
    def test_two_point_at_own_eps_is_zero(self) -> None:
        # both likelihood ratios sit exactly at e^eps, so the mass is 0
        for seed in range(5):
            report = audit_two_point(2.0, 1.0, 1.0, 10**5, RngState(seed))
            assert report.bound_delta == 0.0
            assert report.verdict == "consistent"

    def test_two_point_at_zero_recovers_total_variation(self) -> None:
        report = audit_two_point(2.0, 1.0, 0.0, 10**5, RngState(3))
        assert report.empirical_delta == pytest.approx(
            0.46211715726000974, abs=0.01
        )
        assert report.verdict == "consistent"

    def test_deterministic_in_seed(self) -> None:
        a = audit_two_point(2.0, 1.0, 0.5, 10**5, RngState(11))
        b = audit_two_point(2.0, 1.0, 0.5, 10**5, RngState(11))
        assert (a.empirical_delta, a.std_error) == (b.empirical_delta, b.std_error)

    def test_composed_dp_consistent_across_seeds(self) -> None:
        for seed in range(5):
            for eps_g in (0.0, 0.75, 1.5):
                report = audit_composed_dp(3, 0.5, eps_g, 10**5, RngState(seed))
                assert report.verdict == "consistent", (seed, eps_g)

    def test_composed_dp_tracks_closed_form(self) -> None:
        report = audit_composed_dp(3, 0.5, 0.5, 2 * 10**5, RngState(1))
        assert report.empirical_delta == pytest.approx(
            delta_opt_dp(3, 0.5, 0.5), abs=0.01
        )

    def test_continuous_pair_through_quantile_bins(self) -> None:
        # unit-shift Gaussians: the binned estimate tracks the analytic
        # curve; bin merging pulls it down, fitting the event to the
        # noise pushes it up, both within the stated tolerance here
        def shifted(mu: float):
            def sample(gen, n):
                return mu + sample_gaussian(gen, 1.0, size=n)

            return sample

        eps_g = 0.5
        true_delta = 0.2384217081348768
        assert true_delta == pytest.approx(
            analytic_gaussian_delta(1.0, eps_g), abs=1e-15
        )
        est, se = monte_carlo_delta(
            shifted(1.0), shifted(0.0), eps_g, 2 * 10**5, RngState(5)
        )
        assert est == pytest.approx(true_delta, abs=0.012)
        assert est >= true_delta - 3.0 * se - 0.005

    def test_nan_outcomes_form_their_own_category(self) -> None:
        # P always outputs, Q never does: at eps_g=0 the two laws are
        # disjoint and the estimated mass is 1
        def always(gen, n):
            return gen.random(n)

        def never(gen, n):
            return np.full(n, np.nan)

        est, _ = monte_carlo_delta(always, never, 0.0, 10**5, RngState(2))
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_validation(self) -> None:
        def sampler(gen, n):
            return gen.random(n)

        with pytest.raises(ValueError):
            monte_carlo_delta(sampler, sampler, 0.5, 10**4, RngState(0))
        with pytest.raises(ValueError):
            monte_carlo_delta(sampler, sampler, -0.5, 10**5, RngState(0))
        with pytest.raises(ValueError):
            monte_carlo_delta(sampler, sampler, 0.5, 10**5, RngState(0), n_bins=1)

        def bad_shape(gen, n):
            return gen.random(n + 1)

        with pytest.raises(ValueError):
            monte_carlo_delta(bad_shape, bad_shape, 0.5, 10**5, RngState(0))


class TestTruncGaussAudit:
    def test_consistent_across_seeds(self) -> None:
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        config = TruncGaussConfig.from_target(spec, 2.0, 1e-4)
        for seed in range(3):
            report = audit_trunc_gauss(config, 10**5, RngState(seed))
            assert report.verdict == "consistent", seed
            assert report.bound_delta == pytest.approx(1e-6 + 1e-4, abs=1e-15)

    def test_converted_eps_matches_concentration_form(self) -> None:
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        config = TruncGaussConfig.from_target(spec, 2.0, 1e-4)
        report = audit_trunc_gauss(config, 10**5, RngState(0), conversion_delta=1e-6)
        rho = 1.0 / 8.0
        assert report.eps_g == pytest.approx(
            rho + 2.0 * math.sqrt(rho * math.log(1e6)), abs=1e-12
        )

    def test_tight_at_small_eps_g(self) -> None:
        # the same instance audited at a tiny budget should show real mass
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        config = TruncGaussConfig.from_target(spec, 2.0, 1e-2)

        def windowed(count: float):
            from scipy.special import ndtri

            from dpcomp.numerics import std_normal_cdf

            s = config.tau * config.sigma
            lo = std_normal_cdf(-config.t_level / s)
            hi = std_normal_cdf(config.t_level / s)

            def sample(gen, n):
                v = count + s * ndtri(lo + gen.random(n) * (hi - lo))
                return np.where(v > config.tau + config.t_level, v, np.nan)

            return sample

        est, se = monte_carlo_delta(
            windowed(config.tau + config.t_level),
            windowed(config.t_level),
            0.0,
            10**5,
            RngState(4),
        )
        # at eps_g=0 the release probabilities alone separate the laws
        from dpcomp.numerics import std_normal_cdf

        s = config.tau * config.sigma
        den = std_normal_cdf(config.t_level / s) - std_normal_cdf(-config.t_level / s)
        p_hi = 0.5
        p_lo = (
            std_normal_cdf(config.t_level / s) - std_normal_cdf(config.tau / s)
        ) / den
        assert est >= p_hi - p_lo - 3.0 * se
