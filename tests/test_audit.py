"""Tests for the exact and Monte-Carlo verification routes."""

import json
import math
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp.audit import (
    _LOG_MAX,
    _MAX_OUTCOME,
    _MAX_RESPONSES,
    _SAMPLE_ROWS,
    AuditReport,
    _category_counts,
    _exp_times,
    _pooled_quantiles,
    _second_outcome_sampler,
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

from .oracles import (
    mixed_brute_force_sup,
    product_delta,
    searchsorted_category_counts,
    serial_monte_carlo_delta,
    where_windowed_sampler,
)

# two_point(eps=1.0, t=0.3) at eps_g 0.2 and the one-bin trunc_gauss
# instance (sigma 1, delta 1e-3) at conversion slack 0.1, both with 1e5
# trials, as produced by the per-trial binary-search categorizer
# (oracles.searchsorted_category_counts); composed_dp(k=12, eps=0.1) at
# eps_g 0.5 and seed 1, as produced when each audit built its own report
TWO_POINT_JSON = (
    '{\n  "bound_delta": 0.07578655941618495,\n  "empirical_delta": 0.07206458523846726,'
    '\n  "eps_g": 0.2,\n  "mechanism": "two_point(eps=1.0, t=0.3)",\n  "metadata": {'
    '\n    "binning": "atoms(2)",\n    "n_trials": 100000,'
    '\n    "note": "binning biases the estimate downward; consistency check only"\n  },'
    '\n  "std_error": 0.0022224413336074584,\n  "verdict": "consistent"\n}'
)
TRUNC_GAUSS_JSON = (
    '{\n  "bound_delta": 0.101,\n  "empirical_delta": 0.011832855808386923,'
    '\n  "eps_g": 2.645966026289347,\n  "mechanism": "trunc_gauss(sigma=1.0, tau=1.0)",'
    '\n  "metadata": {\n    "binning": "quantile(1000)",\n    "conversion_delta": 0.1,'
    '\n    "counts": [\n      5.083730058647234,\n      4.083730058647234\n    ],'
    '\n    "n_trials": 100000,'
    '\n    "note": "binning biases the estimate downward; consistency check only"\n  },'
    '\n  "std_error": 0.001605170338617728,\n  "verdict": "consistent"\n}'
)

COMPOSED_DP_JSON = (
    '{\n  "bound_delta": 0.015027239815465793,\n  "empirical_delta": 0.015210545072765345,'
    '\n  "eps_g": 0.5,\n  "mechanism": "composed_dp(k=12, eps=0.1)",\n  "metadata": {'
    '\n    "binning": "atoms(13) by the count of second outcomes",\n    "n_trials": 100000,'
    '\n    "note": "binning biases the estimate downward; consistency check only"\n  },'
    '\n  "std_error": 0.001587354717385489,\n  "verdict": "consistent"\n}'
)


@st.composite
def _outcome_samples(draw):
    """Two samples over 1 to n_bins + 1 distinct finite values, each drawn
    at least once, plus NaN, with +-0.0, +-inf and heavy ties."""
    n_bins = draw(st.integers(2, 12))
    # half the cases hold one distinct value too many for atoms
    n_distinct = draw(st.one_of(st.just(n_bins + 1), st.integers(1, n_bins)))
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, math.inf, -math.inf]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=n_distinct,
            max_size=n_distinct,
            unique=True,
        )
    )
    pool = np.array(values + [math.nan])
    extra = draw(st.lists(st.integers(0, n_distinct), max_size=150))
    picks = draw(st.permutations(list(range(n_distinct)) + extra))
    negate = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    outcomes = pool[picks]
    # a zero drawn twice may carry either sign
    outcomes[np.array(negate) & (outcomes == 0.0)] *= -1.0
    cut = draw(st.integers(0, len(picks)))
    return outcomes[:cut], outcomes[cut:], n_bins


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

    def test_unchanged_up_to_the_overflow_point(self) -> None:
        # e^eps_g times the mass, as a product, wherever e^eps_g is a float
        x = np.array([0.0, 5e-324, 1e-310, 0.25, 1.0, 7.0])
        assert math.exp(_LOG_MAX) < math.inf
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(_LOG_MAX, math.inf))
        with np.errstate(over="ignore"):
            for eps_g in (0.0, 0.3, 700.0, 709.0, _LOG_MAX):
                assert _exp_times(eps_g, x).tolist() == (math.exp(eps_g) * x).tolist()

    def test_past_the_overflow_point(self) -> None:
        # e^eps_g overflows above ln(max float) = 709.78..., but its
        # product with a subnormal mass is a float, and a zero mass stays 0
        pairs = [(0.5, 1e-310), (0.3, 0.0)]
        for eps_g in (709.0, 710.0, 720.0, 1e4):
            assert hockey_stick_exact(pairs, eps_g) == pytest.approx(
                product_delta(pairs, eps_g), rel=1e-12
            )

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


class TestCategoryCounts:
    @settings(max_examples=400, deadline=None)
    @given(_outcome_samples())
    def test_matches_per_trial_binning(self, case) -> None:
        xs, ys, n_bins = case
        if (np.abs(np.concatenate([xs, ys])) > np.finfo(float).max / 2).any():
            with pytest.raises(ValueError, match="magnitude"):
                _category_counts(np.sort(xs), np.sort(ys), n_bins)
            return
        got = _category_counts(np.sort(xs), np.sort(ys), n_bins)
        want = searchsorted_category_counts(xs, ys, n_bins)
        assert got[2] == want[2]
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    def test_outcomes_beyond_half_the_float_range_rejected(self) -> None:
        # b - a overflows in np.quantile's a + (b - a) t, so these finite
        # outcomes would give a quantile edge of inf
        xs = np.array([-1.7e308, 1.6e308, 1.7e308])
        ys = np.array([-1.6e308, 1.5e308])
        with pytest.raises(ValueError, match="magnitude"):
            _category_counts(xs, ys, 3)
        with pytest.raises(ValueError, match="magnitude"):
            _category_counts(ys, np.array([0.0]), 3)
        half = np.finfo(float).max / 2
        xs, ys = np.array([-half, 1.0, half]), np.array([-1.0, half, np.nan])
        got = _category_counts(xs, ys, 3)
        want = searchsorted_category_counts(xs, ys, 3)
        assert got[2] == want[2] == "quantile(3)"
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_quantile_and_atom_modes(self) -> None:
        gen = np.random.default_rng(0)
        xs = np.where(gen.random(5000) < 0.1, np.nan, gen.normal(size=5000))
        ys = gen.normal(size=4000)
        for n_bins, mode in ((1000, "quantile(1000)"), (10000, "atoms(8473)")):
            got = _category_counts(np.sort(xs), np.sort(ys), n_bins)
            want = searchsorted_category_counts(xs, ys, n_bins)
            assert got[2] == want[2] == mode
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def _targeted_samples():
    """(xs, ys, n_bins) at the corners of the categorizer, unsorted."""
    gen = np.random.default_rng(30)
    normal = gen.normal(size=3000)
    with_nan = np.where(gen.random(20000) < 0.2, np.nan, gen.normal(size=20000))
    near_max = _MAX_OUTCOME * np.concatenate([[-1.0, 1.0], gen.uniform(-1, 1, 1998)])
    cases = {
        "second law all NaN": (normal, np.full(500, np.nan), 1000),
        "first law all NaN": (np.full(700, np.nan), normal, 1000),
        "single finite value": (np.array([np.nan, 2.5, np.nan]), np.full(4, np.nan), 2),
        "all tied": (np.full(2000, -3.0), np.full(1500, -3.0), 2),
        "tied integers past n_bins": (
            gen.integers(0, 20, 3000).astype(float),
            gen.integers(5, 30, 2000).astype(float),
            7,
        ),
        "near max/2, 3 bins": (near_max[:600], near_max[600:], 3),
        "near max/2, 1000 bins": (near_max[:300], near_max[300:], 1000),
        "disjoint laws": (normal + 50.0, normal[:1000], 1000),
    }
    for n_bins in (2, 3, 1000, 10000):
        cases[f"{n_bins} bins"] = (with_nan[:12000], with_nan[12000:], n_bins)
    return cases


class TestOrderStatisticEdges:
    """The quantile edges read from the two sorted samples."""

    TARGETED = _targeted_samples()

    @pytest.mark.parametrize("case", sorted(TARGETED))
    def test_targeted_cases_match_per_trial_binning(self, case) -> None:
        xs, ys, n_bins = self.TARGETED[case]
        got = _category_counts(np.sort(xs), np.sort(ys), n_bins)
        want = searchsorted_category_counts(xs, ys, n_bins)
        assert got[2] == want[2], case
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w), case

    def test_edges_equal_numpy_quantile(self) -> None:
        # normal, integer ties and +-1e100 Cauchy, 0 to 3000 values a
        # side and 2 to 1200 edges; equal floats, the sign of a zero aside
        gen = np.random.default_rng(31)
        draws = (
            lambda n: gen.normal(size=n),
            lambda n: gen.integers(-10, 10, size=n).astype(float),
            lambda n: 1e100 * gen.standard_cauchy(size=n),
        )
        for case in range(600):
            draw = draws[case % 3]
            na, nb = gen.integers(0, 3001, size=2)
            a, b = np.sort(draw(max(na, 1))), np.sort(draw(nb))
            q = np.linspace(0.0, 1.0, gen.integers(2, 1201))
            want = np.quantile(np.concatenate([a, b]), q)
            assert np.array_equal(_pooled_quantiles(a, b, q), want), case
            assert np.array_equal(_pooled_quantiles(b, a, q), want), case


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

    def test_eps_g_past_the_overflow_point(self) -> None:
        # e^720 overflows; every sampled category of the second law then
        # outweighs the first, and only the ones it never hit count
        report = audit_two_point(2.0, 1.0, 720.0, 10**5, RngState(3))
        assert report.bound_delta == 0.0
        assert report.empirical_delta == 0.0 and report.std_error == 0.0

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

    def test_no_finite_outcome_has_no_mass(self) -> None:
        # both laws put all mass on "no output", so they coincide
        def never(gen, n):
            return np.full(n, np.nan)

        for eps_g in (0.0, 1.0):
            est = monte_carlo_delta(never, never, eps_g, 10**5, RngState(2))
            assert est == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_outcomes_rejected(self, bad) -> None:
        def with_inf(gen, n):
            out = gen.random(n)
            out[n // 2] = bad
            return out

        def plain(gen, n):
            return gen.random(n)

        for sample_p, sample_q in ((with_inf, plain), (plain, with_inf)):
            with pytest.raises(ValueError, match="infinite"):
                monte_carlo_delta(sample_p, sample_q, 0.5, 10**5, RngState(0))

    @pytest.mark.parametrize("k", [1, 3, 12, 100])
    def test_blocked_draws_match_one_shot(self, k) -> None:
        # a trial count that is not a multiple of the block size; at
        # k = 100 the block is capped by its cells, below _SAMPLE_ROWS
        n = 2 * _SAMPLE_ROWS + 1234
        first_prob = grr_params(0.6, 0.3).q
        got = _second_outcome_sampler(first_prob, k)(RngState(4).generator(), n)
        one_shot = (RngState(4).generator().random((n, k)) >= first_prob).sum(axis=1)
        assert np.array_equal(got, one_shot.astype(float))

    def test_composed_dp_consistent_for_long_products(self) -> None:
        # binning every bit string overfits the empirical event once 2^k
        # nears the trial count; the count of second outcomes is exact
        for k in (10, 16, 25):
            for seed in range(3):
                report = audit_composed_dp(k, 0.1, 0.5, 10**5, RngState(seed))
                assert report.verdict == "consistent", (k, seed)
                assert report.metadata["binning"] == (
                    f"atoms({k + 1}) by the count of second outcomes"
                )

    def test_reports_match_per_trial_binning(self) -> None:
        assert audit_two_point(1.0, 0.3, 0.2, 10**5, RngState(7)).to_json() == (
            TWO_POINT_JSON
        )
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        config = TruncGaussConfig.from_target(spec, 1.0, 1e-3)
        report = audit_trunc_gauss(config, 10**5, RngState(3), conversion_delta=0.1)
        assert report.to_json() == TRUNC_GAUSS_JSON
        assert audit_composed_dp(12, 0.1, 0.5, 10**5, RngState(1)).to_json() == (
            COMPOSED_DP_JSON
        )

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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_trials": 100000.0}, "n_trials"),
            ({"n_trials": 2.5e5}, "n_trials"),
            ({"n_bins": 2.5}, "n_bins"),
            ({"n_bins": 1000.0}, "n_bins"),
        ],
    )
    def test_non_integer_counts_refused(self, kwargs, name) -> None:
        # refused before any substream is seeded or any thread starts
        class NoDraws:
            def substream(self, index):
                raise AssertionError("a substream was seeded")

        def sampler(gen, n):
            raise AssertionError("a sampler ran")

        call = {"n_trials": 10**5, **kwargs}
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            monte_carlo_delta(sampler, sampler, 0.5, rng=NoDraws(), **call)
        assert threading.active_count() == threads

    def test_composed_dp_past_the_response_limit_refused(self, monkeypatch) -> None:
        # k * n_trials = 1e10 used to run the sampler for hours; refused
        # before any draw, and the limit itself is accepted
        def drawn(*args, **kwargs):
            raise AssertionError("the audit drew")

        monkeypatch.setattr("dpcomp.audit.monte_carlo_delta", drawn)
        with pytest.raises(ValueError, match="k = 100000 and n_trials = 100000 make"):
            audit_composed_dp(100000, 0.001, 1.0, 10**5, RngState(0))
        with pytest.raises(ValueError, match="k = 5001 and n_trials = 100000 make"):
            audit_composed_dp(_MAX_RESPONSES // 10**5 + 1, 1.0, 1.0, 10**5, RngState(0))
        with pytest.raises(AssertionError, match="drew"):
            audit_composed_dp(_MAX_RESPONSES // 10**5, 1.0, 1.0, 10**5, RngState(0))

    def test_numpy_integer_counts_accepted(self) -> None:
        def sampler(gen, n):
            return gen.random(n)

        want = monte_carlo_delta(sampler, sampler, 0.5, 10**5, RngState(6), n_bins=50)
        got = monte_carlo_delta(
            sampler, sampler, 0.5, np.int64(10**5), RngState(6), n_bins=np.int32(50)
        )
        assert repr(got) == repr(want)


class _PError(Exception):
    pass


class _QError(Exception):
    pass


def _uniform(gen, n):
    return gen.random(n)


def _shifted_gaussian(mu: float):
    def sample(gen, n):
        return mu + sample_gaussian(gen, 1.0, size=n)

    return sample


def _sometimes_nan(miss: float):
    # uniform outcomes on 100 atoms, NaN ("no output") with probability miss
    def sample(gen, n):
        u = gen.random(n)
        return np.where(u < miss, np.nan, np.floor(u * 100.0))

    return sample


def _raising(error: type[Exception], delay: float = 0.0):
    def sample(gen, n):
        gen.random(n)
        time.sleep(delay)
        raise error("raised by the sampler")

    return sample


class TestConcurrentDraws:
    """The two laws drawn on two threads give the serial estimate."""

    # (sample_p, sample_q, eps_g, n_bins), each run on its own seeds
    GENERIC = {
        "nan-emitting": (_sometimes_nan(0.3), _sometimes_nan(0.1), 0.2, 1000),
        "quantile-binned": (_shifted_gaussian(1.0), _shifted_gaussian(0.0), 0.5, 1000),
        "few quantile bins": (_shifted_gaussian(0.5), _uniform, 0.0, 7),
    }

    @staticmethod
    def _trials(seed: int) -> int:
        # 1e5 to 3e5, most of them off a multiple of the sampler block
        return 10**5 + (seed * 7919) % (2 * 10**5 + 1)

    @pytest.mark.parametrize("case", sorted(GENERIC))
    def test_generic_pairs_match_serial(self, case) -> None:
        sample_p, sample_q, eps_g, n_bins = self.GENERIC[case]
        offset = 100 * sorted(self.GENERIC).index(case)
        for seed in range(offset, offset + 6):
            n = self._trials(seed)
            got = monte_carlo_delta(sample_p, sample_q, eps_g, n, RngState(seed), n_bins)
            want = serial_monte_carlo_delta(
                sample_p, sample_q, eps_g, n, RngState(seed), n_bins
            )
            assert repr(got) == repr(want), (case, seed, n)

    def test_two_point_audit_matches_serial(self) -> None:
        for seed in range(400, 406):
            n = self._trials(seed)
            eps, t, eps_g = 0.3 + 0.2 * (seed % 4), 0.1, 0.1 * (seed % 3)
            report = audit_two_point(eps, t, eps_g, n, RngState(seed))
            pair = grr_params(eps, t)
            want = serial_monte_carlo_delta(
                _second_outcome_sampler(pair.q, 1),
                _second_outcome_sampler(pair.p, 1),
                eps_g,
                n,
                RngState(seed),
            )
            assert repr((report.empirical_delta, report.std_error)) == repr(want), seed

    @pytest.mark.parametrize(
        "k, eps, eps_g, seeds",
        [(5, 0.2, 0.5, range(500, 506)), (800, 1.0, 700.0, range(600, 601))],
    )
    def test_composed_dp_audit_matches_serial(self, k, eps, eps_g, seeds) -> None:
        # k = 800 at eps_g = 700 is the case where e^eps_g nearly overflows
        pair = grr_params(2.0 * eps, eps)
        for seed in seeds:
            n = self._trials(seed) if k < 100 else 10**5
            report = audit_composed_dp(k, eps, eps_g, n, RngState(seed))
            want = serial_monte_carlo_delta(
                _second_outcome_sampler(pair.q, k),
                _second_outcome_sampler(pair.p, k),
                eps_g,
                n,
                RngState(seed),
                n_bins=max(1000, k + 1),
            )
            assert repr((report.empirical_delta, report.std_error)) == repr(want), seed

    def test_trunc_gauss_audit_matches_serial_where_sampler(self) -> None:
        # also pins the in-place window sampler against its np.where form
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        for seed in range(700, 706):
            n = self._trials(seed)
            config = TruncGaussConfig.from_target(spec, 0.5 + seed % 3, 1e-3)
            report = audit_trunc_gauss(config, n, RngState(seed))
            t_level = config.t_level
            want = serial_monte_carlo_delta(
                where_windowed_sampler(config, config.tau + t_level),
                where_windowed_sampler(config, t_level),
                report.eps_g,
                n,
                RngState(seed),
            )
            assert repr((report.empirical_delta, report.std_error)) == repr(want), seed

    def test_first_law_on_a_worker_second_on_the_caller(self) -> None:
        threads = {}

        def recording(name: str):
            def sample(gen, n):
                threads[name] = threading.get_ident()
                return gen.random(n)

            return sample

        monte_carlo_delta(recording("p"), recording("q"), 0.5, 10**5, RngState(0))
        assert threads["q"] == threading.get_ident()
        assert threads["p"] != threading.get_ident()

    @pytest.mark.parametrize(
        "sample_p, sample_q, error",
        [
            (_raising(_PError), _uniform, _PError),
            # sample_p raises last in time, yet its error is the one raised
            (_raising(_PError, delay=0.1), _raising(_QError), _PError),
            (_uniform, _raising(_QError), _QError),
            (lambda gen, n: gen.random(n + 1), _uniform, ValueError),
            (_uniform, lambda gen, n: gen.random((n, 1)), ValueError),
        ],
        ids=["p-raises", "both-raise", "q-raises", "p-wrong-shape", "q-wrong-shape"],
    )
    def test_errors_surface_in_serial_order(self, sample_p, sample_q, error) -> None:
        threads = threading.active_count()
        with pytest.raises(error) as raised:
            monte_carlo_delta(sample_p, sample_q, 0.5, 10**5, RngState(1))
        if error is ValueError:
            assert "one outcome per trial" in str(raised.value)
        assert threading.active_count() == threads

    def test_deadline_alarm_interrupts_the_caller(self) -> None:
        class Deadline(Exception):
            pass

        def expire(signum, frame):
            raise Deadline

        def slow(seconds: float):
            def sample(gen, n):
                time.sleep(seconds)
                return gen.random(n)

            return sample

        threads = threading.active_count()
        previous = signal.signal(signal.SIGALRM, expire)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Deadline):
                monte_carlo_delta(slow(0.2), slow(30.0), 0.5, 10**5, RngState(0))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # the alarm cut the caller's 30 s draw; the worker's 0.2 s one ended
        assert time.monotonic() - start < 5.0
        assert threading.active_count() == threads


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
