"""Tests for seeded release mechanisms."""

import dataclasses
import math
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from dpcomp import mechanisms
from dpcomp.calibration import HistogramSpec
from dpcomp.mechanisms import (
    Histogram,
    ReleaseEntry,
    RngState,
    TruncGaussConfig,
    _trunc_rhs,
    exp_mech_topk,
    gauss_cdp_guarantee,
    histogram_from_counts,
    histogram_from_text,
    known_gauss,
    known_lap_topk,
    ls_noise,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
    solve_truncation_level,
    topk_release,
    trunc_gauss_release,
)
from dpcomp.numerics import pava_monotone_nonneg
from dpcomp.setwise import Cdp, SetwiseAccountant, Zcdp

from . import oracles

SPEC4 = HistogramSpec(d=4, delta0=1, tau=1.0, d_bar=10)
HIST = histogram_from_counts(
    {"a": 50.0, "b": 30.0, "c": 30.0, "d": 5.0}, spec=SPEC4
)


class TestHistogram:
    def test_count_default(self) -> None:
        assert HIST.count("a") == 50.0
        assert HIST.count("missing") == 0.0

    def test_sorted_items_breaks_ties_by_id(self) -> None:
        assert HIST.sorted_items() == [
            ("a", 50.0),
            ("b", 30.0),
            ("c", 30.0),
            ("d", 5.0),
        ]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Histogram(counts={"a": -1.0})
        with pytest.raises(ValueError):
            Histogram(counts={"a": math.inf})
        with pytest.raises(TypeError):
            Histogram(counts={1: 2.0})  # type: ignore[dict-item]
        # the first offending entry in insertion order names the error
        with pytest.raises(ValueError, match=r"count for 'b' must be finite and >= 0"):
            Histogram(counts={"a": 1, "b": math.nan, 3: 1.0})  # type: ignore[dict-item]
        with pytest.raises(TypeError, match=r"element ids must be strings, got 3"):
            Histogram(counts={"a": 1.0, 3: 1.0, "b": -1.0})  # type: ignore[dict-item]
        with pytest.raises(ValueError, match=r"count for 'c' must be finite"):
            Histogram(counts={"a": 2, "b": 0.0, "c": -math.inf})
        # a count that is not a real number is not read as one
        for bad in ("3", b"3", True, np.bool_(False), None, [1.0]):
            with pytest.raises(TypeError, match=r"count for 'b' must be a real number"):
                Histogram(counts={"a": 2, "b": bad, "c": "4"})
        # the smallest int that float() rounds past the largest float
        with pytest.raises(ValueError, match=r"count for 'b' is beyond the float range"):
            Histogram(counts={"a": 2, "b": 2**1024 - 2**970, "c": 10**400})

    def test_counts_become_floats(self) -> None:
        class Key(str):
            pass

        h = Histogram(counts={Key("a"): 3, "b": np.float32(0.5), "c": -0.0})
        assert h.counts == {"a": 3.0, "b": 0.5, "c": 0.0}
        assert all(type(v) is float for v in h.counts.values())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**1024 - 2**970 - 1),
                st.integers(2**53 - 4, 2**53 + 4),
                st.integers(2**1024 - 2**971, 2**1024 - 2**970 - 1),
                st.floats(0.0, 1e300),
                st.floats(0.0, 1e30).map(np.float32),
                st.integers(0, 2**62).map(np.int64),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_owned_counts_are_float_of_each_count(self, values) -> None:
        h = Histogram(counts={f"e{i}": v for i, v in enumerate(values)})
        owned = list(h.counts.values())
        assert all(type(v) is float for v in owned)
        assert [v.hex() for v in owned] == [float(v).hex() for v in values]

    def test_entry_cap(self) -> None:
        small = HistogramSpec(d=4, delta0=1, tau=1.0, d_bar=4)
        with pytest.raises(ValueError):
            histogram_from_counts({str(i): 1.0 for i in range(5)}, spec=small)

    def test_require_spec(self) -> None:
        bare = histogram_from_counts({"a": 1.0})
        with pytest.raises(ValueError):
            bare.require_spec()

    def test_restrict(self) -> None:
        sub = HIST.restrict(["b", "d"])
        assert sub.counts == {"b": 30.0, "d": 5.0}
        assert sub.spec is SPEC4

    def test_from_text(self) -> None:
        h = histogram_from_text(["x", "y", "x", "x"])
        assert h.count("x") == 3.0
        assert h.count("y") == 1.0
        assert len(h) == 2

    def test_owns_a_copy_of_its_counts(self) -> None:
        spec = HistogramSpec(d=2, delta0=1, tau=1.0, d_bar=2)
        for build in (Histogram, histogram_from_counts):
            source = {"a": 9.0, "b": 2.0}
            h = build(counts=source, spec=spec)

            def releases():
                cfg = TruncGaussConfig.from_target(spec, 0.5, 1e-3)
                return (
                    h.sorted_items(),
                    exp_mech_topk(h, 2, 0.5, RngState(4)),
                    known_lap_topk(h, 2, 0.5, RngState(4)),
                    known_gauss(h, 0.5, RngState(4)),
                    trunc_gauss_release(h, cfg, RngState(4)),
                )

            before = releases()
            source["a"] = 0.0
            source["c"] = -7.0
            source["e"] = math.nan
            assert len(h) == 2
            assert h.count("a") == 9.0
            assert releases() == before
            with pytest.raises(TypeError):
                h.counts["a"] = 1.0  # type: ignore[index]

    def test_pickles(self) -> None:
        HIST.sorted_items()
        again = pickle.loads(pickle.dumps(HIST))
        assert again == HIST
        assert again.sorted_items() == HIST.sorted_items()


class TestRngState:
    def test_generator_deterministic(self) -> None:
        a = RngState(seed=7).generator().random(5)
        b = RngState(seed=7).generator().random(5)
        assert np.array_equal(a, b)

    def test_substreams_deterministic_and_distinct(self) -> None:
        rng = RngState(seed=7)
        s0 = rng.substream(0).random(5)
        s0_again = rng.substream(0).random(5)
        s1 = rng.substream(1).random(5)
        assert np.array_equal(s0, s0_again)
        assert not np.array_equal(s0, s1)

    def test_derive_forks_independent_states(self) -> None:
        rng = RngState(seed=7)
        child = rng.derive(0)
        assert np.array_equal(child.generator().random(4), rng.substream(0).random(4))
        assert not np.array_equal(
            child.substream(1).random(4), rng.substream(1).random(4)
        )
        assert np.array_equal(
            child.substream(1).random(4), rng.derive(0).substream(1).random(4)
        )

    def test_child_generator_is_parent_substream(self) -> None:
        # derive(j) and substream(j) share a path, so an index serves a
        # substream or a child, never both
        for rng in (RngState(seed=7), RngState(seed=7).derive(3)):
            for j in (0, 1, 5):
                assert np.array_equal(
                    rng.derive(j).generator().random(6), rng.substream(j).random(6)
                )
        assert not np.array_equal(
            RngState(7).derive(1).substream(0).random(6), RngState(7).substream(1).random(6)
        )

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RngState(seed=-1)
        with pytest.raises(ValueError):
            RngState(seed=1).substream(-1)
        with pytest.raises(ValueError):
            RngState(seed=1).derive(-1)


class TestSamplers:
    def test_frozen_values(self) -> None:
        rng = RngState(seed=42)
        lap = sample_laplace(rng.generator(), 2.0, size=3)
        assert lap == pytest.approx(
            [1.5877572852834136, -0.2607712526130862, 2.526001268797544], abs=1e-15
        )
        gau = sample_gaussian(rng.generator(), 2.0, size=3)
        assert gau == pytest.approx(
            [1.5038774691301497, -0.30762677057220555, 2.1480826507666393],
            abs=1e-15,
        )
        gum = sample_gumbel(rng.generator(), 2.0, size=3)
        assert gum == pytest.approx(
            [2.7232800502029817, 0.3883037836517247, 3.761777574777169], abs=1e-15
        )

    def test_matches_quantile_functions(self) -> None:
        # same uniforms through the reference quantile functions
        u = np.maximum(RngState(seed=9).generator().random(1000), 2.0**-64)
        gen = RngState(seed=9).generator()
        assert sample_laplace(gen, 1.5, size=1000) == pytest.approx(
            stats.laplace.ppf(u, scale=1.5), abs=1e-12
        )
        gen = RngState(seed=9).generator()
        assert sample_gaussian(gen, 1.5, size=1000) == pytest.approx(
            stats.norm.ppf(u, scale=1.5), abs=1e-12
        )
        gen = RngState(seed=9).generator()
        assert sample_gumbel(gen, 1.5, size=1000) == pytest.approx(
            stats.gumbel_r.ppf(u, scale=1.5), abs=1e-12
        )

    def test_laplace_variance(self) -> None:
        # E X^2 = 2b^2, Var(X^2) = 20 b^4
        b, n = 2.0, 10**6
        x = sample_laplace(RngState(seed=123).generator(), b, size=n)
        se = math.sqrt(20.0 * b**4 / n)
        assert abs(np.mean(x**2) - 2.0 * b * b) < 3.0 * se

    def test_gaussian_mean(self) -> None:
        s, n = 1.5, 10**6
        x = sample_gaussian(RngState(seed=124).generator(), s, size=n)
        assert abs(np.mean(x)) < 3.0 * s / math.sqrt(n)

    def test_gumbel_argmax_matches_softmax(self) -> None:
        # Gumbel-max trick: argmax(u_i + G_i) ~ softmax(u)
        scores = np.array([1.0, 0.3, -0.5])
        n = 10**6
        g = sample_gumbel(RngState(seed=125).generator(), 1.0, size=3 * n)
        picks = np.argmax(scores + g.reshape(n, 3), axis=1)
        exact = np.exp(scores) / np.exp(scores).sum()
        for i in range(3):
            p = exact[i]
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.mean(picks == i) - p) < 3.0 * se

    @pytest.mark.parametrize(
        "sampler,dist",
        [
            (sample_laplace, stats.laplace(scale=2.0)),
            (sample_gaussian, stats.norm(scale=2.0)),
            (sample_gumbel, stats.gumbel_r(scale=2.0)),
        ],
    )
    def test_distribution(self, sampler, dist) -> None:
        x = sampler(RngState(seed=123).generator(), 2.0, size=20000)
        result = stats.kstest(x, dist.cdf)
        assert result.pvalue > 1e-4

    def test_scale_validation(self) -> None:
        gen = RngState(seed=1).generator()
        for sampler in (sample_laplace, sample_gaussian, sample_gumbel):
            with pytest.raises(ValueError):
                sampler(gen, 0.0, 1)


class TestExpMechTopk:
    def test_infinite_eps_is_canonical_order(self) -> None:
        assert exp_mech_topk(HIST, 3, math.inf, RngState(0)) == ["a", "b", "c"]

    def test_deterministic(self) -> None:
        a = exp_mech_topk(HIST, 3, 2.0, RngState(7))
        b = exp_mech_topk(HIST, 3, 2.0, RngState(7))
        assert a == b

    def test_without_replacement(self) -> None:
        for seed in range(20):
            sel = exp_mech_topk(HIST, 4, 0.5, RngState(seed))
            assert sorted(sel) == ["a", "b", "c", "d"]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            exp_mech_topk(HIST, 0, 1.0, RngState(0))
        with pytest.raises(ValueError):
            exp_mech_topk(HIST, 5, 1.0, RngState(0))
        with pytest.raises(ValueError):
            exp_mech_topk(HIST, 2, -1.0, RngState(0))
        with pytest.raises(ValueError):
            exp_mech_topk(histogram_from_counts({"a": 1.0}), 1, 1.0, RngState(0))

    def test_first_pick_matches_softmax(self) -> None:
        # empirical first-round frequencies against the exact closed form,
        # off by at most 3 binomial standard errors per element
        h = histogram_from_counts(
            {"a": 3.0, "b": 2.0, "c": 1.5, "d": 0.0}, spec=SPEC4
        )
        eps, n = 1.2, 4000
        weights = np.exp(eps * np.array([3.0, 2.0, 1.5, 0.0]))
        exact = weights / weights.sum()
        picks = Counter(
            exp_mech_topk(h, 1, eps, RngState(seed))[0] for seed in range(n)
        )
        for element, p in zip(("a", "b", "c", "d"), exact):
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(picks[element] / n - p) < 3.0 * se

    def test_uniform_histogram_symmetric(self) -> None:
        h = histogram_from_counts(
            {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0}, spec=SPEC4
        )
        n = 12000
        picks = Counter(
            exp_mech_topk(h, 1, 1.0, RngState(seed))[0] for seed in range(n)
        )
        expected = n / 4.0
        chi2 = sum((picks[e] - expected) ** 2 / expected for e in "abcd")
        assert chi2 < stats.chi2.ppf(0.999, df=3)

    def test_bounded_range_ratio_monte_carlo(self) -> None:
        # slot-1 probabilities on tau-shifted neighbors: the ratio of
        # likelihood ratios across outcomes stays within e^eps
        eps, n = 1.0, 20000
        h1 = histogram_from_counts({"a": 3.0, "b": 2.0, "c": 1.5}, spec=SPEC4)
        h2 = histogram_from_counts({"a": 3.0, "b": 3.0, "c": 1.5}, spec=SPEC4)
        p1 = Counter(exp_mech_topk(h1, 1, eps, RngState(s))[0] for s in range(n))
        p2 = Counter(exp_mech_topk(h2, 1, eps, RngState(s))[0] for s in range(n))
        log_ratios, ses = [], []
        for e in ("a", "b", "c"):
            f1, f2 = p1[e] / n, p2[e] / n
            log_ratios.append(math.log(f1 / f2))
            ses.append(math.sqrt((1 - f1) / (n * f1) + (1 - f2) / (n * f2)))
        spread = max(log_ratios) - min(log_ratios)
        assert spread <= eps + 3.0 * (max(ses) + min(ses))

    def test_sharper_selection_at_higher_eps(self) -> None:
        trials = 400
        hits = {eps: 0 for eps in (0.3, 5.0)}
        for eps in hits:
            for seed in range(trials):
                if exp_mech_topk(HIST, 1, eps, RngState(seed))[0] == "a":
                    hits[eps] += 1
        assert hits[5.0] > hits[0.3]


class TestLsNoise:
    ORDERED = histogram_from_counts(
        {"a": 40.0, "b": 30.0, "c": 20.0, "d": 5.0}, spec=SPEC4
    )

    def test_feasible_output(self) -> None:
        out = ls_noise(self.ORDERED, ["a", "b", "c", "d"], 3.0, RngState(11))
        values = [v for _, v in out]
        assert [e for e, _ in out] == ["a", "b", "c", "d"]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_reproduces_pipeline(self) -> None:
        ordering = ["a", "b", "c", "d"]
        raw = np.array([40.0, 30.0, 20.0, 5.0])
        noise = sample_gaussian(RngState(11).generator(), 1.0 * 1.5, size=4)
        want = pava_monotone_nonneg(raw + noise)
        got = ls_noise(self.ORDERED, ordering, 1.5, RngState(11))
        assert [v for _, v in got] == pytest.approx(list(want), abs=0.0)

    def test_tiny_sigma_recovers_consistent_counts(self) -> None:
        out = ls_noise(self.ORDERED, ["a", "b", "c", "d"], 1e-9, RngState(3))
        assert [v for _, v in out] == pytest.approx(
            [40.0, 30.0, 20.0, 5.0], abs=1e-6
        )

    def test_inverted_ordering_pools_heavily(self) -> None:
        # projection happens in the ordering's coordinates even when the
        # true counts run the other way
        out = ls_noise(self.ORDERED, ["d", "c", "b", "a"], 0.5, RngState(5))
        values = [v for _, v in out]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_projection_contraction(self) -> None:
        # order-consistent truth: projecting never increases the error
        ordering = ["a", "b", "c", "d"]
        raw = np.array([40.0, 30.0, 20.0, 5.0])
        for seed in range(25):
            noise = sample_gaussian(RngState(seed).generator(), 4.0, size=4)
            out = ls_noise(self.ORDERED, ordering, 4.0, RngState(seed))
            err_proj = np.linalg.norm(np.array([v for _, v in out]) - raw)
            err_raw = np.linalg.norm(noise)
            assert err_proj <= err_raw + 1e-12

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            ls_noise(self.ORDERED, ["a", "b"], 1.0, RngState(0))
        with pytest.raises(ValueError):
            ls_noise(self.ORDERED, ["a", "b", "c", "x"], 1.0, RngState(0))
        with pytest.raises(ValueError):
            ls_noise(self.ORDERED, ["a", "b", "c", "d"], 0.0, RngState(0))


class TestTopkRelease:
    def test_consistent_with_parts(self) -> None:
        rng = RngState(7)
        out = topk_release(HIST, 3, 5.0, 1.0, rng)
        ids = exp_mech_topk(HIST, 3, 5.0, rng.derive(0))
        assert [e for e, _ in out] == ids
        want = ls_noise(HIST.restrict(ids), ids, 1.0, rng.derive(1))
        assert out == want

    def test_counts_sorted(self) -> None:
        out = topk_release(HIST, 4, 2.0, 2.0, RngState(21))
        values = [v for _, v in out]
        assert values == sorted(values, reverse=True)
        assert min(values) >= 0.0


class TestTruncationLevel:
    def test_halfway_identity(self) -> None:
        # the window loses exactly half its mass when T equals tau
        assert _trunc_rhs(1.0, 25, 1.0, 10.0) == pytest.approx(12.5, abs=1e-12)
        assert _trunc_rhs(2.0, 5, 2.0, 3.0) == pytest.approx(2.5, abs=1e-12)

    def test_frozen_roots(self) -> None:
        # references from 50-digit bisection of the same equation
        assert solve_truncation_level(25, 1.0, 10.0, 1e-6) == pytest.approx(
            53.081243759401004922, abs=1e-9
        )
        assert solve_truncation_level(1, 1.0, 10.0, 0.75) == pytest.approx(
            0.66679015773126559807, abs=1e-9
        )
        assert solve_truncation_level(25, 1.0, 10.0, 1e-12) == pytest.approx(
            74.865161567133810649, abs=1e-9
        )
        assert solve_truncation_level(5, 2.0, 3.0, 1e-4) == pytest.approx(
            26.283038588167570992, abs=1e-9
        )

    def test_residual(self) -> None:
        for delta0, tau, sigma, delta in (
            (25, 1.0, 10.0, 1e-6),
            (3, 0.5, 4.0, 1e-3),
            (1, 1.0, 10.0, 0.75),
            # delta = delta0 / 2, where the slack at tau rounds to +1.1e-16
            (1, 0.121, 0.341, 0.5),
        ):
            t_level = solve_truncation_level(delta0, tau, sigma, delta)
            assert abs(_trunc_rhs(t_level, delta0, tau, sigma) - delta) <= 1e-9

    def test_window_on_feasible_side(self) -> None:
        # the returned window never loses more than delta, on both branches
        rng = np.random.default_rng(7)
        for _ in range(200):
            tau = 10.0 ** rng.uniform(-1.0, 1.0)
            sigma = 10.0 ** rng.uniform(-0.5, 1.5)
            if rng.random() < 0.2:
                delta0, delta = 1, rng.uniform(0.5, 0.99)
            else:
                delta0, delta = int(rng.integers(1, 51)), 10.0 ** rng.uniform(-12.0, -1.0)
            t_level = solve_truncation_level(delta0, tau, sigma, delta)
            assert _trunc_rhs(t_level, delta0, tau, sigma) <= delta

    def test_monotone_in_delta(self) -> None:
        ts = [
            solve_truncation_level(25, 1.0, 10.0, d) for d in (1e-4, 1e-6, 1e-8)
        ]
        assert ts[0] < ts[1] < ts[2]

    def test_large_slack_root_below_tau(self) -> None:
        t_level = solve_truncation_level(1, 1.0, 10.0, 0.75)
        assert 0.5 < t_level < 1.0

    def test_half_slack_brackets_on_measured_sign(self) -> None:
        # at delta = delta0 / 2 the root is tau itself, and the computed
        # slack there may land on either side of delta
        rng = np.random.default_rng(11)
        for _ in range(300):
            tau = float(10.0 ** rng.uniform(-1.0, 1.0))
            sigma = float(10.0 ** rng.uniform(-0.5, 1.5))
            t_level = solve_truncation_level(1, tau, sigma, 0.5)
            rhs = _trunc_rhs(t_level, 1, tau, sigma)
            assert rhs <= 0.5
            assert 0.5 - rhs <= 1e-9

    def test_vanishing_window_mass_is_value_error(self) -> None:
        # T / (tau sigma) = 1e-17: the window's noise mass rounds to 0
        with pytest.raises(ValueError, match="rounds to 0"):
            _trunc_rhs(1.0, 1, 1.0, 1e17)
        with pytest.raises(ValueError, match="rounds to 0"):
            solve_truncation_level(1, 1.0, 1e17, 1e-6)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            solve_truncation_level(0, 1.0, 10.0, 1e-6)
        with pytest.raises(ValueError):
            solve_truncation_level(25, -1.0, 10.0, 1e-6)
        with pytest.raises(ValueError):
            solve_truncation_level(25, 1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            solve_truncation_level(25, 1.0, 10.0, 0.0)


SPEC6 = HistogramSpec(d=4, delta0=2, tau=1.0, d_bar=6)


class TestTruncGaussConfig:
    def test_from_target(self) -> None:
        cfg = TruncGaussConfig.from_target(SPEC6, 2.0, 1e-4)
        assert cfg.t_level == pytest.approx(8.721892142514093, abs=1e-9)
        assert (cfg.delta0, cfg.d_bar, cfg.tau) == (2, 6, 1.0)

    def test_guarantee(self) -> None:
        cfg = TruncGaussConfig.from_target(SPEC6, 2.0, 1e-4)
        assert cfg.guarantee() == Zcdp(delta=1e-4, xi=0.0, rho=2.0 / 8.0)

    def test_rejects_wrong_window(self) -> None:
        good = TruncGaussConfig.from_target(SPEC6, 2.0, 1e-4)
        with pytest.raises(ValueError):
            TruncGaussConfig(
                delta0=2,
                d_bar=6,
                tau=1.0,
                sigma=2.0,
                delta=1e-4,
                t_level=good.t_level + 0.5,
            )
        with pytest.raises(ValueError):
            TruncGaussConfig(
                delta0=1, d_bar=6, tau=1.0, sigma=0.05, delta=0.9, t_level=0.4
            )

    def test_from_target_names_sigma_its_solve_cannot_resolve(self) -> None:
        # the solve stops at width 1e-12, against a window excess T - tau
        # of 4.75e-12; this used to read "t_level does not solve the window
        # equation (residual 7.13e-07)", naming no option
        spec = HistogramSpec(d=1, delta0=1, tau=1.0, d_bar=1)
        message = (
            r"^the truncation window cannot be solved at tau\*sigma = 1e-12, "
            r"sigma = 1e-12: residual 7\.13e-07 above 1e-09$"
        )
        with pytest.raises(ValueError, match=message):
            TruncGaussConfig.from_target(spec, 1e-12, 1e-6)
        # a scale the solve resolves keeps its window
        assert TruncGaussConfig.from_target(spec, 1e-8, 1e-6).t_level > 1.0

    def test_window_noise_in_place_matches_expression(self) -> None:
        # the in-place scale, shift, quantile and scale give the floats of
        # s * ndtri(lo + u * (hi - lo)) over fresh arrays
        spec = HistogramSpec(d=1, delta0=1, tau=3.0, d_bar=1)
        for sigma, delta in ((2.0, 1e-4), (0.05, 0.5), (1e-8, 1e-6), (40.0, 1e-12)):
            for cfg in (
                TruncGaussConfig.from_target(SPEC6, sigma, delta),
                TruncGaussConfig.from_target(spec, sigma, delta),
            ):
                for seed, n in ((0, 1), (1, 1000), (2, 65537)):
                    got = cfg.window_noise(RngState(seed).generator(), n)
                    want = oracles.expression_window_noise(cfg, RngState(seed).generator(), n)
                    assert got.tobytes() == want.tobytes(), (sigma, delta, seed)


class TestTruncGaussRelease:
    CFG = TruncGaussConfig.from_target(SPEC6, 2.0, 1e-4)

    def test_deterministic(self) -> None:
        h = histogram_from_counts({"x": 40.0, "y": 12.0, "z": 0.5})
        a = trunc_gauss_release(h, self.CFG, RngState(3))
        b = trunc_gauss_release(h, self.CFG, RngState(3))
        assert a == b
        assert [e.element for e in a] == ["x", "y"]
        assert [e.rank for e in a] == [0, 1]

    def test_matches_inverse_cdf_oracle(self) -> None:
        # re-derive the rank-0 value from the same seed's raw uniform
        h = histogram_from_counts({"x": 100.0, "y": 50.0})
        s = self.CFG.tau * self.CFG.sigma
        t_level = self.CFG.t_level
        u = np.maximum(RngState(3).generator().random(self.CFG.d_bar), 2.0**-64)
        lo, hi = stats.norm.cdf(-t_level / s), stats.norm.cdf(t_level / s)
        want0 = 100.0 + s * stats.norm.ppf(lo + u[0] * (hi - lo))
        out = trunc_gauss_release(h, self.CFG, RngState(3))
        assert out[0].value == pytest.approx(want0, abs=1e-10)

    def test_values_stay_in_window(self) -> None:
        h = histogram_from_counts({"x": 40.0, "y": 12.0, "z": 0.5})
        for seed in range(30):
            for entry in trunc_gauss_release(h, self.CFG, RngState(seed)):
                count = h.count(entry.element)
                assert count - self.CFG.t_level <= entry.value
                assert entry.value <= count + self.CFG.t_level

    def test_threshold_respected(self) -> None:
        h = histogram_from_counts({"x": 40.0, "y": 12.0, "z": 0.5})
        threshold = self.CFG.tau + self.CFG.t_level
        for seed in range(30):
            for entry in trunc_gauss_release(h, self.CFG, RngState(seed)):
                assert entry.value > threshold

    def test_small_counts_never_appear(self) -> None:
        # anything at or below tau is structurally silent
        h = histogram_from_counts({"x": 0.5, "y": 0.9})
        for seed in range(50):
            assert trunc_gauss_release(h, self.CFG, RngState(seed)) == []

    def test_large_counts_always_appear(self) -> None:
        # count - T > tau + T clears the threshold with probability one
        h = histogram_from_counts({"x": 40.0})
        for seed in range(50):
            out = trunc_gauss_release(h, self.CFG, RngState(seed))
            assert [e.element for e in out] == ["x"]

    def test_padding_isolates_absent_elements(self) -> None:
        # noise is assigned by rank, so adding a silent element does not
        # change the randomness used by the elements above it
        h1 = histogram_from_counts({"x": 40.0})
        h2 = histogram_from_counts({"x": 40.0, "z": 0.2})
        v1 = trunc_gauss_release(h1, self.CFG, RngState(5))[0].value
        v2 = trunc_gauss_release(h2, self.CFG, RngState(5))[0].value
        assert v1 == v2

    def test_domain_cap_enforced(self) -> None:
        h = histogram_from_counts({str(i): float(i) for i in range(7)})
        with pytest.raises(ValueError):
            trunc_gauss_release(h, self.CFG, RngState(0))

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0, 8.0])
    def test_renyi_bound_on_conditioned_pair(self, alpha: float) -> None:
        # order-alpha divergence of the overlap-conditioned shifted pair
        # stays below alpha / (2 sigma^2), by quadrature
        tau, sigma = 1.0, 2.0
        t_level = solve_truncation_level(1, tau, sigma, 1e-4)
        s = tau * sigma
        z_p = stats.norm.cdf(t_level / s) - stats.norm.cdf((tau - t_level) / s)
        z_q = stats.norm.cdf((t_level - tau) / s) - stats.norm.cdf(-t_level / s)

        def integrand(x: float) -> float:
            p = stats.norm.pdf(x / s) / s / z_p
            q = stats.norm.pdf((x - tau) / s) / s / z_q
            return p**alpha * q ** (1.0 - alpha)

        value, _ = integrate.quad(integrand, tau - t_level, t_level)
        divergence = math.log(value) / (alpha - 1.0)
        assert divergence <= alpha / (2.0 * sigma * sigma) + 1e-9


class TestReleaseEntry:
    """ReleaseEntry's own __init__ keeps the frozen dataclass contract."""

    ENTRY = ReleaseEntry(rank=3, element="e0000004", value=41.5)

    def test_positional_equals_keyword(self) -> None:
        assert ReleaseEntry(3, "e0000004", 41.5) == self.ENTRY
        assert ReleaseEntry(7, None, 2.0) == ReleaseEntry(value=2.0, element=None, rank=7)
        assert hash(ReleaseEntry(3, "e0000004", 41.5)) == hash(self.ENTRY)
        assert ReleaseEntry(3, "e0000004", 41.5) != ReleaseEntry(3, "e0000004", 41.25)
        with pytest.raises(TypeError):
            ReleaseEntry(3, "e0000004")

    def test_fields_are_frozen(self) -> None:
        for name, value in (("rank", 4), ("element", None), ("value", 0.0), ("extra", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.ENTRY, name, value)
        assert self.ENTRY == ReleaseEntry(rank=3, element="e0000004", value=41.5)

    def test_dataclass_surface(self) -> None:
        assert [f.name for f in dataclasses.fields(ReleaseEntry)] == ["rank", "element", "value"]
        assert dataclasses.replace(self.ENTRY, value=1.0) == ReleaseEntry(3, "e0000004", 1.0)
        assert dataclasses.astuple(self.ENTRY) == (3, "e0000004", 41.5)
        assert repr(self.ENTRY) == "ReleaseEntry(rank=3, element='e0000004', value=41.5)"
        assert repr(ReleaseEntry(0, None, 1e300)) == "ReleaseEntry(rank=0, element=None, value=1e+300)"

    def test_pickle_round_trip(self) -> None:
        back = pickle.loads(pickle.dumps(self.ENTRY))
        assert back == self.ENTRY and hash(back) == hash(self.ENTRY)
        assert repr(back) == repr(self.ENTRY)


def _zipf_histogram(d: int) -> Histogram:
    # the benchmark's release input: floor(1e6 / i^1.1), whose tail ties
    counts = np.floor(1e6 / np.arange(1, d + 1, dtype=float) ** 1.1).tolist()
    ids = (f"e{i:07d}" for i in range(1, d + 1))
    spec = HistogramSpec(d=d, delta0=50, tau=1.0, d_bar=d)
    return histogram_from_counts(dict(zip(ids, counts)), spec=spec)


class TestSmallZipfReleases:
    """Releases shaped like the benchmark's small ones against the list routes."""

    @pytest.mark.parametrize("d", [1_000, 10_000])
    def test_identical_to_list_routes(self, d) -> None:
        hist = _zipf_histogram(d)
        spec = hist.require_spec()
        draws = np.random.default_rng(d)
        for seed in range(60):
            rng = RngState(seed)
            k = 1 + seed % 30
            # 1e-6 puts every element in the round's prefix, 1 only the top few
            eps = float(10.0 ** draws.uniform(-6.0, 0.0))
            sigma = float(10.0 ** draws.uniform(0.0, 1.3))
            delta = float(10.0 ** draws.uniform(-10.0, -5.0))
            case = (seed, k, eps, sigma)
            assert exp_mech_topk(hist, k, eps, rng) == oracles.list_exp_mech_topk(
                hist, k, eps, rng
            ), case
            assert topk_release(hist, k, eps, sigma, rng) == oracles.list_topk_release(
                hist, k, eps, sigma, rng
            ), case
            config = TruncGaussConfig.from_target(spec, sigma, delta)
            assert trunc_gauss_release(
                hist, config, rng
            ) == oracles.list_trunc_gauss_release(hist, config, rng), case


class TestKnownBaselines:
    def test_laplace_deterministic_and_consistent(self) -> None:
        out = known_lap_topk(HIST, 2, 1.0, RngState(5))
        assert out == known_lap_topk(HIST, 2, 1.0, RngState(5))
        noise = sample_laplace(RngState(5).generator(), 1.0, size=4)
        noisy = sorted(
            (
                (e, c + float(n))
                for (e, c), n in zip(HIST.sorted_items(), noise)
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        assert out == noisy[:2]

    def test_gauss_returns_all_counts(self) -> None:
        out = known_gauss(HIST, 2.0, RngState(5))
        assert out == known_gauss(HIST, 2.0, RngState(5))
        assert sorted(e for e, _ in out) == ["a", "b", "c", "d"]
        values = [v for _, v in out]
        assert values == sorted(values, reverse=True)

    def test_degenerate_noise_recovers_counts(self) -> None:
        lap = known_lap_topk(HIST, 4, 1e9, RngState(1))
        gau = known_gauss(HIST, 1e-9, RngState(1))
        for e, v in lap:
            assert v == pytest.approx(HIST.count(e), abs=1e-6)
        for e, v in gau:
            assert v == pytest.approx(HIST.count(e), abs=1e-6)

    def test_wide_gaps_give_true_topk(self) -> None:
        h = histogram_from_counts(
            {"a": 1000.0, "b": 500.0, "c": 0.0},
            spec=HistogramSpec(d=3, delta0=1, tau=1.0, d_bar=3),
        )
        for seed in range(20):
            lap = known_lap_topk(h, 2, 1.0, RngState(seed))
            gau = known_gauss(h, 1.0, RngState(seed))
            assert [e for e, _ in lap] == ["a", "b"]
            assert [e for e, _ in gau][:2] == ["a", "b"]

    def test_gauss_cdp_guarantee_registers(self) -> None:
        c = gauss_cdp_guarantee(25, 13.1)
        assert c == Cdp(mu=25 / (2 * 13.1**2), tau=5.0 / 13.1)
        acc = SetwiseAccountant(1e-6)
        acc.register(c)
        assert acc.global_bound_cdp() > 0.0

    def test_gauss_cdp_guarantee_refuses_underflowing_sigma(self) -> None:
        # sigma^2 underflows to 0: this used to raise ZeroDivisionError
        with pytest.raises(ValueError, match=r"^sigma\^2 underflows to 0 at sigma = 1e-200$"):
            gauss_cdp_guarantee(1, 1e-200)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            known_lap_topk(HIST, 0, 1.0, RngState(0))
        with pytest.raises(ValueError):
            known_lap_topk(HIST, 2, math.inf, RngState(0))
        with pytest.raises(ValueError):
            known_gauss(HIST, 0.0, RngState(0))
        with pytest.raises(ValueError):
            gauss_cdp_guarantee(0, 1.0)


@st.composite
def release_cases(draw):
    """A histogram with ties, flat, zero or huge counts, and release parameters."""
    ids = draw(
        st.lists(
            st.text(alphabet="ab\x00\u00e9", max_size=4), min_size=1, max_size=40, unique=True
        )
    )
    d = len(ids)
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e15]))
    shape = draw(st.sampled_from(["flat", "ties", "spread"]))
    if shape == "flat":
        counts = [scale] * d
    elif shape == "ties":
        counts = [scale * draw(st.integers(0, 3)) for _ in ids]
    else:
        counts = [draw(st.floats(0.0, max(scale, 1.0))) for _ in ids]
    tau = draw(st.sampled_from([0.3, 1.0, 2.5]))
    d_bar = d + draw(st.sampled_from([0, 1, 25]))
    spec = HistogramSpec(d=d, delta0=1, tau=tau, d_bar=d_bar)
    hist = histogram_from_counts(dict(zip(ids, counts)), spec=spec)
    eps = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e6, math.inf]))
    k = draw(st.integers(1, d))
    sigma = draw(st.sampled_from([1e-3, 0.5, 3.0, 100.0]))
    delta = draw(st.sampled_from([1e-9, 1e-3, 0.3]))
    seed = draw(st.integers(0, 2**32))
    return hist, k, eps, sigma, delta, RngState(seed)


class TestColumnarReleases:
    """The columnar releases against the list-based routes they replace."""

    @settings(max_examples=300, deadline=None)
    @given(release_cases())
    def test_identical_to_list_routes(self, case) -> None:
        hist, k, eps, sigma, delta, rng = case
        assert hist.sorted_items() == oracles.list_sorted_items(hist)
        assert exp_mech_topk(hist, k, eps, rng) == oracles.list_exp_mech_topk(
            hist, k, eps, rng
        )
        if math.isfinite(eps):
            assert known_lap_topk(hist, k, eps, rng) == oracles.list_known_lap_topk(
                hist, k, eps, rng
            )
        assert known_gauss(hist, sigma, rng) == oracles.list_known_gauss(hist, sigma, rng)
        config = TruncGaussConfig.from_target(hist.require_spec(), sigma, delta)
        assert trunc_gauss_release(
            hist, config, rng
        ) == oracles.list_trunc_gauss_release(hist, config, rng)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.5, 2.0, math.inf]),
                st.floats(-1e6, 1e6),
            ),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
    )
    def test_descending_is_the_lexsort_order(self, values, random) -> None:
        # an unstable argsort serves untied values; ties, -0.0 == 0.0
        # included, must still come out in id order
        id_rank = list(range(len(values)))
        random.shuffle(id_rank)
        values, id_rank = np.array(values, dtype=float), np.array(id_rank, dtype=np.int64)
        want = np.lexsort((id_rank, -values))
        assert np.array_equal(mechanisms._descending(values, id_rank), want)

    def test_pairs_hold_plain_str_and_float(self) -> None:
        spec = HistogramSpec(d=5, delta0=1, tau=1.0, d_bar=5)
        hist = histogram_from_counts({"c": 3, "a": 3, "e": 1, "b": 7, "d": 0}, spec=spec)
        for pairs in (
            hist.sorted_items(),
            known_gauss(hist, 2.0, RngState(1)),
            known_lap_topk(hist, 3, 1.0, RngState(1)),
        ):
            assert type(pairs) is list
            assert all(type(e) is str and type(v) is float for e, v in pairs)
        assert type(exp_mech_topk(hist, 2, math.inf, RngState(1))) is list
        assert hist.sorted_items() == [("b", 7.0), ("a", 3.0), ("c", 3.0), ("e", 1.0), ("d", 0.0)]

    def test_overflowing_scores_select_silently(self) -> None:
        h = histogram_from_counts({"a": 1e300, "b": 5e299, "c": 1.0}, spec=SPEC4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_mech_topk(h, 3, 1e10, RngState(1))
        assert got == oracles.list_exp_mech_topk(h, 3, 1e10, RngState(1))

    def test_uniform_prefix_and_gumbel_span(self) -> None:
        # a shorter draw is the start of a longer one, which lets a
        # selection round draw only for its candidate prefix
        for seed, c, n in ((0, 1, 2), (7, 3, 1000), (2**40, 999, 1000)):
            gen_c, gen_n = RngState(seed).generator(), RngState(seed).generator()
            assert np.array_equal(gen_c.random(c), gen_n.random(n)[:c])
        assert np.nextafter(1.0, 0.0) == 1.0 - 2.0**-53
        ends = np.array([2.0**-64, 1.0 - 2.0**-53])
        low, high = -np.log(-np.log(ends))
        assert low == pytest.approx(-3.7924, abs=1e-4)
        assert high == pytest.approx(36.7368, abs=1e-4)
        assert mechanisms._GUMBEL_SPAN == high - low

    def test_selection_draws_only_the_candidate_prefix(self, monkeypatch) -> None:
        d, k = 100_000, 50
        counts = {f"e{i:06d}": float(int(1e5 / (i + 1))) for i in range(d)}
        hist = histogram_from_counts(
            counts, spec=HistogramSpec(d=d, delta0=1, tau=1.0, d_bar=d)
        )
        want = oracles.list_exp_mech_topk(hist, k, 1.0, RngState(11))
        drawn = []
        original = mechanisms._uniforms

        def counting(gen, size):
            drawn.append(size)
            return original(gen, size)

        monkeypatch.setattr(mechanisms, "_uniforms", counting)
        assert exp_mech_topk(hist, k, 1.0, RngState(11)) == want
        assert len(drawn) == k
        assert sum(drawn) < k * d // 100
