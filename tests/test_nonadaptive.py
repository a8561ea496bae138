"""Non-adaptive composition bounds against enumeration and mpf oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp import nonadaptive
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
    dp_slot_log_probs,
    eps_inverse,
    grr_log_probs,
    grr_params,
    mixed_candidate_ts,
)

from . import oracles

eps_strategy = st.floats(min_value=0.05, max_value=3.0)


class TestGrrParams:
    def test_frozen(self):
        # values from mp_q / mp_p at (1.0, 0.4)
        g = grr_params(1.0, 0.4)
        assert g.q == pytest.approx(0.7137694821097313, abs=1e-15)
        assert g.p == pytest.approx(0.4784539921066295, abs=1e-15)

    def test_endpoints(self):
        g0 = grr_params(1.0, 0.0)
        assert g0.q == 1.0 and g0.p == 1.0
        g1 = grr_params(1.0, 1.0)
        assert g1.q == 0.0 and g1.p == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grr_params(0.0, 0.0)
        with pytest.raises(ValueError):
            grr_params(1.0, 1.5)
        with pytest.raises(ValueError):
            grr_params(1.0, -0.1)

    @given(eps_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_likelihood_ratios(self, eps, frac):
        t = frac * eps
        g = grr_params(eps, t)
        assert 0.0 <= g.p <= g.q <= 1.0
        if g.p > 0.0:
            assert g.q / g.p == pytest.approx(math.exp(t), rel=1e-12)
        # complement ratio via the log route, immune to 1-q cancellation
        _, log_1mq, _, log_1mp = grr_log_probs(eps, t)
        if log_1mq > -math.inf:
            assert log_1mp - log_1mq == pytest.approx(eps - t, abs=1e-12)
        if 1 - g.q >= 1e-3:
            assert (1 - g.p) / (1 - g.q) == pytest.approx(
                math.exp(eps - t), rel=1e-12
            )
        # mixture identity: q + (1-q) e^eps = e^t on the whole range
        assert g.q + (1 - g.q) * math.exp(eps) == pytest.approx(
            math.exp(t), rel=1e-12
        )

    @given(eps_strategy, st.floats(min_value=0.0, max_value=1.0))
    def test_log_probs_match_linear(self, eps, frac):
        t = frac * eps
        g = grr_params(eps, t)
        log_q, log_1mq, log_p, log_1mp = grr_log_probs(eps, t)
        assert math.exp(log_q) == pytest.approx(g.q, abs=1e-14)
        assert math.exp(log_1mq) == pytest.approx(1 - g.q, abs=1e-14)
        assert math.exp(log_p) == pytest.approx(g.p, abs=1e-14)
        assert math.exp(log_1mp) == pytest.approx(1 - g.p, abs=1e-14)

    def test_dp_slot_is_2eps_eps_pair(self):
        # a pure-DP slot must be the (2 eps, eps) two-point pair
        for eps in (0.1, 0.7, 2.0):
            log_q, log_1mq = dp_slot_log_probs(eps)
            g = grr_params(2 * eps, eps)
            assert math.exp(log_q) == pytest.approx(g.q, rel=1e-14)
            assert math.exp(log_1mq) == pytest.approx(1 - g.q, rel=1e-14)
            assert math.exp(log_q) == pytest.approx(
                math.exp(eps) / (1 + math.exp(eps)), rel=1e-14
            )


class TestDeltaOptDp:
    def test_frozen(self):
        # values from mp_delta_dp
        assert delta_opt_dp(1, 1.0, 0.0) == pytest.approx(
            0.46211715726000974, abs=1e-14
        )
        assert delta_opt_dp(5, 0.5, 1.0) == pytest.approx(
            0.1840979262550525, abs=1e-14
        )
        assert delta_opt_dp(20, 0.1, 1.0) == pytest.approx(
            0.002396692453571931, abs=1e-14
        )

    def test_zero_beyond_budget(self):
        assert delta_opt_dp(4, 0.5, 2.0) == 0.0
        assert delta_opt_dp(4, 0.5, 2.5) == 0.0

    def test_very_negative_budget_hits_tv_limit(self):
        # below -k eps every outcome is in the distinguishing set
        for fn in (
            lambda eg: delta_opt_dp(3, 1.0, eg),
            lambda eg: delta_opt_br_nonadaptive(3, 1.0, eg),
            lambda eg: delta_opt_mixed(CompositionQuery(k=3, m=1, eps=1.0, eps_g=eg)),
        ):
            assert fn(-10.0) == pytest.approx(-math.expm1(-10.0), abs=1e-13)

    @given(
        st.integers(1, 12),
        eps_strategy,
        st.floats(min_value=-2.0, max_value=4.0),
    )
    def test_against_mp_oracle(self, k, eps, eps_g):
        want = oracles.mp_delta_dp(k, eps, eps_g)
        assert delta_opt_dp(k, eps, eps_g) == pytest.approx(want, abs=1e-13)

    @given(st.integers(1, 10), eps_strategy, st.data())
    def test_monotone_in_budget(self, k, eps, data):
        lo = data.draw(st.floats(min_value=-1.0, max_value=2.0))
        hi = data.draw(st.floats(min_value=0.0, max_value=1.0))
        assert delta_opt_dp(k, eps, lo + hi) <= delta_opt_dp(k, eps, lo) + 1e-14


class TestDeltaOptBr:
    def test_frozen(self):
        # values from mp_delta_br
        assert delta_opt_br_nonadaptive(5, 0.5, 1.0) == pytest.approx(
            0.015247217824872617, abs=1e-14
        )
        assert delta_opt_br_nonadaptive(1, 1.0, 0.3) == pytest.approx(
            0.13796280335447103, abs=1e-14
        )

    def test_br_never_worse_than_dp(self):
        for k in (1, 3, 7):
            for eg in (0.0, 0.5, 1.5):
                assert (
                    delta_opt_br_nonadaptive(k, 0.8, eg)
                    <= delta_opt_dp(k, 0.8, eg) + 1e-14
                )

    @given(
        st.integers(1, 10),
        eps_strategy,
        st.floats(min_value=-1.0, max_value=4.0),
    )
    def test_against_mp_oracle(self, k, eps, eps_g):
        want = oracles.mp_delta_br(k, eps, eps_g)
        assert delta_opt_br_nonadaptive(k, eps, eps_g) == pytest.approx(
            want, abs=1e-13
        )

    def test_dense_grid_never_beats_candidates(self):
        # the k+1 rounded stationary tilts dominate a 1e5-point scan
        import numpy as np

        for k, eps, eps_g in [(3, 0.5, 0.6), (4, 1.0, 1.1), (2, 0.8, -0.2)]:
            best = delta_opt_br_nonadaptive(k, eps, eps_g)
            from dpcomp.nonadaptive import _delta_at_t

            ts = np.linspace(0.0, eps, 100_001)
            grid = max(_delta_at_t(k, 0, eps, eps_g, float(t)) for t in ts)
            assert grid <= best + 1e-9


class TestDeltaOptMixed:
    def test_frozen(self):
        # value from mp_delta_mixed
        q = CompositionQuery(k=6, m=3, eps=0.5, eps_g=1.0)
        assert delta_opt_mixed(q) == pytest.approx(0.11789084957999499, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositionQuery(k=0, m=0, eps=1.0, eps_g=0.0)
        with pytest.raises(ValueError):
            CompositionQuery(k=3, m=4, eps=1.0, eps_g=0.0)
        with pytest.raises(ValueError):
            CompositionQuery(k=3, m=1, eps=-1.0, eps_g=0.0)
        with pytest.raises(ValueError):
            CompositionQuery(k=3, m=1, eps=1.0, eps_g=math.nan)

    def test_candidate_ts_clipped_and_deduped(self):
        ts = mixed_candidate_ts(5, 2, 1.0, 0.4)
        assert all(0.0 <= t <= 1.0 for t in ts)
        assert len(set(ts)) == len(ts)
        assert mixed_candidate_ts(4, 4, 1.0, 0.4) == [0.0]

    @given(
        st.integers(1, 10),
        st.data(),
        eps_strategy,
        st.floats(min_value=-1.0, max_value=4.0),
    )
    def test_against_mp_oracle(self, k, data, eps, eps_g):
        m = data.draw(st.integers(0, k))
        want = oracles.mp_delta_mixed(k, m, eps, eps_g)
        got = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g))
        assert got == pytest.approx(want, abs=1e-13)

    @given(
        st.integers(1, 12),
        eps_strategy,
        st.floats(min_value=-0.5, max_value=3.0),
    )
    def test_specializes_to_dp_at_m_k(self, k, eps, eps_g):
        got = delta_opt_mixed(CompositionQuery(k=k, m=k, eps=eps, eps_g=eps_g))
        assert got == pytest.approx(delta_opt_dp(k, eps, eps_g), abs=1e-13)

    @given(
        st.integers(1, 12),
        eps_strategy,
        st.floats(min_value=-0.5, max_value=3.0),
    )
    def test_specializes_to_br_at_m_0(self, k, eps, eps_g):
        got = delta_opt_mixed(CompositionQuery(k=k, m=0, eps=eps, eps_g=eps_g))
        assert got == pytest.approx(
            delta_opt_br_nonadaptive(k, eps, eps_g), abs=1e-13
        )

    def test_monotone_in_dp_count(self):
        # swapping a BR slot for a DP slot can only increase delta
        for eg in (0.0, 0.7, 1.4):
            vals = [
                delta_opt_mixed(CompositionQuery(k=6, m=m, eps=0.4, eps_g=eg))
                for m in range(7)
            ]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


class TestOneEvaluator:
    """The three bounds as views of one sum, against the separate sums."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_dp_and_br_match_separate_sums_exactly(self, k, eps, frac):
        eps_g = frac * (k * eps)
        dp = delta_opt_dp(k, eps, eps_g)
        br = delta_opt_br_nonadaptive(k, eps, eps_g)
        assert dp == oracles.float_delta_dp(k, eps, eps_g)
        assert br == oracles.float_delta_br(k, eps, eps_g)
        # the mixed bound's endpoints are these views, bit for bit
        assert delta_opt_mixed(CompositionQuery(k=k, m=k, eps=eps, eps_g=eps_g)) == dp
        assert delta_opt_mixed(CompositionQuery(k=k, m=0, eps=eps, eps_g=eps_g)) == br

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.data(),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_mixed_matches_separate_sum(self, k, data, eps, frac):
        m = data.draw(st.integers(0, k))
        eps_g = frac * (k * eps)
        got = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g))
        want = oracles.float_delta_mixed(k, m, eps, eps_g)
        assert got == pytest.approx(want, abs=1e-13)

    def test_inversion_reuses_rows(self, monkeypatch):
        # one ln C(200, .) row serves every bisection step
        calls = []
        log_binomial = nonadaptive.log_binomial

        def counted(n, i):
            calls.append((n, i))
            return log_binomial(n, i)

        monkeypatch.setattr(nonadaptive, "log_binomial", counted)
        nonadaptive._log_binomial_row.cache_clear()
        nonadaptive._dp_weights.cache_clear()
        eps_inverse(1e-6, "dp", 200, 0.05)
        assert 0 < len(calls) <= 201


class TestEpsInverse:
    def test_frozen_anchor(self):
        # root of mp_delta_dp(25, 0.1, .) - 1e-6, bisected at 50 dps
        got = eps_inverse(1e-6, "dp", 25, 0.1)
        assert got == pytest.approx(2.079056471317263, abs=2e-9)

    def test_roundtrip(self):
        for bound, m in (("dp", None), ("br", None), ("mixed", 2)):
            target = 1e-4
            eg = eps_inverse(target, bound, 5, 0.6, m=m)
            if bound == "dp":
                f = lambda x: delta_opt_dp(5, 0.6, x)
            elif bound == "br":
                f = lambda x: delta_opt_br_nonadaptive(5, 0.6, x)
            else:
                f = lambda x: delta_opt_mixed(
                    CompositionQuery(k=5, m=2, eps=0.6, eps_g=x)
                )
            assert f(eg) <= target
            assert f(eg - 1e-6) > target

    def test_zero_when_already_satisfied(self):
        assert eps_inverse(0.9999, "dp", 2, 0.1) == 0.0

    @pytest.mark.parametrize(
        "eps, tol",
        [
            (1e8, 1e-9),  # float spacing at k*eps = 1e9 exceeds tol
            (0.5, 0.0),
        ],
    )
    def test_stops_at_adjacent_floats(self, eps, tol):
        eg = eps_inverse(1e-6, "dp", 10, eps, tol=tol)
        assert delta_opt_dp(10, eps, eg) <= 1e-6
        assert delta_opt_dp(10, eps, math.nextafter(eg, 0.0)) > 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_inverse(0.0, "dp", 2, 0.1)
        with pytest.raises(ValueError):
            eps_inverse(1e-6, "nope", 2, 0.1)
        with pytest.raises(ValueError):
            eps_inverse(1e-6, "mixed", 2, 0.1)
        for tol in (-1e-9, math.nan):
            with pytest.raises(ValueError):
                eps_inverse(1e-6, "dp", 2, 0.1, tol=tol)
