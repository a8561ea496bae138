"""Non-adaptive composition bounds against enumeration and mpf oracles."""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp import nonadaptive
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
    eps_inverse,
    grr_params,
    mixed_candidate_ts,
)

from . import oracles
from .oracles import grr_log_probs

eps_strategy = st.floats(min_value=0.05, max_value=3.0)


def _sum_at(k, m, eps, eps_g, t):
    # the package's sum at one tilt: the walk of that tilt's rows
    rows = nonadaptive._plan(k, m, eps, eps_g)
    return nonadaptive._walk(rows(t), eps_g, nonadaptive._dp_pairs(m, eps))


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
            log_q, log_1mq = oracles.dp_slot_log_probs(eps)
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
            ts = np.linspace(0.0, eps, 100_001)
            grid = max(_sum_at(k, 0, eps, eps_g, float(t)) for t in ts)
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

    def test_overflowing_k_eps_is_refused(self):
        # k*eps = inf leaves inf - inf in the sums; every bound refuses it
        # by name, before any tilt or weight row is formed
        calls = [
            lambda: delta_opt_dp(3, 1e308, 1.0),
            lambda: delta_opt_br_nonadaptive(3, 1e308, 1.0),
            lambda: delta_opt_mixed(CompositionQuery(k=10, m=3, eps=1e308, eps_g=math.inf)),
            lambda: eps_inverse(1e-6, "br", 3, 1e308),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^k\*eps must be finite"):
                call()

    def test_candidate_ts_clipped_and_deduped(self):
        ts = mixed_candidate_ts(5, 2, 1.0, 0.4)
        assert all(0.0 <= t <= 1.0 for t in ts)
        assert len(set(ts)) == len(ts)
        assert mixed_candidate_ts(4, 4, 1.0, 0.4) == [0.0]

    def test_candidate_ts_match_plain_set(self):
        # 200,000 seeded draws, bit for bit against the clipped, set-
        # deduplicated and sorted list (so a -0.0 from an underflowed tilt
        # is kept where the set kept it): k up to 2,000, m in 0..k, eps from
        # 5e-324 to 1e8, eps_g at 0, +-inf, below 0, past k eps and on
        # multiples of eps
        rng = random.Random(29)
        epss = (lambda: 5e-324, lambda: 10 ** rng.uniform(-323.0, 8.0),
                lambda: 10 ** rng.uniform(-3.0, 1.0), lambda: 1e8)
        budgets = (lambda k, e: 0.0, lambda k, e: math.inf, lambda k, e: -math.inf,
                   lambda k, e: -rng.expovariate(0.1),
                   lambda k, e: rng.uniform(-1.5, 1.5) * k * e,
                   lambda k, e: k * e * (1.0 + rng.random()),
                   lambda k, e: rng.randint(-k, k) * e,
                   lambda k, e: -(10 ** rng.uniform(-324.0, -300.0)))
        differ = []
        for _ in range(200_000):
            k = rng.randint(1, 2000) if rng.random() < 0.01 else rng.randint(1, 40)
            m = rng.choice((0, k, rng.randint(0, k)))
            eps = rng.choice(epss)()
            eps_g = rng.choice(budgets)(k, eps)
            got = mixed_candidate_ts(k, m, eps, eps_g)
            want = oracles.plain_candidate_ts(k, m, eps, eps_g)
            # bit for bit, so repr for repr
            if array("d", got).tobytes() != array("d", want).tobytes():
                differ.append((k, m, eps, eps_g, repr(got), repr(want)))
        assert differ == []

    @pytest.mark.parametrize(
        "k, m, eps, eps_g, message",
        [(2, 3, 0.1, 0.0, r"^m must lie in 0\.\.k=2, got 3$"),
         (2, 1, 0.0, 0.0, r"^eps must be positive and finite, got 0\.0$"),
         (2, 1, math.inf, 0.0, r"^eps must be positive and finite, got inf$"),
         (2, 1, -1.0, 0.0, r"^eps must be positive and finite, got -1\.0$"),
         (0, 0, 0.1, 0.0, r"^k must be a positive integer, got 0$"),
         (3, 0, 1e308, 1.0, r"^k\*eps must be finite")],
        ids=["m-above-k", "eps-zero", "eps-inf", "eps-negative", "k-zero", "k-eps-overflow"],
    )
    def test_candidate_ts_refuse_what_the_query_refuses(self, k, m, eps, eps_g, message):
        # m > k and eps = 0 divided by zero, eps = inf gave [nan, inf], and
        # eps = -1, k = 0 and an overflowing k eps each gave a list: every
        # one now raises the query's own error
        with pytest.raises(ValueError, match=message):
            CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g)
        with pytest.raises(ValueError, match=message):
            mixed_candidate_ts(k, m, eps, eps_g)

    @pytest.mark.parametrize("k, m", [(3, 0), (3, 1), (3, 3)])
    def test_candidate_ts_refuse_nan_budget(self, k, m):
        # the set-and-sorted list held k + m + 1 NaNs
        with pytest.raises(ValueError, match="^eps_g must not be NaN$"):
            mixed_candidate_ts(k, m, 0.5, math.nan)

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

    def test_inlined_kernel_matches_logsumexp_route(self):
        # 3,000 seeded draws: t at both ends and inside, m at both ends,
        # eps_g below zero and past k eps, k up to 200
        rng = random.Random(17)
        draws = []
        for _ in range(3000):
            k = rng.randint(1, 200) if rng.random() < 0.15 else rng.randint(1, 40)
            m = rng.choice((0, k, rng.randint(0, k)))
            eps = rng.choice((10 ** rng.uniform(-3.0, 0.7), 10 ** rng.uniform(1.0, 8.0)))
            eps_g = rng.choice((0.0, rng.uniform(-1.5, 1.5) * k * eps, -rng.expovariate(0.1)))
            t = rng.choice((0.0, eps, rng.random() * eps))
            draws.append((k, m, eps, eps_g, t))
        differ = [
            d for d in draws
            if _sum_at(*d) != oracles.logsumexp_delta_at_t(*d)
        ]
        assert differ == []

    def test_tilt_sums_match_logsumexp_route_at_every_candidate(self):
        # one plan walks every candidate tilt against the cached pure-DP
        # pairs; each sum is the separate walk's float
        rng = random.Random(19)
        differ = []
        for _ in range(3000):
            k = rng.randint(1, 200) if rng.random() < 0.15 else rng.randint(1, 40)
            m = rng.choice((0, k, rng.randint(0, k)))
            eps = rng.choice((10 ** rng.uniform(-3.0, 0.7), 10 ** rng.uniform(1.0, 8.0)))
            eps_g = rng.choice((0.0, rng.uniform(-1.5, 1.5) * k * eps, -rng.expovariate(0.1),
                                math.inf, -math.inf))
            ts = mixed_candidate_ts(k, m, eps, eps_g)
            rows, pairs = nonadaptive._plan(k, m, eps, eps_g), nonadaptive._dp_pairs(m, eps)
            got = [nonadaptive._walk(rows(t), eps_g, pairs) for t in ts]
            want = [oracles.logsumexp_delta_at_t(k, m, eps, eps_g, t) for t in ts]
            if got != want:
                differ.append((k, m, eps, eps_g))
        assert differ == []

    def test_max_matches_logsumexp_route_at_every_candidate(self):
        # 3,000 seeded draws: the bound-then-walk maximum is the largest of
        # every candidate's separate logsumexp walk, bit for bit; m at 0
        # and k - 1, eps up to 1e8, eps_g below 0, past 709 and infinite
        rng = random.Random(23)
        differ = []
        for _ in range(3000):
            k = rng.randint(1, 200) if rng.random() < 0.05 else rng.randint(1, 40)
            m = rng.choice((0, k - 1, rng.randint(0, k)))
            eps = rng.choice((10 ** rng.uniform(-3.0, 0.7), 10 ** rng.uniform(1.0, 8.0)))
            eps_g = rng.choice((0.0, rng.uniform(-1.5, 1.5) * k * eps, -rng.expovariate(0.1),
                                709.0 + rng.expovariate(0.01), math.inf, -math.inf))
            mixed = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g))
            if mixed != oracles.plain_delta_max(k, m, eps, eps_g):
                differ.append(("mixed", k, m, eps, eps_g))
            if delta_opt_br_nonadaptive(k, eps, eps_g) != oracles.plain_delta_max(k, 0, eps, eps_g):
                differ.append(("br", k, eps, eps_g))
        assert differ == []

    @pytest.mark.parametrize(
        "k, m, eps, eps_g", [(3, 0, 1e308, 1.0), (3, 1, 1e308, 1.0), (3, 2, 1e308, -math.inf)]
    )
    def test_nan_exponent_raises(self, k, m, eps, eps_g):
        # k eps overflows, so a term's exponent (at -inf, its base) is NaN:
        # both routes refuse it
        t = nonadaptive._candidate_ts(k, m, eps, eps_g)[-1]
        with pytest.raises(ValueError, match="got nan"):
            oracles.logsumexp_delta_at_t(k, m, eps, eps_g, t)
        with pytest.raises(ValueError, match="got nan"):
            _sum_at(k, m, eps, eps_g, t)

    def test_inversion_reuses_rows(self, monkeypatch):
        # one ln C(200, .) row serves every bisection step
        calls = []
        log_binomial = nonadaptive.log_binomial

        def counted(n, i):
            calls.append((n, i))
            return log_binomial(n, i)

        monkeypatch.setattr(nonadaptive, "log_binomial", counted)
        nonadaptive._log_binomial_row.cache_clear()
        nonadaptive._dp_pairs.cache_clear()
        eps_inverse(1e-6, "dp", 200, 0.05)
        assert 0 < len(calls) <= 201


def _plan_bounds(k, m, eps, eps_g, ts=None):
    # the tilts, each tilt's walk, and their bounds
    ts = mixed_candidate_ts(k, m, eps, eps_g) if ts is None else ts
    rows, pairs = nonadaptive._plan(k, m, eps, eps_g), nonadaptive._dp_pairs(m, eps)
    walk = lambda t: nonadaptive._walk(rows(t), eps_g, pairs)
    return ts, walk, nonadaptive._bounded(k - m, eps, eps_g, pairs, ts)


def _bound_misses(ts, walk, found):
    # the bounds below their walked sums; the tilts left out must walk to
    # exactly 0, and the order must be by bound
    order, _ = found
    assert [u for u, _ in order] == sorted((u for u, _ in order), reverse=True)
    walked = [walk(t) for _, t in order]
    every = sorted(walk(t) for t in ts)
    assert sorted(walked + [0.0] * (len(ts) - len(order))) == every
    return [t for (u, t), w in zip(order, walked) if not u >= w]


class TestBoundThenWalk:
    """The binomial-mass bound on each candidate tilt, and the walks it saves."""

    def test_bound_is_at_least_walked_sum(self):
        # seeded sweep: every bound is at least its tilt's walked sum, the
        # tilts left out walk to exactly 0, and the order is by bound
        rng = random.Random(37)
        below, bounded = [], 0
        for _ in range(2000):
            k = rng.randint(2, 60)
            m = rng.choice((0, k - 1, rng.randint(0, k - 1)))
            eps = rng.choice((10 ** rng.uniform(-3.0, 0.7), 10 ** rng.uniform(1.0, 8.0)))
            eps_g = rng.choice((rng.uniform(-1.0, 1.0) * k * eps, -rng.expovariate(0.1)))
            ts, walk, found = _plan_bounds(k, m, eps, eps_g)
            if len(ts) < 2:
                continue
            assert found is not None
            below += [(k, m, eps, eps_g, t) for t in _bound_misses(ts, walk, found)]
            bounded += len(found[0])
        assert below == []
        assert bounded > 10_000
        # targeted tilts the candidates rarely hit: both endpoints beside
        # interior tilts, tilts one float below eps (q^(k-m) below the
        # normal range), eps up to 1e8 (1-q underflows), eps_g = inf (no
        # pair) and eps_g = -inf (a prefix sum of NaN, so no bound)
        rng = random.Random(41)
        bounded, subnormal, refused = 0, 0, 0
        for _ in range(1500):
            k = rng.randint(2, 60)
            m = rng.choice((0, k - 1, rng.randint(0, k - 1)))
            eps = rng.choice((10 ** rng.uniform(-3.0, 0.7), 10 ** rng.uniform(1.0, 8.0), 1e8))
            eps_g = rng.choice((rng.uniform(-1.0, 1.0) * k * eps, -rng.expovariate(0.1),
                                math.inf, -math.inf))
            ts = sorted({0.0, eps, rng.random() * eps, rng.random() * eps,
                         rng.choice((math.nextafter(eps, 0.0), eps * (1.0 - 1e-9)))})
            ts, walk, found = _plan_bounds(k, m, eps, eps_g, ts)
            if eps_g == -math.inf:
                assert found is None
                refused += 1
                continue
            assert found is not None
            below += [(k, m, eps, eps_g, t) for t in _bound_misses(ts, walk, found)]
            bounded += len(found[0])
            subnormal += any(
                0.0 < t < eps and grr_params(eps, t).q ** (k - m) < 2.0**-1022 for _, t in found[0]
            )
        assert below == []
        assert bounded > 2_000
        assert subnormal > 100
        assert refused > 300

    def test_large_eps_bound_stays_finite(self):
        # k = 12, m = 4, eps = 1000: a bound normalised by the last base
        # kept would need e^(c - s) up to e^10000 here; the prefix sums
        # normalised per j never raise an exponent above 0
        for i in range(101):
            eps_g = 120.0 * i
            ts, _, found = _plan_bounds(12, 4, 1000.0, eps_g)
            if len(ts) > 1:
                assert found is not None
                assert all(math.isfinite(u) for u, _ in found[0])
            q = CompositionQuery(k=12, m=4, eps=1000.0, eps_g=eps_g)
            assert delta_opt_mixed(q) == oracles.plain_delta_max(12, 4, 1000.0, eps_g)

    def test_non_finite_bound_walks_every_tilt(self, monkeypatch):
        # a prefix sum of e^w that overflows, or a rounding term too large
        # to bound (k eps above about 3e13), leaves no finite bound, and then no
        # tilt is skipped
        assert nonadaptive._bounded(1, 1.0, 0.0, [(-1.0, 709.0)] * 4, (0.0, 0.5)) is None
        assert nonadaptive._bounded(1, 1e300, 0.0, [(-1.0, 0.0)], (0.0, 5e299)) is None
        bounded = nonadaptive._bounded

        def overflowing(kb, eps, eps_g, pairs, ts):
            return bounded(kb, eps, eps_g, [(pairs[0][0], 709.0)] * 2 + list(pairs), ts)

        monkeypatch.setattr(nonadaptive, "_bounded", overflowing)
        sums_made = []
        exp_sum = nonadaptive._exp_sum
        monkeypatch.setattr(nonadaptive, "_exp_sum", lambda v: sums_made.append(v) or exp_sum(v))
        k, m, eps, eps_g = 10, 3, 0.2, 0.5
        got = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g))
        assert len(sums_made) == len(mixed_candidate_ts(k, m, eps, eps_g)) > 1
        assert got == oracles.plain_delta_max(k, m, eps, eps_g)

    def test_curve_walks_one_tilt_per_point(self, monkeypatch):
        # the 101-point curve k = 30, m = 20, eps = 0.09 over eps_g 0:3:0.03
        # walked 972 sums when every candidate was walked; now one per point
        sums_made = []
        exp_sum = nonadaptive._exp_sum
        monkeypatch.setattr(nonadaptive, "_exp_sum", lambda v: sums_made.append(v) or exp_sum(v))
        for i in range(101):
            delta_opt_mixed(CompositionQuery(k=30, m=20, eps=0.09, eps_g=0.03 * i))
        assert len(sums_made) == 101

    @pytest.mark.parametrize(
        "k, m, eps, eps_g, walks", [(20, 16, 4.0, 1.0, 1), (25, 20, 4.0, 5.0, 6)]
    )
    def test_pair_cut_keeps_the_slope_short(self, monkeypatch, k, m, eps, eps_g, walks):
        # delta lies within 1e-10 of 1 here, so the tilts' sums nearly tie
        # and eta's slope, (k - m + 1) times the pairs _bounded keeps,
        # decides which tilts are walked; keeping every pair past s_hi
        # walks 2 and 8 sums
        sums_made = []
        exp_sum = nonadaptive._exp_sum
        monkeypatch.setattr(nonadaptive, "_exp_sum", lambda v: sums_made.append(v) or exp_sum(v))
        got = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g))
        assert len(sums_made) == walks
        assert got == oracles.plain_delta_max(k, m, eps, eps_g)


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

    def test_matches_plain_bisection(self):
        # the early-exit test decides every midpoint as the full bound does
        rng = random.Random(29)
        calls = []
        for _ in range(1000):
            bound = rng.choice(("dp", "br", "mixed"))
            k = rng.randint(1, 60) if bound == "dp" else rng.randint(1, 20)
            m = rng.randint(0, k) if bound == "mixed" else None
            eps = rng.choice((10 ** rng.uniform(-2.0, 0.5), 10 ** rng.uniform(1.0, 8.0)))
            delta = rng.choice((10 ** rng.uniform(-12.0, -0.05), 0.999))
            tol = rng.choice((1e-9, 1e-6, 0.0))
            calls.append((delta, bound, k, eps, m, tol))
        differ = [
            c for c in calls
            if eps_inverse(*c[:4], m=c[4], tol=c[5])
            != oracles.plain_eps_inverse(*c[:4], m=c[4], tol=c[5])
        ]
        assert differ == []

    def test_predicted_walk_matches_plain_at_tol_zero(self):
        # down to adjacent floats, k*eps up to 1e9: every midpoint the
        # predicted bracket decides is decided as the full bound decides it
        rng = random.Random(31)
        calls = []
        for _ in range(3000):
            bound = rng.choice(("dp", "br", "mixed"))
            k = rng.randint(1, 200) if bound == "dp" else rng.randint(1, 12)
            m = rng.randint(0, k) if bound == "mixed" else None
            eps = 10 ** rng.uniform(-2.0, math.log10(1e9 / k))
            delta = rng.choice((10 ** rng.uniform(-30.0, -0.05), 0.999))
            calls.append((delta, bound, k, eps, m))
        differ = [
            c for c in calls
            if eps_inverse(*c[:4], m=c[4], tol=0.0)
            != oracles.plain_eps_inverse(*c[:4], m=c[4], tol=0.0)
        ]
        assert differ == []

    @pytest.mark.parametrize(
        "delta, bound, k, eps, m, sums",
        [(1e-6, "mixed", 20, 0.1, 7, 11), (1e-9, "mixed", 30, 0.05, 20, 12),
         (1e-6, "br", 20, 0.1, None, 10), (1e-6, "br", 12, 0.3, None, 11),
         (1e-6, "dp", 25, 0.1, None, 15)],
    )
    def test_feasibility_test_stops_at_first_tilt_above_target(
        self, monkeypatch, delta, bound, k, eps, m, sums
    ):
        # per-tilt sums of one inversion, each ending in one _exp_sum: the
        # midpoint tests stop at the first tilt above the target, and the
        # full bound behind the predicted bracket walks only the tilts its
        # bounds leave open; walking every tilt at each midpoint makes more
        sums_made = []
        exp_sum = nonadaptive._exp_sum

        def counted(terms):
            sums_made.append(len(terms))
            return exp_sum(terms)

        monkeypatch.setattr(nonadaptive, "_exp_sum", counted)
        eps_inverse(delta, bound, k, eps, m=m)
        assert len(sums_made) == sums

    @pytest.mark.parametrize("bound", ["dp", "br"])
    def test_m_is_refused_unless_mixed(self, bound):
        # "br" with m = 3 must not answer with the m = 0 root, 0.6286: the
        # mixed root at m = 3 is 0.7653
        with pytest.raises(ValueError, match="^m is for bound='mixed' only"):
            eps_inverse(1e-6, bound, 10, 0.1, m=3)
        with pytest.raises(ValueError, match="^m is for bound='mixed' only"):
            nonadaptive._bound_curve(bound, 10, 0.1, 3)
        assert eps_inverse(1e-6, "mixed", 10, 0.1, m=3) == pytest.approx(0.7653, abs=1e-4)

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

    @pytest.mark.parametrize(
        "bound, k, eps, m, name",
        [("dp", 0, 0.1, None, "k"), ("br", 0, 0.1, None, "k"), ("dp", 2, 0.0, None, "eps"),
         ("br", 2, -0.1, None, "eps"), ("mixed", 2, 0.1, 3, "m"), ("mixed", 2, 0.1, -1, "m")],
    )
    def test_query_is_checked_before_the_probe(self, bound, k, eps, m, name):
        # the eps_g = 0 probe would answer for these rather than refuse them
        with pytest.raises(ValueError, match=f"^{name} must"):
            eps_inverse(1e-6, bound, k, eps, m=m)
