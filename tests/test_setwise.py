"""Tests for heterogeneous set-wise accounting."""

import dataclasses
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp import setwise
from dpcomp.setwise import (
    AccountantStateError,
    BoundedRange,
    Cdp,
    ConsumeMismatchError,
    PureDP,
    SetwiseAccountant,
    Zcdp,
    br_mean_loss,
    convert_to_cdp,
    convert_to_zcdp,
    dp_mean_loss,
    global_bound_homogeneous,
    zcdp_dp_guarantee,
)

from .oracles import (
    LinearScanAccountant,
    mp_br_mean,
    mp_dp_mean,
    mp_setwise_eps,
    mp_zcdp_eps,
)


class TestPrivacyClasses:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            PureDP(eps=0.0)
        with pytest.raises(ValueError):
            PureDP(eps=math.inf)
        with pytest.raises(ValueError):
            BoundedRange(alpha=-1.0)
        with pytest.raises(ValueError):
            Cdp(mu=-0.1, tau=1.0)
        with pytest.raises(ValueError):
            Cdp(mu=0.1, tau=0.0)
        with pytest.raises(ValueError):
            Zcdp(delta=1.0, xi=0.0, rho=0.1)
        with pytest.raises(ValueError):
            Zcdp(delta=0.0, xi=math.nan, rho=0.1)
        with pytest.raises(ValueError):
            Zcdp(delta=0.0, xi=0.0, rho=-0.1)

    def test_frozen(self) -> None:
        c = PureDP(eps=1.0)
        with pytest.raises(AttributeError):
            c.eps = 2.0  # type: ignore[misc]


class TestMeanLosses:
    def test_dp_mean_frozen(self) -> None:
        # eps * tanh(eps/2) at eps=1
        assert dp_mean_loss(1.0) == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_br_mean_frozen(self) -> None:
        assert br_mean_loss(1.0) == pytest.approx(0.12330156148224454, abs=1e-15)
        assert br_mean_loss(0.5) == pytest.approx(0.031142092261155878, abs=1e-15)
        # quadratic regime: ~ alpha^2 / 24 at alpha -> 0
        assert br_mean_loss(1e-9) == pytest.approx(1.25e-19, rel=1e-6)

    def test_br_mean_validation(self) -> None:
        with pytest.raises(ValueError):
            br_mean_loss(0.0)
        with pytest.raises(ValueError):
            br_mean_loss(math.inf)

    @given(st.floats(min_value=1e-8, max_value=200.0))
    @settings(max_examples=150, deadline=None)
    def test_br_mean_matches_oracle(self, alpha: float) -> None:
        got = br_mean_loss(alpha)
        want = float(mp_br_mean(alpha))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_dp_mean_matches_oracle(self, eps: float) -> None:
        assert dp_mean_loss(eps) == pytest.approx(
            float(mp_dp_mean(eps)), rel=1e-12, abs=1e-300
        )

    @given(st.floats(min_value=1e-6, max_value=100.0))
    @settings(max_examples=150, deadline=None)
    def test_br_offset_never_positive(self, alpha: float) -> None:
        # the zCDP offset of a BR mechanism, mean - alpha^2/8, stays <= 0,
        # so the BR conversion never inflates the pure-rho budget
        z = convert_to_zcdp(BoundedRange(alpha))
        assert z.xi <= 1e-15

    def test_br_offset_frozen(self) -> None:
        z = convert_to_zcdp(BoundedRange(1.0))
        assert z.xi == pytest.approx(-0.00169843851775546, abs=1e-15)


class TestConversions:
    def test_pure_dp_to_cdp(self) -> None:
        pair = convert_to_cdp(PureDP(eps=0.7))
        assert pair.tau == 0.7
        assert pair.mu == pytest.approx(dp_mean_loss(0.7), abs=0.0)

    def test_br_to_cdp(self) -> None:
        pair = convert_to_cdp(BoundedRange(alpha=0.9))
        assert pair.tau == pytest.approx(0.45, abs=0.0)
        assert pair.mu == pytest.approx(br_mean_loss(0.9), abs=0.0)

    def test_smallest_br_converts_on_the_safe_side(self) -> None:
        # 5e-324 / 2 rounds to 0.0, which Cdp rejects as a tau
        pair = convert_to_cdp(BoundedRange(alpha=5e-324))
        assert (pair.mu, pair.tau) == (0.0, 5e-324)

    def test_cdp_passthrough(self) -> None:
        c = Cdp(mu=0.2, tau=0.6)
        assert convert_to_cdp(c) is c

    def test_zcdp_rejected_on_cdp_route(self) -> None:
        with pytest.raises(ValueError):
            convert_to_cdp(Zcdp(delta=0.0, xi=0.0, rho=0.5))

    def test_pure_dp_to_zcdp(self) -> None:
        z = convert_to_zcdp(PureDP(eps=2.0))
        assert (z.delta, z.xi, z.rho) == (0.0, 0.0, 2.0)

    def test_br_to_zcdp(self) -> None:
        z = convert_to_zcdp(BoundedRange(alpha=2.0))
        assert z.delta == 0.0
        assert z.rho == 0.5
        assert z.xi == pytest.approx(br_mean_loss(2.0) - 0.5, abs=0.0)

    def test_cdp_to_zcdp(self) -> None:
        z = convert_to_zcdp(Cdp(mu=0.5, tau=0.8))
        assert z.delta == 0.0
        assert z.rho == pytest.approx(0.32, abs=1e-16)
        assert z.xi == pytest.approx(0.5 - 0.32, abs=1e-16)

    def test_zcdp_passthrough(self) -> None:
        z = Zcdp(delta=1e-8, xi=-0.1, rho=0.25)
        assert convert_to_zcdp(z) is z

    def test_zcdp_dp_guarantee(self) -> None:
        z = Zcdp(delta=1e-8, xi=-0.1, rho=0.25)
        eps, total = zcdp_dp_guarantee(z, delta=1e-6)
        want = -0.1 + 0.25 + 2.0 * math.sqrt(0.25 * math.log(1e6))
        assert eps == pytest.approx(want, rel=1e-15)
        assert total == pytest.approx(1e-6 + 1e-8, rel=1e-15)
        with pytest.raises(ValueError):
            zcdp_dp_guarantee(z, delta=0.0)


class TestGlobalBoundCdp:
    def test_heterogeneous_frozen(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(PureDP(eps=1.0))
        acc.register(BoundedRange(alpha=1.0))
        acc.register(Cdp(mu=0.3, tau=0.5))
        assert acc.global_bound_cdp() == pytest.approx(
            7.323316797610296, abs=1e-12
        )

    def test_explicit_delta_overrides_slack(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(PureDP(eps=0.5))
        assert acc.global_bound_cdp(1e-3) < acc.global_bound_cdp()

    def test_matches_oracle(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-5)
        classes = [PureDP(0.3), PureDP(1.1), BoundedRange(0.7), Cdp(0.05, 0.2)]
        for c in classes:
            acc.register(c)
        pairs = [convert_to_cdp(c) for c in classes]
        want = float(
            mp_setwise_eps([p.mu for p in pairs], [p.tau for p in pairs], 1e-5)
        )
        assert acc.global_bound_cdp() == pytest.approx(want, rel=1e-13)

    def test_advanced_composition_identity(self) -> None:
        # k copies of pure eps-DP reduce to the classical k-fold formula
        # k*eps*(e^eps-1)/(e^eps+1) + eps*sqrt(2 k ln(1/delta))
        for k, eps, delta in ((25, 0.1, 1e-6), (100, 0.05, 1e-9), (7, 1.3, 1e-4)):
            acc = SetwiseAccountant(delta_slack=delta)
            for _ in range(k):
                acc.register(PureDP(eps))
            closed = k * eps * math.expm1(eps) / (
                math.exp(eps) + 1.0
            ) + eps * math.sqrt(2.0 * k * math.log(1.0 / delta))
            assert acc.global_bound_cdp() == pytest.approx(closed, abs=1e-12)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.01, max_value=3.0).map(PureDP),
                st.floats(min_value=0.01, max_value=3.0).map(BoundedRange),
                st.tuples(
                    st.floats(min_value=0.0, max_value=1.0),
                    st.floats(min_value=0.01, max_value=2.0),
                ).map(lambda t: Cdp(mu=t[0], tau=t[1])),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_independence(self, classes, rng) -> None:
        a = SetwiseAccountant(1e-6)
        for c in classes:
            a.register(c)
        shuffled = list(classes)
        rng.shuffle(shuffled)
        b = SetwiseAccountant(1e-6)
        for c in shuffled:
            b.register(c)
        assert a.global_bound_cdp() == pytest.approx(
            b.global_bound_cdp(), rel=1e-12
        )

    def test_rejects_zcdp_registrations(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.register(Zcdp(delta=0.0, xi=0.0, rho=0.1))
        with pytest.raises(ValueError):
            acc.global_bound_cdp()

    def test_empty_accountant(self) -> None:
        with pytest.raises(ValueError):
            SetwiseAccountant(1e-6).global_bound_cdp()

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_matches_accountant(
        self, m_dp, m_br, m_cdp, eps, alpha, mu, tau
    ) -> None:
        if m_dp + m_br + m_cdp == 0:
            with pytest.raises(ValueError):
                global_bound_homogeneous(
                    m_dp, eps, m_br, alpha, m_cdp, mu, tau, 1e-6
                )
            return
        acc = SetwiseAccountant(1e-6)
        for _ in range(m_dp):
            acc.register(PureDP(eps))
        for _ in range(m_br):
            acc.register(BoundedRange(alpha))
        for _ in range(m_cdp):
            acc.register(Cdp(mu=mu, tau=tau))
        want = global_bound_homogeneous(m_dp, eps, m_br, alpha, m_cdp, mu, tau, 1e-6)
        assert acc.global_bound_cdp() == pytest.approx(want, rel=1e-12)


class TestGlobalBoundZcdp:
    def test_frozen(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(Zcdp(delta=0.0, xi=0.0, rho=0.5))
        acc.register(Zcdp(delta=0.0, xi=0.0, rho=0.125))
        acc.register(Zcdp(delta=0.0, xi=-0.1, rho=0.3))
        eps, total = acc.global_bound_zcdp()
        assert eps == pytest.approx(7.974642582987475, abs=1e-12)
        assert total == pytest.approx(1e-6, rel=1e-15)

    def test_mixed_classes_and_delta_total(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(PureDP(1.0))
        acc.register(Zcdp(delta=1e-2, xi=-0.1, rho=0.3))
        eps, total = acc.global_bound_zcdp()
        want = float(mp_zcdp_eps([0.0, -0.1], [0.5, 0.3], 1e-6))
        assert eps == pytest.approx(want, rel=1e-13)
        assert total == pytest.approx(1e-6 + 1e-2, rel=1e-15)

    def test_never_below_cdp_route_information(self) -> None:
        # pure-DP sets: zCDP route uses rho = eps^2/2 with xi = 0, so the
        # budgets are comparable and both must cover the mechanism set
        acc = SetwiseAccountant(1e-6)
        for _ in range(10):
            acc.register(PureDP(0.4))
        eps_z, total = acc.global_bound_zcdp()
        assert total == pytest.approx(1e-6)
        assert eps_z > 0.0

    def test_empty_accountant(self) -> None:
        with pytest.raises(ValueError):
            SetwiseAccountant(1e-6).global_bound_zcdp()


class TestConsumeLifecycle:
    def test_register_after_consume_raises(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.register(PureDP(2.0))
        acc.consume(PureDP(1.0))
        with pytest.raises(AccountantStateError):
            acc.register(PureDP(0.5))

    def test_consume_unknown_raises(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        with pytest.raises(ConsumeMismatchError):
            acc.consume(PureDP(2.0))

    def test_consume_exhausted_raises(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.register(PureDP(1.0))
        acc.consume(PureDP(1.0))
        acc.consume(PureDP(1.0))
        with pytest.raises(ConsumeMismatchError):
            acc.consume(PureDP(1.0))

    def test_unknown_class_is_type_error(self) -> None:
        acc = SetwiseAccountant(1e-6)
        with pytest.raises(TypeError, match="unknown privacy class tuple"):
            acc.register((0.1, 0.2))
        acc.register(PureDP(1.0))
        with pytest.raises(TypeError, match="unknown privacy class str"):
            acc.consume("pure_dp")
        assert acc.registered == (PureDP(1.0),) and acc.consumed == ()

    @pytest.mark.parametrize("c", [Cdp(0.1, 1e200), PureDP(1e200), BoundedRange(1e200)])
    def test_overflowing_register_leaves_state_unchanged(self, c) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(0.5)).register(Cdp(0.1, 0.4))
        cdp, zcdp = acc.global_bound_cdp(1e-6), acc.global_bound_zcdp(1e-6)
        with pytest.raises(ValueError, match="overflow"):
            acc.register(c)
        assert acc.registered == (PureDP(0.5), Cdp(0.1, 0.4))
        assert acc.global_bound_cdp(1e-6) == cdp
        assert acc.global_bound_zcdp(1e-6) == zcdp
        # the failed guarantee was never filed as spendable
        with pytest.raises(ConsumeMismatchError):
            acc.consume(c)

    def test_consume_matches_with_rounding(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(0.5))
        acc.consume(PureDP(0.5 + 1e-13))
        assert len(acc.consumed) == 1

    def test_consume_rejects_beyond_rounding(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(0.5))
        with pytest.raises(ConsumeMismatchError):
            acc.consume(PureDP(0.5 + 1e-10))

    def test_near_duplicates_spend_the_exact_match(self) -> None:
        # delta 1e-13 and 4e-13 share a canonical key: the exact value
        # decides, on a direct consume and on the from_json replay alike
        low, high = Zcdp(1e-13, 0.0, 0.1), Zcdp(4e-13, 0.0, 0.1)
        acc = SetwiseAccountant(1e-6)
        acc.register(low).register(high)
        with pytest.raises(ConsumeMismatchError, match="ambiguous"):
            acc.consume(Zcdp(2e-13, 0.0, 0.1))
        acc.consume(Zcdp(4e-13, 0.0, 0.1))
        assert acc.consumed[0] is high
        clone = SetwiseAccountant.from_json(acc.to_json())
        assert clone.consumed == (high,)
        assert clone.to_json() == acc.to_json()
        # one value left under the key, so a rounded match spends it
        clone.consume(Zcdp(2e-13, 0.0, 0.1))
        assert clone.consumed == (high, low)

    def test_session_keys_each_event_once(self, monkeypatch) -> None:
        n = 2000
        calls = 0
        key = setwise._canonical_key

        def counting(c):
            nonlocal calls
            calls += 1
            return key(c)

        monkeypatch.setattr(setwise, "_canonical_key", counting)
        classes = [
            PureDP(0.1 + (i % 50) * 0.01) if i % 2 else BoundedRange(0.2 + (i % 7) * 0.1)
            for i in range(n)
        ]
        acc = SetwiseAccountant(1e-6)
        for c in classes:
            acc.register(c)
        for c in reversed(classes):
            acc.consume(c)
        clone = SetwiseAccountant.from_json(acc.to_json())
        assert clone.to_json() == acc.to_json()
        assert calls <= 4 * n

    def test_bound_unchanged_by_consumption(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.register(BoundedRange(0.8))
        before = acc.global_bound_cdp()
        acc.consume(BoundedRange(0.8))
        assert acc.global_bound_cdp() == before

    def test_consume_any_order(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.register(Cdp(mu=0.1, tau=0.2))
        acc.register(BoundedRange(0.8))
        acc.consume(BoundedRange(0.8))
        acc.consume(PureDP(1.0))
        acc.consume(Cdp(mu=0.1, tau=0.2))
        assert len(acc.consumed) == 3

    def test_large_float64_fields_keep_distinct_keys(self) -> None:
        # numpy's round scales by 1e12 first, so 1e300 and 3e300 both keyed
        # as inf, with an overflow RuntimeWarning, and 3e300 spent 1e300
        big, bigger = np.float64(1e300), np.float64(3e300)
        acc = SetwiseAccountant(1e-6).register(Cdp(big, np.float64(2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert setwise._canonical_key(PureDP(big)) != setwise._canonical_key(PureDP(bigger))
            with pytest.raises(ConsumeMismatchError):
                acc.consume(Cdp(bigger, np.float64(2.0)))
            acc.consume(Cdp(big, np.float64(2.0)))
        assert acc.consumed == (Cdp(1e300, 2.0),)


_OFFSETS = (0.0, 1e-13, -1e-13, 1e-10, -1e-10)
# exact repeats, near-duplicates inside and beyond the 1e-12 rounding, and
# the delta pair 1e-13 / 4e-13 that rounds to one key
_POOL = (
    [(PureDP, (0.5 + d,)) for d in _OFFSETS]
    + [(Cdp, (0.1, 0.4 + d)) for d in _OFFSETS]
    + [(Zcdp, (1e-13, 0.0, 0.1 + d)) for d in _OFFSETS]
    + [(Zcdp, (4e-13, 0.0, 0.1))]
)
_POOL_INDEX = st.integers(min_value=0, max_value=len(_POOL) - 1)


class TestConsumeAgainstReference:
    @given(
        st.lists(_POOL_INDEX, max_size=12),
        st.lists(_POOL_INDEX, max_size=16),
        _POOL_INDEX,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_spends_as_linear_scan(self, regs, cons, late) -> None:
        acc = SetwiseAccountant(1e-6)
        ref = LinearScanAccountant(1e-6)
        ops = [("register", i) for i in regs] + [("consume", i) for i in cons]
        for op, i in ops + [("register", late)]:
            cls, args = _POOL[i]
            c = cls(*args)
            raised = []
            for target in (acc, ref):
                try:
                    getattr(target, op)(c)
                    raised.append(None)
                except (AccountantStateError, ConsumeMismatchError) as exc:
                    raised.append(type(exc))
            assert raised[0] == raised[1]
            # the same registered objects, never the queries
            assert [id(x) for x in acc.consumed] == [id(x) for x in ref.consumed]
        assert acc.to_json() == ref.to_json()
        clone = SetwiseAccountant.from_json(acc.to_json())
        assert clone.to_json() == acc.to_json()


class TestJsonRoundTrip:
    def test_roundtrip_preserves_state_and_bound(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-7)
        acc.register(PureDP(1.0))
        acc.register(BoundedRange(0.8))
        acc.register(Cdp(mu=0.3, tau=0.5))
        acc.consume(BoundedRange(0.8))
        clone = SetwiseAccountant.from_json(acc.to_json())
        assert clone.delta_slack == acc.delta_slack
        assert clone.registered == acc.registered
        assert clone.consumed == acc.consumed
        assert clone.global_bound_cdp() == acc.global_bound_cdp()

    def test_roundtrip_zcdp(self) -> None:
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(Zcdp(delta=1e-9, xi=-0.05, rho=0.2))
        clone = SetwiseAccountant.from_json(acc.to_json())
        assert clone.global_bound_zcdp() == acc.global_bound_zcdp()

    def test_clone_respects_freeze(self) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(1.0))
        acc.consume(PureDP(1.0))
        clone = SetwiseAccountant.from_json(acc.to_json())
        with pytest.raises(AccountantStateError):
            clone.register(PureDP(2.0))

    def test_literal_format_of_every_class(self) -> None:
        # the tags and field names are the file format: a rename must fail here
        acc = SetwiseAccountant(delta_slack=1e-6)
        acc.register(PureDP(0.5)).register(BoundedRange(0.25))
        acc.register(Cdp(mu=0.125, tau=0.5))
        acc.register(Zcdp(delta=1e-9, xi=-0.0625, rho=0.5))
        acc.consume(BoundedRange(0.25))
        assert acc.to_json() == (
            '{\n  "consumed": [\n    {\n      "alpha": 0.25,\n      "tag": "br"\n'
            '    }\n  ],\n  "delta_slack": 1e-06,\n  "registered": [\n    {\n'
            '      "eps": 0.5,\n      "tag": "pure_dp"\n    },\n    {\n'
            '      "alpha": 0.25,\n      "tag": "br"\n    },\n    {\n'
            '      "mu": 0.125,\n      "tag": "cdp",\n      "tau": 0.5\n    },\n'
            '    {\n      "delta": 1e-09,\n      "rho": 0.5,\n      "tag": "zcdp",\n'
            '      "xi": -0.0625\n    }\n  ]\n}'
        )

    @pytest.mark.parametrize("tag", [["pure_dp"], {"pure_dp": 1}, None, 3])
    def test_non_string_tag_is_value_error(self, tag) -> None:
        payload = json.dumps(
            {"registered": [{"tag": tag, "eps": 0.5}], "consumed": [], "delta_slack": 1e-6}
        )
        with pytest.raises(ValueError, match="unknown tag"):
            SetwiseAccountant.from_json(payload)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ("[]", "object"),
            ('{"registered": 3, "consumed": [], "delta_slack": 1e-6}', "'registered'"),
            ('{"registered": [], "consumed": null, "delta_slack": 1e-6}', "'consumed'"),
            ('{"registered": {"tag": "br"}, "consumed": [], "delta_slack": 1e-6}', "'registered'"),
        ],
        ids=["top-level-array", "registered-int", "consumed-null", "registered-object"],
    )
    def test_wrong_json_type_is_value_error_naming_it(self, payload, field) -> None:
        with pytest.raises(ValueError, match=field):
            SetwiseAccountant.from_json(payload)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ('{"registered": [], "consumed": [], "delta_slack": "x"}', "delta_slack"),
            ('{"registered": [{"tag": "pure_dp", "eps": "x"}], "consumed": [],'
             ' "delta_slack": 1e-6}', "eps"),
            ('{"registered": [{"tag": "cdp", "mu": 0.1, "tau": null}], "consumed": [],'
             ' "delta_slack": 1e-6}', "tau"),
            ('{"registered": [{"tag": "zcdp", "delta": [0], "xi": 0, "rho": 1}], "consumed": [],'
             ' "delta_slack": 1e-6}', "delta"),
            ('{"registered": [{"tag": "br", "alpha": 1' + "0" * 400 + '}], "consumed": [],'
             ' "delta_slack": 1e-6}', "alpha"),
        ],
        ids=["string-delta-slack", "string-eps", "null-tau", "list-delta", "400-digit-alpha"],
    )
    def test_field_that_is_not_a_float_is_value_error_naming_it(self, payload, field) -> None:
        with pytest.raises(ValueError) as info:
            SetwiseAccountant.from_json(payload)
        assert str(info.value) == (
            f"accountant JSON field {field!r} must be a number in the float range"
        )


# Field values the writer must render as json.dumps does: ints, bools, a
# float subclass, -0.0, and floats at the ends of the range.
_WRITER_VALUES = (
    0.5, 0.125, 1e-300, 1e200, 5e-324, -0.0, 0, 1, 2, True, False, np.float64(0.75)
)


def _seeded_class(rng: random.Random):
    """A guarantee of a random class, or None if its constructor refuses it."""

    def pick():
        if rng.random() < 0.4:
            return rng.choice(_WRITER_VALUES)
        return 10.0 ** rng.uniform(-3.0, 0.5)

    cls, n = rng.choice([(PureDP, 1), (BoundedRange, 1), (Cdp, 2), (Zcdp, 3)])
    try:
        return cls(*[pick() for _ in range(n)])
    except ValueError:
        return None


def _seeded_session(seed: int, acc, ref=None):
    """Registers, then consumes, the same seeded events on acc (and ref).

    Returns the guarantees acc registered.  A guarantee acc refuses is
    left out of ref as well; refused consumes must be refused by both.
    """
    rng = random.Random(seed)
    registered = []
    for _ in range(rng.randrange(0, 12)):
        c = _seeded_class(rng)
        if c is None:
            continue
        if registered and rng.random() < 0.3:
            # a repeat, as the same object or an equal copy
            c = rng.choice(registered)
            c = c if rng.random() < 0.5 else dataclasses.replace(c)
        try:
            acc.register(c)
        except ValueError:
            continue
        if ref is not None:
            ref.register(c)
        registered.append(c)
    for _ in range(rng.randrange(0, len(registered) + 2)):
        c = rng.choice(registered) if registered and rng.random() < 0.8 else _seeded_class(rng)
        if c is None:
            continue
        outcomes = []
        for target in (acc, ref) if ref is not None else (acc,):
            try:
                target.consume(c)
                outcomes.append(None)
            except ConsumeMismatchError:
                outcomes.append(ConsumeMismatchError)
        assert len(set(outcomes)) == 1
    return registered


class TestWriterAgainstPlainJson:
    """to_json's templates against the plain json.dumps(indent=2) route."""

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_sessions_match_linear_scan_writer(self, block) -> None:
        for seed in range(100 * block, 100 * block + 100):
            slack = random.Random(-seed).choice([1e-6, 1e-300, 0.5, 5e-324])
            acc, ref = SetwiseAccountant(slack), LinearScanAccountant(slack)
            _seeded_session(seed, acc, ref)
            assert acc.to_json() == ref.to_json(), seed
            clone = SetwiseAccountant.from_json(acc.to_json())
            assert clone.to_json() == acc.to_json(), seed

    def test_every_class_and_field_type_is_covered(self) -> None:
        seen = set()
        for seed in range(400):
            acc = SetwiseAccountant(1e-6)
            for c in _seeded_session(seed, acc):
                for v in dataclasses.astuple(c):
                    seen.add((type(c).__name__, type(v).__name__, repr(v)))
        for cls in ("PureDP", "BoundedRange", "Cdp", "Zcdp"):
            assert {t for c, t, _ in seen if c == cls} == {"float", "int", "bool", "float64"}, cls
        for v in ("-0.0", "1e-300", "1e+200", "5e-324"):
            assert any(r == v for _, _, r in seen), v

    def test_empty_lists_and_field_types(self) -> None:
        acc, ref = SetwiseAccountant(1e-6), LinearScanAccountant(1e-6)
        assert acc.to_json() == ref.to_json()
        assert '"consumed": [],' in acc.to_json() and '"registered": []' in acc.to_json()
        for c in (PureDP(1), PureDP(True), Zcdp(False, -0.0, 2), Cdp(-0.0, 5e-324)):
            acc.register(c)
            ref.register(c)
        assert acc.to_json() == ref.to_json()
        assert '"eps": 1,' in acc.to_json() and '"eps": true,' in acc.to_json()
        assert '"delta": false,' in acc.to_json() and '"xi": -0.0' in acc.to_json()


class TestSumsAgainstConversions:
    """The running sums against a fold over the public conversions."""

    @staticmethod
    def _folds(registered, delta):
        mu = tau_sq = xi_rho = rho = delta_sum = 0.0
        for c in registered:
            z = convert_to_zcdp(c)
            xi_rho += z.xi + z.rho
            rho += z.rho
            delta_sum += z.delta
            if not isinstance(c, Zcdp):
                pair = convert_to_cdp(c)
                mu += pair.mu
                tau_sq += pair.tau**2
        log_inv = math.log(1.0 / delta)
        cdp = mu + math.sqrt(2.0 * tau_sq * log_inv)
        zcdp = (xi_rho + 2.0 * math.sqrt(rho * log_inv), delta + delta_sum)
        return cdp, zcdp

    def test_seeded_sets_equal_the_folds(self) -> None:
        checked = 0
        for seed in range(600):
            acc = SetwiseAccountant(1e-6)
            registered = _seeded_session(seed, acc)
            if not registered:
                continue
            delta = random.Random(-seed).choice([1e-6, 1e-12, 0.25, 1e-300])
            cdp, zcdp = self._folds(registered, delta)
            assert acc.global_bound_zcdp(delta) == zcdp, seed
            if any(isinstance(c, Zcdp) for c in registered):
                with pytest.raises(ValueError, match="zCDP registrations present"):
                    acc.global_bound_cdp(delta)
            else:
                assert acc.global_bound_cdp(delta) == cdp, seed
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize(
        "c", [PureDP(1e200), Cdp(1e308, 1e200)], ids=["pure-dp-1e200", "cdp-1e308-1e200"]
    )
    def test_overflowing_terms_keep_their_message(self, c) -> None:
        acc = SetwiseAccountant(1e-6)
        acc.register(PureDP(0.5)).register(BoundedRange(0.3))
        before = (acc.to_json(), acc.global_bound_cdp(), acc.global_bound_zcdp())
        with pytest.raises(ValueError) as info:
            acc.register(c)
        assert str(info.value) == f"cannot register {c}: its terms overflow a float"
        assert (acc.to_json(), acc.global_bound_cdp(), acc.global_bound_zcdp()) == before

    @pytest.mark.parametrize(
        "c",
        [PureDP(np.float64(1e200)), BoundedRange(np.float64(1e200)),
         Cdp(np.float64(1e100), np.float64(1e200))],
        ids=["pure-dp", "br", "cdp"],
    )
    def test_float64_overflow_keeps_the_float_message(self, c) -> None:
        # numpy's float64 squares to inf with a RuntimeWarning, not an OverflowError
        acc = SetwiseAccountant(1e-6).register(PureDP(0.5))
        before = acc.to_json()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                acc.register(c)
        assert str(info.value) == f"cannot register {c}: its terms overflow a float"
        assert acc.to_json() == before
