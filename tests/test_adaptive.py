"""Adaptive composition recursion against closed forms and mpf oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcomp.adaptive import (
    GridSpec,
    MechanismSequence,
    delta_opt_recursive,
    ordering_gap_curve,
    single_br_delta,
    two_br_delta,
    x_curve,
    xyz_closed_forms,
    y_curve,
    z_curve,
)
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
)

from . import oracles

FAST = GridSpec(points_per_level=1001, refine_rounds=40)
SMALL = GridSpec(points_per_level=401, refine_rounds=30)


class TestTypes:
    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            MechanismSequence((), 1.0)
        with pytest.raises(ValueError):
            MechanismSequence(("dp",) * 13, 1.0)
        with pytest.raises(ValueError):
            MechanismSequence(("dp", "xx"), 1.0)
        with pytest.raises(ValueError):
            MechanismSequence(("dp",), 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(points_per_level=1)
        with pytest.raises(ValueError):
            GridSpec(refine_rounds=-1)

    def test_nan_budget(self):
        with pytest.raises(ValueError):
            delta_opt_recursive(MechanismSequence(("dp",), 1.0), math.nan)


class TestSingleBr:
    def test_frozen(self):
        # values from mp_single_br_closed
        assert single_br_delta(1.0, 0.2) == pytest.approx(
            0.17194326387258246, abs=1e-14
        )
        assert single_br_delta(1.0, -0.4) == pytest.approx(
            0.400914592666367, abs=1e-14
        )

    def test_regions(self):
        assert single_br_delta(1.0, 1.0) == 0.0
        assert single_br_delta(1.0, 2.0) == 0.0
        assert single_br_delta(1.0, -1.0) == pytest.approx(
            -math.expm1(-1.0), abs=1e-15
        )

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_matches_recursion(self, eps, budget):
        got = delta_opt_recursive(MechanismSequence(("br",), eps), budget, SMALL)
        assert got == pytest.approx(single_br_delta(eps, budget), abs=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_matches_nonadaptive_single(self, eps, budget):
        # one slot: adaptive and non-adaptive are the same object
        assert single_br_delta(eps, budget) == pytest.approx(
            delta_opt_br_nonadaptive(1, eps, budget), abs=1e-13
        )


class TestDpChains:
    @given(
        st.integers(1, 12),
        st.floats(min_value=0.1, max_value=1.5),
        st.floats(min_value=-1.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_dp_matches_closed_form(self, k, eps, eps_g):
        seq = MechanismSequence(("dp",) * k, eps)
        got = delta_opt_recursive(seq, eps_g, SMALL)
        assert got == pytest.approx(delta_opt_dp(k, eps, eps_g), abs=1e-12)


class TestThreeSlotClosedForms:
    # oracle rows from mp_xyz_deltas(1.0, eg)
    ORACLE = {
        0.1: (0.4670652602899863, 0.46219536964989916),
        0.3: (0.4136014226871532, 0.409278496799127),
        0.5: (0.3576829710612181, 0.3552477515681191),
        0.7: (0.3015515869857349, 0.30097154889324657),
        0.9: (0.2476515577384334, 0.24762784183381914),
    }

    def test_frozen(self):
        for eg, (dp_first, br_first) in self.ORACLE.items():
            forms = xyz_closed_forms(1.0, eg)
            assert forms.dp_br_br == pytest.approx(dp_first, abs=1e-13)
            assert forms.br_dp_br == pytest.approx(br_first, abs=1e-13)
            assert forms.br_br_dp == forms.br_dp_br

    def test_curves_match_mpf(self):
        # x lives on t <= eps_g, z on t >= eps_g, y on all of [0, eps]
        for t in (0.1, 0.35, 0.6):
            assert x_curve(1.0, 0.6, t) == pytest.approx(
                oracles.mp_xyz_curves(1.0, 0.6, t)[0], abs=1e-14
            )
        for t in (0.2, 0.45, 0.8):
            assert y_curve(1.0, 0.6, t) == pytest.approx(
                oracles.mp_xyz_curves(1.0, 0.6, t)[1], abs=1e-14
            )
        for t in (0.6, 0.8, 1.0):
            assert z_curve(1.0, 0.6, t) == pytest.approx(
                oracles.mp_xyz_curves(1.0, 0.6, t)[2], abs=1e-14
            )

    def test_recursion_agrees(self):
        for eg in (0.1, 0.5, 0.9):
            forms = xyz_closed_forms(1.0, eg)
            for slots, want in [
                (("dp", "br", "br"), forms.dp_br_br),
                (("br", "dp", "br"), forms.br_dp_br),
                (("br", "br", "dp"), forms.br_br_dp),
            ]:
                got = delta_opt_recursive(MechanismSequence(slots, 1.0), eg, FAST)
                assert got == pytest.approx(want, abs=1e-9)

    def test_boundary_takes_both_branches(self):
        forms = xyz_closed_forms(1.0, 0.5)
        got = delta_opt_recursive(
            MechanismSequence(("dp", "br", "br"), 1.0), 0.5, FAST
        )
        assert got == pytest.approx(forms.dp_br_br, abs=1e-9)

    def test_above_eps_orderings_coincide(self):
        forms = xyz_closed_forms(1.0, 1.3)
        assert forms.dp_br_br == forms.br_dp_br == forms.br_br_dp
        for slots in (("dp", "br", "br"), ("br", "dp", "br"), ("br", "br", "dp")):
            got = delta_opt_recursive(MechanismSequence(slots, 1.0), 1.3, FAST)
            assert got == pytest.approx(forms.dp_br_br, abs=1e-9)

    def test_strict_gap_below_eps(self):
        for eg in (0.0, 0.2, 0.5, 0.8, 0.99):
            forms = xyz_closed_forms(1.0, eg)
            assert forms.dp_br_br > forms.br_dp_br

    def test_validation(self):
        with pytest.raises(ValueError):
            xyz_closed_forms(1.0, -0.1)
        with pytest.raises(ValueError):
            xyz_closed_forms(0.0, 0.1)

    def test_gap_curve_rows(self):
        rows = ordering_gap_curve(1.0, [0.1, 0.4, 0.8])
        assert [r["eps_g"] for r in rows] == [0.1, 0.4, 0.8]
        for r in rows:
            assert r["abs_gap"] == pytest.approx(
                r["delta_dp_br_br"] - r["delta_br_dp_br"], abs=1e-15
            )
            assert r["ratio"] >= 1.0


class TestTwoBr:
    @given(st.floats(min_value=-2.5, max_value=2.5))
    @settings(max_examples=25, deadline=None)
    def test_matches_recursion(self, budget):
        got = delta_opt_recursive(
            MechanismSequence(("br", "br"), 1.0), budget, FAST
        )
        assert got == pytest.approx(two_br_delta(1.0, budget), abs=1e-9)

    def test_saturation(self):
        assert two_br_delta(1.0, 2.0) == 0.0
        assert two_br_delta(1.0, -2.5) == pytest.approx(
            -math.expm1(-2.5), abs=1e-14
        )


class TestOrderingProperties:
    def test_adaptive_at_least_nonadaptive(self):
        for slots, m in [
            (("br", "dp", "br"), 1),
            (("dp", "br", "dp"), 2),
            (("br", "br", "dp", "dp"), 2),
        ]:
            k = len(slots)
            for eg in (0.2, 0.9, 1.6):
                ad = delta_opt_recursive(MechanismSequence(slots, 0.8), eg, FAST)
                na = delta_opt_mixed(CompositionQuery(k=k, m=m, eps=0.8, eps_g=eg))
                assert ad >= na - 1e-9

    def test_single_br_position_invariance(self):
        for k in (2, 3, 4):
            for eg in (0.3, 1.0):
                assert oracles.single_br_position_invariance(
                    k, 1.0, eg, SMALL, tol=1e-6
                )

    def test_worst_case_ordering(self):
        br_earlier = MechanismSequence(("br", "dp", "br"), 1.0)
        dp_earlier = MechanismSequence(("dp", "br", "br"), 1.0)
        d_br = delta_opt_recursive(br_earlier, 0.4, SMALL)
        d_dp = delta_opt_recursive(dp_earlier, 0.4, SMALL)
        assert d_br <= d_dp + 1e-9

    def test_monotone_in_budget(self):
        seq = MechanismSequence(("br", "dp", "br"), 1.0)
        vals = [
            delta_opt_recursive(seq, eg, SMALL) for eg in (-0.5, 0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_deterministic(self):
        seq = MechanismSequence(("br", "br"), 0.7)
        assert delta_opt_recursive(seq, 0.4, SMALL) == delta_opt_recursive(
            seq, 0.4, SMALL
        )


@st.composite
def _short_sequences(draw):
    n = draw(st.integers(2, 4))
    brs = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    return tuple("br" if i in brs else "dp" for i in range(n))


class TestTerminalSlot:
    """The last BR slot is evaluated at its stationary candidates only."""

    # values of delta_opt_recursive with the default grid, searching the
    # terminal slot over the full tilt grid with golden-section polish too
    FROZEN = [
        (("br", "dp"), 0.548, -0.587, 0.48616904578556847),
        (("dp", "br"), 0.853, -0.38, 0.5124466007651526),
        (("br", "br"), 1.3, 0.4, 0.26918130665676154),
        (("dp", "br", "dp"), 1.844, 2.202, 0.5821907815305523),
        (("br", "dp", "br"), 1.554, -0.112, 0.6998376628979475),
        (("br", "dp", "dp", "dp"), 1.12, 0.107, 0.6798984213971999),
        (("dp", "br", "dp", "br"), 0.428, -0.575, 0.49558956545851607),
        (("br", "br", "dp", "dp"), 0.8, 1.1, 0.21605856477621466),
    ]

    @given(
        _short_sequences(),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=-1.0, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_never_beats_candidates(self, slots, eps, eps_g, frac):
        last = max(i for i, s in enumerate(slots) if s == "br")
        m = len(slots) - last - 1
        # earlier slots move the budget by at most eps each
        b = eps_g + frac * last * eps
        got = delta_opt_recursive(MechanismSequence(slots[last:], eps), b)
        assert oracles.grid_terminal_br(m, eps, b).max() <= got + 1e-12
        assert got == pytest.approx(
            oracles.mp_delta_mixed(m + 1, m, eps, b), abs=1e-12
        )

    def test_frozen(self):
        for slots, eps, eps_g, want in self.FROZEN:
            got = delta_opt_recursive(MechanismSequence(slots, eps), eps_g)
            assert got == pytest.approx(want, abs=1e-12), slots


class TestLongSequences:
    def test_eleven_dp_one_br(self):
        # lone BR first among 11 DP slots, against the mixed bound
        slots = ("br",) + ("dp",) * 11
        got = delta_opt_recursive(
            MechanismSequence(slots, 0.3), 1.5, GridSpec(501, 30)
        )
        want = delta_opt_mixed(CompositionQuery(k=12, m=11, eps=0.3, eps_g=1.5))
        assert got == pytest.approx(want, abs=1e-9)
