"""Optimal delta for adaptively composed DP / bounded-range sequences.

Adaptive composition is evaluated by a budget recursion over sequence
suffixes: an empty suffix costs the total-variation floor [1 - e^b]_+, a
pure-DP slot splits the budget b into b -+ eps with the worst-case
two-point weights, and a bounded-range slot takes a supremum over its
tilt t in [0, eps], splitting b into b - t and b + eps - t.

Every BR supremum is searched over exact stationary candidates:
budget-dependent fractions and the stationary family of the non-adaptive
mixed bound for the remaining slots.  The last BR slot of the sequence
(the terminal slot) has only DP slots after it, so its suffix is one BR
slot composed with DP slots.  The mixed bound attains its maximum at
those candidates, and the terminal slot is evaluated at them alone,
exactly.  Every earlier BR slot joins the candidates with a uniform tilt
grid and polishes the incumbent by golden-section refinement; there the
grid only backstops the verified worst-case tilts in the candidate set.

Cost grows like grid^(number of BR slots - 1), the terminal slot adding
only its candidates; sequences are capped at 12 slots and the intended
regime is at most two or three BR slots (or arbitrarily many DP slots,
which are cheap and memoized).

The recursion is the one evaluator of adaptive BR slots.  The closed
forms for one DP slot and two BR slots (xyz_closed_forms) are written
out on 0 <= eps_g <= eps; above eps the three orderings coincide and
their two-BR tail is priced by the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nonadaptive import grr_params
from .numerics import check_nonnegative, check_positive, golden_max

__all__ = [
    "MechanismSequence",
    "GridSpec",
    "ThreeSlotDeltas",
    "delta_opt_recursive",
    "x_curve",
    "y_curve",
    "z_curve",
    "xyz_closed_forms",
    "ordering_gap_curve",
]

_SLOTS = ("dp", "br")
_MAX_SLOTS = 12
_CHUNK = 1 << 21  # elements per vectorized BR chunk


def _tilt_q(eps: float, ts: np.ndarray) -> np.ndarray:
    # grr_params's q elementwise over an array of tilts; kept out of __all__
    # so traced runs count only scalar grr_params calls
    return np.expm1(ts - eps) / math.expm1(-eps)


@dataclass(frozen=True)
class MechanismSequence:
    """An ordered tuple of 'dp' / 'br' slots at a common per-slot eps."""

    slots: tuple[str, ...]
    eps: float

    def __post_init__(self) -> None:
        if not 1 <= len(self.slots) <= _MAX_SLOTS:
            raise ValueError(
                f"sequence length must be 1..{_MAX_SLOTS}, got {len(self.slots)}"
            )
        bad = [s for s in self.slots if s not in _SLOTS]
        if bad:
            raise ValueError(f"unknown slot kinds {bad}; use 'dp' or 'br'")
        check_positive("eps", self.eps)


@dataclass(frozen=True)
class GridSpec:
    """Tilt-grid resolution and golden-section polish for BR suprema.

    Applies only to BR slots with a later BR slot; the last BR slot of a
    sequence is evaluated exactly at its stationary candidates.
    """

    points_per_level: int = 1001
    refine_rounds: int = 40

    def __post_init__(self) -> None:
        if self.points_per_level < 2:
            raise ValueError("points_per_level must be at least 2")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")


class _RecursiveEvaluator:
    def __init__(self, seq: MechanismSequence, grid: GridSpec) -> None:
        self.slots = seq.slots
        self.eps = seq.eps
        self.n = len(seq.slots)
        self.grid = grid
        self.t_grid = np.linspace(0.0, seq.eps, grid.points_per_level)
        self.h = seq.eps / (grid.points_per_level - 1)
        self.qb = 1.0 / (1.0 + math.exp(-seq.eps))
        self.memo: dict[tuple[int, float], float] = {}
        # the last BR slot has only DP slots after it: exact at its candidates
        self.terminal = max(
            (i for i, s in enumerate(seq.slots) if s == "br"), default=-1
        )
        # columns of _cand_matrix at each slot: 7 fixed tilts, then k + mdp + 1
        self.n_cand = [8 + self.n - i + seq.slots[i:].count("dp") for i in range(self.n)]

    def _cand_matrix(self, idx: int, budgets: np.ndarray) -> np.ndarray:
        """Stationary-candidate tilts per budget, clipped into [0, eps]."""
        eps = self.eps
        rem = self.slots[idx:]
        k, mdp = len(rem), rem.count("dp")
        b = budgets
        cols = [
            b,
            b / 2.0,
            (b + eps) / 2.0,
            (b - eps) / 2.0,
            np.full_like(b, eps / 2.0),
            (eps + b) / 3.0,
            (2.0 * eps + b) / 3.0,
        ]
        denom = k - mdp + 1
        for ell in range(self.n_cand[idx] - len(cols)):
            cols.append((b + eps * (ell + 1 - mdp)) / denom)
        mat = np.stack(cols, axis=1)
        np.clip(mat, 0.0, eps, out=mat)
        return mat

    def _base_vec(self, budgets: np.ndarray) -> np.ndarray:
        out = np.zeros_like(budgets)
        neg = budgets < 0.0
        out[neg] = -np.expm1(budgets[neg])
        return out

    def _tilt_values(
        self, idx: int, budgets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tilts tried at BR slot idx and their values, one row per budget.

        The terminal slot tries its stationary candidates only; earlier
        BR slots prepend the uniform tilt grid.
        """
        tilts = self._cand_matrix(idx, budgets)
        if idx != self.terminal:
            grid = np.broadcast_to(self.t_grid, (budgets.size, self.t_grid.size))
            tilts = np.concatenate([grid, tilts], axis=1)
        q = _tilt_q(self.eps, tilts)
        b = budgets[:, None]
        f_lo = self.eval_vec(idx + 1, (b - tilts).ravel()).reshape(tilts.shape)
        f_hi = self.eval_vec(idx + 1, (b + self.eps - tilts).ravel()).reshape(tilts.shape)
        return tilts, q * f_lo + (1.0 - q) * f_hi

    def eval_vec(self, idx: int, budgets: np.ndarray) -> np.ndarray:
        if idx == self.n:
            return self._base_vec(budgets)
        slot = self.slots[idx]
        if slot == "dp":
            lo = self.eval_vec(idx + 1, budgets - self.eps)
            hi = self.eval_vec(idx + 1, budgets + self.eps)
            return self.qb * lo + (1.0 - self.qb) * hi
        out = np.empty_like(budgets)
        g = 0 if idx == self.terminal else self.t_grid.size
        block = max(1, _CHUNK // (g + self.n_cand[idx]))
        for s in range(0, budgets.size, block):
            b = budgets[s : s + block]
            out[s : s + b.size] = self._tilt_values(idx, b)[1].max(axis=1)
        return out

    def eval_scalar(self, idx: int, b: float) -> float:
        key = (idx, b)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if idx == self.n:
            val = -math.expm1(b) if b < 0.0 else 0.0
        elif self.slots[idx] == "dp":
            val = self.qb * self.eval_scalar(idx + 1, b - self.eps) + (
                1.0 - self.qb
            ) * self.eval_scalar(idx + 1, b + self.eps)
        else:
            tilts, vals = self._tilt_values(idx, np.array([b]))
            j = int(np.argmax(vals[0]))
            val = float(vals[0, j])
            if idx != self.terminal and self.grid.refine_rounds > 0:
                lo = max(0.0, float(tilts[0, j]) - self.h)
                hi = min(self.eps, float(tilts[0, j]) + self.h)
                if hi > lo:

                    def phi(t: float) -> float:
                        qt = grr_params(self.eps, t).q
                        return qt * self.eval_scalar(idx + 1, b - t) + (
                            1.0 - qt
                        ) * self.eval_scalar(idx + 1, b + self.eps - t)

                    val = max(val, golden_max(phi, lo, hi, self.grid.refine_rounds))
        self.memo[key] = val
        return val


def delta_opt_recursive(
    seq: MechanismSequence, eps_g: float, grid: GridSpec | None = None
) -> float:
    """Optimal delta of the adaptively composed sequence at budget eps_g.

    Exact for sequences with at most one BR slot.  With more, it still
    lower-bounds the true supremum by construction (every tilt evaluated
    is feasible); the candidate set makes it exact at the verified
    worst-case tilts.
    """
    if math.isnan(eps_g):
        raise ValueError("eps_g must not be NaN")
    ev = _RecursiveEvaluator(seq, grid or GridSpec())
    return ev.eval_scalar(0, eps_g)


# ---------------------------------------------------------------------------
# Closed forms for one DP slot adaptively composed with two BR slots.
# All three curves live on 0 <= eps_g <= eps; the DP slot's position is
# what distinguishes the orderings.
# ---------------------------------------------------------------------------


def _q(eps: float, t: float) -> float:
    return grr_params(eps, t).q


def x_curve(eps: float, eps_g: float, t: float) -> float:
    """DP branch fully split: both residual budgets still in BR range."""
    qb = 1.0 / (1.0 + math.exp(-eps))
    c = -math.expm1(-eps)
    return qb * (
        _q(eps, t) * _q(eps, (eps_g - t) / 2.0) ** 2 * c
        + (1.0 - _q(eps, t)) * _q(eps, (eps_g + eps - t) / 2.0) ** 2 * c
    )


def y_curve(eps: float, eps_g: float, t: float) -> float:
    """Low branch saturated at the TV floor, high branch still split."""
    qb = 1.0 / (1.0 + math.exp(-eps))
    c = -math.expm1(-eps)
    return qb * (
        _q(eps, t) * -math.expm1(eps_g - eps - t)
        + (1.0 - _q(eps, t)) * _q(eps, (eps_g + eps - t) / 2.0) ** 2 * c
    )


def z_curve(eps: float, eps_g: float, t: float) -> float:
    """Contribution of the DP branch that overshoots the budget."""
    qb = 1.0 / (1.0 + math.exp(-eps))
    c = -math.expm1(-eps)
    return (1.0 - qb) * _q(eps, t) * _q(eps, eps + (eps_g - t) / 2.0) ** 2 * c


@dataclass(frozen=True)
class ThreeSlotDeltas:
    """Optimal deltas of the three orderings of {DP, BR, BR} at (eps, eps_g).

    The branch curves the optima are assembled from are the module
    functions x_curve, y_curve and z_curve.
    """

    eps: float
    eps_g: float
    dp_br_br: float
    br_dp_br: float
    br_br_dp: float


def xyz_closed_forms(eps: float, eps_g: float) -> ThreeSlotDeltas:
    """Worst-case deltas of one DP and two BR slots, every ordering.

    On 0 <= eps_g <= eps the two branch families meet at eps_g = eps/2,
    where both are evaluated and the max taken.  Above eps the orderings
    coincide and reduce to the DP slot splitting into a two-BR tail, which
    delta_opt_recursive prices at its default grid.
    """
    check_positive("eps", eps)
    check_nonnegative("eps_g", eps_g)
    if eps_g > eps:
        qb = 1.0 / (1.0 + math.exp(-eps))
        tail = MechanismSequence(("br", "br"), eps)
        common = qb * delta_opt_recursive(tail, eps_g - eps)
        return ThreeSlotDeltas(eps, eps_g, common, common, common)

    def high_branch() -> tuple[float, float]:
        dp_first = x_curve(eps, eps_g, eps / 2.0) + z_curve(
            eps, eps_g, (2.0 * eps + eps_g) / 3.0
        )
        br_first = max(
            x_curve(eps, eps_g, eps / 2.0),
            y_curve(eps, eps_g, eps_g) + z_curve(eps, eps_g, eps_g),
        )
        return dp_first, br_first

    def low_branch() -> tuple[float, float]:
        dp_first = y_curve(eps, eps_g, (eps + eps_g) / 3.0) + z_curve(
            eps, eps_g, (2.0 * eps + eps_g) / 3.0
        )
        br_first = max(
            x_curve(eps, eps_g, eps_g),
            y_curve(eps, eps_g, eps / 2.0) + z_curve(eps, eps_g, eps / 2.0),
        )
        return dp_first, br_first

    if eps_g > eps / 2.0:
        dp_first, br_first = high_branch()
    elif eps_g < eps / 2.0:
        dp_first, br_first = low_branch()
    else:
        hi, lo = high_branch(), low_branch()
        dp_first = max(hi[0], lo[0])
        br_first = max(hi[1], lo[1])
    return ThreeSlotDeltas(eps, eps_g, dp_first, br_first, br_first)


def ordering_gap_curve(
    eps: float, eps_g_values: Sequence[float]
) -> list[dict[str, float]]:
    """Rows of (eps_g, both orderings, absolute gap, ratio) for plotting."""
    rows = []
    for eg in eps_g_values:
        forms = xyz_closed_forms(eps, float(eg))
        dp_first, br_first = forms.dp_br_br, forms.br_dp_br
        rows.append(
            {
                "eps_g": float(eg),
                "delta_dp_br_br": dp_first,
                "delta_br_dp_br": br_first,
                "abs_gap": dp_first - br_first,
                # equal orderings, including both 0 at eps_g >= 3 eps
                "ratio": 1.0 if dp_first == br_first else dp_first / br_first,
            }
        )
    return rows
