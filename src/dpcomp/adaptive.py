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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .nonadaptive import _tilt_q, grr_params
from .numerics import golden_max

__all__ = [
    "MechanismSequence",
    "GridSpec",
    "ThreeSlotDeltas",
    "delta_opt_recursive",
    "single_br_delta",
    "two_br_delta",
    "x_curve",
    "y_curve",
    "z_curve",
    "xyz_closed_forms",
    "ordering_gap_curve",
]

_SLOTS = ("dp", "br")
_MAX_SLOTS = 12
_CHUNK = 1 << 21  # elements per vectorized BR chunk


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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")


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
        for ell in range(k + mdp + 1):
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
        c = 7 + len(self.slots[idx:]) + self.slots[idx:].count("dp") + 1
        block = max(1, _CHUNK // (g + c))
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


def single_br_delta(eps: float, budget: float) -> float:
    """Optimal delta of one adaptive BR slot at the given budget.

    Supremum of the one-slot identity over t: zero above eps, the TV
    floor below -eps, and q^2 at the midpoint tilt in between.
    """
    if budget >= eps:
        return 0.0
    if budget <= -eps:
        return -math.expm1(budget)
    q = grr_params(eps, (budget + eps) / 2.0).q
    return q * q * -math.expm1(-eps)


def two_br_delta(
    eps: float, budget: float, grid_points: int = 4001, refine_rounds: int = 60
) -> float:
    """Optimal delta of two adaptive BR slots at the given budget.

    One-dimensional supremum over the first tilt with the single-slot
    closed form inside; kink locations of the inner pieces are added to
    the grid as exact candidates.
    """
    if budget >= 2.0 * eps:
        return 0.0
    if budget <= -2.0 * eps:
        return -math.expm1(budget)
    w = budget
    kinks = [w - eps, w, w + eps, w + 2.0 * eps]
    guesses = [w / 2.0, (w + eps) / 2.0, (w + eps) / 3.0, (w + 2.0 * eps) / 3.0]
    ts = np.concatenate(
        [
            np.linspace(0.0, eps, grid_points),
            np.clip(np.array(kinks + guesses), 0.0, eps),
        ]
    )

    def val(t: float) -> float:
        q = grr_params(eps, t).q
        return q * single_br_delta(eps, w - t) + (1.0 - q) * single_br_delta(
            eps, w + eps - t
        )

    vals = [val(float(t)) for t in ts]
    j = int(np.argmax(vals))
    best = vals[j]
    h = eps / (grid_points - 1)
    lo, hi = max(0.0, float(ts[j]) - h), min(eps, float(ts[j]) + h)
    if refine_rounds > 0 and hi > lo:
        best = max(best, golden_max(val, lo, hi, refine_rounds))
    return best


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
    """Optimal deltas of the three orderings of {DP, BR, BR}.

    Carries the branch curves as single-argument callables of the tilt,
    already bound to (eps, eps_g), so callers can inspect the pieces the
    optima were assembled from.
    """

    eps: float
    eps_g: float
    dp_br_br: float
    br_dp_br: float
    br_br_dp: float
    x: Callable[[float], float] = field(repr=False, compare=False)
    y: Callable[[float], float] = field(repr=False, compare=False)
    z: Callable[[float], float] = field(repr=False, compare=False)


def xyz_closed_forms(eps: float, eps_g: float) -> ThreeSlotDeltas:
    """Worst-case deltas of one DP and two BR slots, every ordering.

    On 0 <= eps_g <= eps the two branch families meet at eps_g = eps/2,
    where both are evaluated and the max taken.  Above eps the orderings
    coincide and reduce to the DP slot splitting into a two-BR tail.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not (math.isfinite(eps_g) and eps_g >= 0):
        raise ValueError(f"eps_g must be nonnegative and finite, got {eps_g}")
    def bound_x(t: float) -> float:
        return x_curve(eps, eps_g, t)

    def bound_y(t: float) -> float:
        return y_curve(eps, eps_g, t)

    def bound_z(t: float) -> float:
        return z_curve(eps, eps_g, t)

    if eps_g > eps:
        qb = 1.0 / (1.0 + math.exp(-eps))
        common = qb * two_br_delta(eps, eps_g - eps)
        return ThreeSlotDeltas(
            eps, eps_g, common, common, common, x=bound_x, y=bound_y, z=bound_z
        )

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
    return ThreeSlotDeltas(
        eps, eps_g, dp_first, br_first, br_first, x=bound_x, y=bound_y, z=bound_z
    )


def ordering_gap_curve(
    eps: float, eps_g_values: Sequence[float]
) -> list[dict[str, float]]:
    """Rows of (eps_g, both orderings, absolute gap, ratio) for plotting."""
    rows = []
    for eg in eps_g_values:
        forms = xyz_closed_forms(eps, float(eg))
        rows.append(
            {
                "eps_g": float(eg),
                "delta_dp_br_br": forms.dp_br_br,
                "delta_br_dp_br": forms.br_dp_br,
                "abs_gap": forms.dp_br_br - forms.br_dp_br,
                "ratio": forms.dp_br_br / forms.br_dp_br,
            }
        )
    return rows
