"""Noise calibration for private histogram release.

Maps a histogram sensitivity profile and a target (eps_g, delta) to the
noise scale of a concrete mechanism, and back.  Three calibration routes
are covered: per-coordinate Laplace composed under the optimal pure-DP
bound, Gaussian under zCDP, and Gaussian under its exact hockey-stick
curve.  Over k releases the curve route prices each release at its
smallest eps for delta/(2k) and composes the k pure parts under the
optimal pure-DP bound.  The comparison helpers produce the rows behind
the accuracy-versus-budget tables.

Noise scales are expressed in units of the per-count cap tau, so a
Gaussian entry means per-coordinate standard deviation tau * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import log_ndtr

from .nonadaptive import eps_inverse
from .numerics import (
    _ERR_UNIT,
    _predicted_bracket,
    check_delta,
    check_nonnegative,
    check_positive,
    log_recip,
    solve,
    std_normal_cdf,
)
from .setwise import _zcdp_eps

__all__ = [
    "HistogramSpec",
    "analytic_gaussian_delta",
    "analytic_gaussian_eps",
    "solve_sigma_analytic",
    "gaussian_zcdp_eps",
    "solve_sigma_zcdp",
    "laplace_eps_coord",
    "single_release_comparison",
    "kfold_comparison",
]

# relative bracket width at which the analytic-Gaussian solves stop
_TOL_REL = 1e-12
# both analytic-Gaussian solves double up from [0, 1], then halve
_SEARCH = dict(tol_rel=_TOL_REL, doublings=80)


@dataclass(frozen=True)
class HistogramSpec:
    """Sensitivity profile of one histogram release.

    d: number of distinct elements in the data domain.
    delta0: L0 sensitivity, the number of counts one user can change.
    tau: cap on one user's contribution to a single count (Linf).
    d_bar: public upper bound on d used when padding a release.
    """

    d: int
    delta0: int
    tau: float
    d_bar: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not (isinstance(self.delta0, int) and 1 <= self.delta0 <= self.d):
            raise ValueError(
                f"delta0 must be an integer in [1, d], got {self.delta0}"
            )
        check_positive("tau", self.tau)
        if not (isinstance(self.d_bar, int) and self.d_bar >= self.d):
            raise ValueError(f"d_bar must be an integer >= d, got {self.d_bar}")


def analytic_gaussian_delta(sigma: float, eps: float) -> float:
    """Exact hockey-stick divergence of N(0, sigma^2) from N(1, sigma^2).

    sigma is the noise scale in units of the L2 sensitivity.  Valid for
    any finite eps; the tilted tail goes through log-space so large eps
    cannot overflow.  At eps = 0 it is the total variation
    erf(1 / (2 sqrt(2) sigma)) (Balle & Wang, ICML 2018), which keeps its
    relative precision where Phi(a) - Phi(-a) cancels to 0.
    """
    check_positive("sigma", sigma)
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps == 0.0:
        return math.erf(0.5 / (sigma * math.sqrt(2.0)))
    a = 0.5 / sigma - eps * sigma
    b = -0.5 / sigma - eps * sigma
    tail = eps + float(log_ndtr(b))
    if tail >= 0.0:  # e^tail >= 1 >= Phi(a), and exp may overflow
        return 0.0
    delta = std_normal_cdf(a) - (math.exp(tail) if tail > -745.0 else 0.0)
    return min(1.0, max(0.0, delta))


def _curve_error(sigma: float, eps: float) -> float:
    """Bound, in units of _ERR_UNIT, on the rounding of a computed
    analytic_gaussian_delta(sigma, eps) = Phi(a) - e^tail with eps >= 0.

    Phi(a) comes from erfc, good to a few ulps of itself.  a and b carry
    rounding of size |b| = 1/(2 sigma) + eps sigma, which moves Phi(a) by
    up to phi(a) |b| and ln Phi(b) by up to |b|^2.  tail = eps + ln Phi(b)
    is a sum of terms of size eps and -ln Phi(b) <= b^2 + |b| + 1, so
    e^tail <= Phi(a) (the difference is a delta >= 0) is good to
    (eps + 2 b^2 + |b| + 1) of itself.
    """
    a = 0.5 / sigma - eps * sigma
    b = 0.5 / sigma + eps * sigma
    return (
        std_normal_cdf(a) * (3.0 + eps + 2.0 * b * b + b)
        + math.exp(-0.5 * a * a) * b
    )


def _predict_curve_root(
    delta: float, f: Callable[[float], float], curve_error: Callable[[float], float]
) -> Callable[[float, float], tuple[float, float]]:
    # a solve's predicted bracket on the Gaussian curve f(x) <= delta;
    # the solved-for x (eps or sigma) enters a and b with its own rounding
    return lambda lo, hi: _predicted_bracket(
        f, delta, lo, hi,
        err=lambda x, d: _ERR_UNIT * curve_error(x),
        x_err=lambda x: _ERR_UNIT * abs(x),
    )


def analytic_gaussian_eps(sigma: float, delta: float) -> float:
    """Smallest eps at which N(0, sigma^2) vs N(1, sigma^2) admits delta.

    Returned from the feasible end: analytic_gaussian_delta(sigma, eps)
    <= delta holds, and the bracket it closes is within
    1e-12 * max(1, eps) of the root.
    """
    check_delta("delta", delta)
    if analytic_gaussian_delta(sigma, 0.0) <= delta:
        return 0.0
    f = lambda e: analytic_gaussian_delta(sigma, e)
    predict = _predict_curve_root(delta, f, lambda e: _curve_error(sigma, e))
    return solve(
        lambda e: f(e) <= delta, 0.0, 1.0, tol_abs=_TOL_REL, predict=predict, **_SEARCH
    )


def solve_sigma_analytic(eps: float, delta: float) -> float:
    """Smallest sigma at which the Gaussian curve passes (eps, delta).

    Returned from the feasible end: analytic_gaussian_delta(sigma, eps)
    <= delta holds, and the bracket it closes is within 1e-12 * sigma
    of the root.

    Below the curve's rounding floor the returned sigma is set by
    rounding noise.  Where eps is small (below about 3e-5) and delta far
    below 1e-16, analytic_gaussian_delta near the root is a difference of
    two numbers near 1/2 whose rounding, some 1e-16, dwarfs delta: the
    computed curve is not monotone there, and which sigma the bisection
    settles on depends on the rounding at each midpoint it happens to
    visit, not on the exact curve.  The result still passes the computed
    test, but it can lie some 1e-8 * sigma from the exact root, on
    either side of it.
    """
    check_nonnegative("eps", eps)
    check_delta("delta", delta)
    f = lambda s: analytic_gaussian_delta(s, eps)
    predict = _predict_curve_root(delta, f, lambda s: _curve_error(s, eps))
    return solve(
        lambda s: f(s) <= delta, 0.0, 1.0, tol_abs=0.0, predict=predict, **_SEARCH
    )


def gaussian_zcdp_eps(sigma: float, delta0: int, delta: float) -> float:
    """(eps, delta) point on the zCDP conversion of the Gaussian release.

    sigma is the per-count noise scale in tau units; an L0 sensitivity of
    delta0 gives rho = delta0 / (2 sigma^2) and the usual conversion
    eps = rho + 2 sqrt(rho ln(1/delta)).
    """
    rho = _gaussian_rho(sigma, delta0)
    check_delta("delta", delta)
    return _zcdp_eps(rho, rho, delta)


def _gaussian_rho(sigma: float, delta0: int) -> float:
    """zCDP rho = delta0 / (2 sigma^2) of Gaussian noise at L0 sensitivity delta0.

    The one copy of the Gaussian price: ValueError unless sigma > 0,
    delta0 >= 1 and sigma^2 is a positive float.
    """
    check_positive("sigma", sigma)
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    if sigma * sigma == 0.0:
        raise ValueError(f"sigma^2 underflows to 0 at sigma = {sigma}")
    return delta0 / (2.0 * sigma * sigma)


def solve_sigma_zcdp(eps: float, delta0: int, delta: float) -> float:
    """Exact sigma of the zCDP route at a target (eps, delta).

    Inverts eps = a / sigma^2 + b / sigma with a = delta0/2 and
    b = sqrt(2 delta0 ln(1/delta)); the positive root of the quadratic.
    """
    check_positive("eps", eps)
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    check_delta("delta", delta)
    a = delta0 / 2.0
    b = math.sqrt(2.0 * delta0 * log_recip(delta))
    disc = b * b + 4.0 * a * eps
    if disc < math.inf:
        sigma = (b + math.sqrt(disc)) / (2.0 * eps)
    else:  # 4 a eps (and 2 eps) overflow: divide the root through by eps first
        sigma = (b / eps + math.sqrt((b / eps) ** 2 + 4.0 * a / eps)) / 2.0
    if sigma == math.inf:
        raise ValueError(f"sigma at eps = {eps} exceeds the float range")
    return sigma


def laplace_eps_coord(sigma: float) -> float:
    """Per-coordinate pure-DP level of Laplace noise matched to sigma.

    The Laplace scale is chosen with the same variance as Gaussian noise
    of standard deviation tau * sigma, i.e. scale tau * sigma / sqrt(2),
    which prices each touched count at eps = sqrt(2) / sigma.
    """
    check_positive("sigma", sigma)
    return math.sqrt(2.0) / sigma


def _noise_rows(k: int, spec: HistogramSpec, sigma: float, delta: float) -> list[dict]:
    # the laplace_pure and gaussian_zcdp rows of k releases, shared by
    # both comparisons
    check_delta("delta", delta)
    eps1 = laplace_eps_coord(sigma)
    return [
        {
            "method": "laplace_pure",
            "k": k,
            "count": k * spec.delta0,
            "eps_each": eps1,
            "eps_g": eps_inverse(delta, "dp", k * spec.delta0, eps1),
        },
        {
            "method": "gaussian_zcdp",
            "k": k,
            "count": k,
            "eps_each": math.nan,
            "eps_g": gaussian_zcdp_eps(sigma, k * spec.delta0, delta),
        },
    ]


def single_release_comparison(
    spec: HistogramSpec, sigma: float, delta: float
) -> list[dict]:
    """eps_g of one histogram release at equal per-count noise variance.

    Rows: Laplace composed over the delta0 touched coordinates, Gaussian
    via zCDP, and Gaussian via its exact curve.  eps_each is the
    per-composed-unit budget where one exists.
    """
    rows = _noise_rows(1, spec, sigma, delta)
    rows.append(
        {
            "method": "gaussian_analytic",
            "k": 1,
            "count": 1,
            "eps_each": math.nan,
            "eps_g": analytic_gaussian_eps(sigma / math.sqrt(spec.delta0), delta),
        }
    )
    return rows


def kfold_comparison(
    k: int, spec: HistogramSpec, sigma: float, delta: float
) -> list[dict]:
    """eps_g of k adaptive histogram releases at equal per-count noise.

    Laplace composes all k * delta0 touched coordinates under the
    optimal pure-DP bound at failure budget delta.  The zCDP route sums
    rho over releases.  The analytic route gives each release
    (eps_1, delta/(2k)) from its exact curve and composes the k pure
    parts optimally with slack delta/2.  It takes eps_1 = eps_min, the
    smallest eps the curve admits at delta/(2k): every larger eps_1
    carries the same per-release delta, and the composed pure-DP delta
    is nondecreasing in the per-slot eps, so no eps_1 above eps_min
    gives a smaller eps_g.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = _noise_rows(k, spec, sigma, delta)
    sigma_eff = sigma / math.sqrt(spec.delta0)
    eps_min = analytic_gaussian_eps(sigma_eff, delta / (2.0 * k))
    eps_g = 0.0 if eps_min == 0.0 else eps_inverse(delta / 2.0, "dp", k, eps_min)
    rows.append(
        {
            "method": "gaussian_analytic_dp",
            "k": k,
            "count": k,
            "eps_each": eps_min,
            "eps_g": eps_g,
        }
    )
    return rows
