"""Noise calibration for private histogram release.

Maps a histogram sensitivity profile and a target (eps_g, delta) to the
noise scale of a concrete mechanism, and back.  Three calibration routes
are covered: per-coordinate Laplace composed under the optimal pure-DP
bound, Gaussian under zCDP, and Gaussian under its exact hockey-stick
curve composed as generic approximate DP.  The comparison helpers
produce the rows behind the accuracy-versus-budget tables.

Noise scales are expressed in units of the per-count cap tau, so a
Gaussian entry means per-coordinate standard deviation tau * sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import log_ndtr

from .nonadaptive import eps_inverse
from .numerics import Bracket, expand, halve, std_normal_cdf

__all__ = [
    "HistogramSpec",
    "analytic_gaussian_delta",
    "analytic_gaussian_eps",
    "solve_sigma_analytic",
    "gaussian_zcdp_eps",
    "solve_sigma_zcdp",
    "laplace_eps_coord",
    "laplace_histogram_delta",
    "single_release_comparison",
    "kfold_comparison",
]

_MAX_DOUBLINGS = 80
_MAX_BISECTIONS = 200


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
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (isinstance(self.d_bar, int) and self.d_bar >= self.d):
            raise ValueError(f"d_bar must be an integer >= d, got {self.d_bar}")

    @property
    def l1_sensitivity(self) -> float:
        return self.tau * self.delta0

    @property
    def l2_sensitivity(self) -> float:
        return self.tau * math.sqrt(self.delta0)


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0,1), got {delta}")


def analytic_gaussian_delta(sigma: float, eps: float) -> float:
    """Exact hockey-stick divergence of N(0, sigma^2) from N(1, sigma^2).

    sigma is the noise scale in units of the L2 sensitivity.  Valid for
    any finite eps; the tilted tail goes through log-space so large eps
    cannot overflow.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    a = 0.5 / sigma - eps * sigma
    b = -0.5 / sigma - eps * sigma
    tail = eps + float(log_ndtr(b))
    delta = std_normal_cdf(a) - (math.exp(tail) if tail > -745.0 else 0.0)
    return min(1.0, max(0.0, delta))


def analytic_gaussian_eps(
    sigma: float,
    delta: float,
    tol_rel: float = 1e-12,
    max_bisections: int = _MAX_BISECTIONS,
) -> float:
    """Smallest eps at which N(0, sigma^2) vs N(1, sigma^2) admits delta.

    Returned from the feasible end: analytic_gaussian_delta(sigma, eps)
    <= delta holds, and the bracket it closes is within
    tol_rel * max(1, eps) of the root.
    """
    _check_delta(delta)
    if max_bisections < 1:
        raise ValueError(f"max_bisections must be >= 1, got {max_bisections}")
    if analytic_gaussian_delta(sigma, 0.0) <= delta:
        return 0.0
    ok = lambda e: analytic_gaussian_delta(sigma, e) <= delta
    lo, hi = expand(ok, 0.0, 1.0, _MAX_DOUBLINGS)
    bracket = Bracket(lo, hi, tol_abs=tol_rel, max_iter=max_bisections, tol_rel=tol_rel)
    return halve(ok, bracket)


def solve_sigma_analytic(
    eps: float,
    delta: float,
    tol_rel: float = 1e-12,
    max_bisections: int = _MAX_BISECTIONS,
) -> float:
    """Smallest sigma at which the Gaussian curve passes (eps, delta).

    Returned from the feasible end: analytic_gaussian_delta(sigma, eps)
    <= delta holds, and the bracket it closes is within tol_rel * sigma
    of the root.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    _check_delta(delta)
    if max_bisections < 1:
        raise ValueError(f"max_bisections must be >= 1, got {max_bisections}")
    ok = lambda s: analytic_gaussian_delta(s, eps) <= delta
    lo, hi = expand(ok, 0.0, 1.0, _MAX_DOUBLINGS)
    bracket = Bracket(lo, hi, tol_abs=0.0, max_iter=max_bisections, tol_rel=tol_rel)
    return halve(ok, bracket)


def gaussian_zcdp_eps(sigma: float, delta0: int, delta: float) -> float:
    """(eps, delta) point on the zCDP conversion of the Gaussian release.

    sigma is the per-count noise scale in tau units; an L0 sensitivity of
    delta0 gives rho = delta0 / (2 sigma^2) and the usual conversion
    eps = rho + 2 sqrt(rho ln(1/delta)).
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    _check_delta(delta)
    rho = delta0 / (2.0 * sigma * sigma)
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def solve_sigma_zcdp(eps: float, delta0: int, delta: float) -> float:
    """Exact sigma of the zCDP route at a target (eps, delta).

    Inverts eps = a / sigma^2 + b / sigma with a = delta0/2 and
    b = sqrt(2 delta0 ln(1/delta)); the positive root of the quadratic.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    _check_delta(delta)
    a = delta0 / 2.0
    b = math.sqrt(2.0 * delta0 * math.log(1.0 / delta))
    return (b + math.sqrt(b * b + 4.0 * a * eps)) / (2.0 * eps)


def laplace_eps_coord(sigma: float) -> float:
    """Per-coordinate pure-DP level of Laplace noise matched to sigma.

    The Laplace scale is chosen with the same variance as Gaussian noise
    of standard deviation tau * sigma, i.e. scale tau * sigma / sqrt(2),
    which prices each touched count at eps = sqrt(2) / sigma.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return math.sqrt(2.0) / sigma


def laplace_histogram_delta(eps_coord: float, spec: HistogramSpec, eps_g: float) -> float:
    """delta of one Laplace histogram release at global budget eps_g.

    One user touches delta0 counts, each a pure eps_coord-DP coordinate,
    composed under the optimal pure-DP bound.
    """
    from .nonadaptive import delta_opt_dp

    return delta_opt_dp(spec.delta0, eps_coord, eps_g)


def single_release_comparison(
    spec: HistogramSpec, sigma: float, delta: float
) -> list[dict]:
    """eps_g of one histogram release at equal per-count noise variance.

    Rows: Laplace composed over the delta0 touched coordinates, Gaussian
    via zCDP, and Gaussian via its exact curve.  eps_each is the
    per-composed-unit budget where one exists.
    """
    _check_delta(delta)
    eps1 = laplace_eps_coord(sigma)
    rows = [
        {
            "method": "laplace_pure",
            "k": 1,
            "count": spec.delta0,
            "eps_each": eps1,
            "eps_g": eps_inverse(delta, "dp", spec.delta0, eps1),
        },
        {
            "method": "gaussian_zcdp",
            "k": 1,
            "count": 1,
            "eps_each": math.nan,
            "eps_g": gaussian_zcdp_eps(sigma, spec.delta0, delta),
        },
        {
            "method": "gaussian_analytic",
            "k": 1,
            "count": 1,
            "eps_each": math.nan,
            "eps_g": analytic_gaussian_eps(sigma / math.sqrt(spec.delta0), delta),
        },
    ]
    return rows


def kfold_comparison(
    k: int,
    spec: HistogramSpec,
    sigma: float,
    delta: float,
    grid_points: int = 50,
) -> list[dict]:
    """eps_g of k adaptive histogram releases at equal per-count noise.

    Laplace composes all k * delta0 touched coordinates under the
    optimal pure-DP bound at failure budget delta.  The zCDP route sums
    rho over releases.  The analytic route gives each release
    (eps_1, delta/(2k)) from its exact curve, composes the k pure parts
    optimally with slack delta/2, and searches eps_1 over a log grid
    [eps_min, 100 eps_min] since weakening the per-release point can
    strengthen the composition.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    _check_delta(delta)
    eps1 = laplace_eps_coord(sigma)
    rows = [
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
    sigma_eff = sigma / math.sqrt(spec.delta0)
    eps_min = analytic_gaussian_eps(sigma_eff, delta / (2.0 * k))
    if eps_min == 0.0:
        best_eps_g, best_eps1 = 0.0, 0.0
    else:
        best_eps_g, best_eps1 = math.inf, math.nan
        for i in range(grid_points):
            e1 = eps_min * 100.0 ** (i / (grid_points - 1.0))
            eg = eps_inverse(delta / 2.0, "dp", k, e1)
            if eg < best_eps_g:
                best_eps_g, best_eps1 = eg, e1
    rows.append(
        {
            "method": "gaussian_analytic_dp",
            "k": k,
            "count": k,
            "eps_each": best_eps1,
            "eps_g": best_eps_g,
        }
    )
    return rows
