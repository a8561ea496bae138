"""Independent reference implementations used only by the test suite.

Everything here is computed by a different route than the package code:
exact big-integer combinatorics, 50-digit mpmath arithmetic evaluated
directly in linear space (no log-sum-exp), literal enumeration over
outcome bit-strings, quadrature, off-the-shelf constrained solvers, and
linear scans in place of indexes.  The float sums for the nonadaptive
bounds are the package's former separate routes, kept as the reference
its single evaluator must reproduce.  The module also holds the checks
that compose package functions into a second route: a brute-force
supremum over mixed two-point products and the position-invariance
check for one BR slot among DP slots.  Frozen constants in the tests
cite the producing function by name.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from dpcomp.adaptive import GridSpec, MechanismSequence, delta_opt_recursive
from dpcomp.audit import _MAX_EXACT_SLOTS
from dpcomp.nonadaptive import (
    CompositionQuery,
    _tilt_q,
    delta_opt_mixed,
    dp_slot_log_probs,
    grr_log_probs,
    grr_params,
    mixed_candidate_ts,
)
from dpcomp.numerics import golden_max, log1mexp, log1pexp, log_binomial, logsumexp
from dpcomp.setwise import (
    AccountantStateError,
    BoundedRange,
    Cdp,
    ConsumeMismatchError,
    PureDP,
    _canonical_key,
)

DPS = 50


def mp_log_binomial(n: int, i: int) -> float:
    """ln C(n, i) from the exact integer via math.comb."""
    with mp.workdps(DPS):
        return float(mp.log(mp.mpf(math.comb(n, i))))


def mp_log1mexp(x: float) -> float:
    """ln(1 - e^x) evaluated directly at 50 digits."""
    with mp.workdps(DPS):
        return float(mp.log(1 - mp.e ** mp.mpf(x)))


def quad_normal_cdf(z: float) -> float:
    """Standard normal CDF by quadrature of the density (no erf/erfc)."""
    with mp.workdps(30):
        val = mp.quad(mp.npdf, [-mp.inf, mp.mpf(z)])
        return float(val)


def qp_project_monotone_nonneg(v: Sequence[float]) -> np.ndarray:
    """Projection onto {x_1 >= ... >= x_n >= 0} via exact active-set NNLS.

    Reparameterize x_i = sum_{j >= i} d_j with d >= 0: the cone becomes
    the nonnegative orthant and the projection a nonnegative least-squares
    problem, solved exactly by Lawson-Hanson.
    """
    from scipy.optimize import nnls

    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.triu(np.ones((n, n)))
    d, _ = nnls(u, v)
    return u @ d


# ---------------------------------------------------------------------------
# Two-point response probabilities and hockey-stick sums, all in mpf linear
# space.  q is the chance of outcome 0 on the first input, p on the adjacent
# one; q/p = e^t and (1-p)/(1-q) = e^(eps-t).
# ---------------------------------------------------------------------------


def mp_q(eps, t):
    eps, t = mp.mpf(eps), mp.mpf(t)
    return (1 - mp.e ** (t - eps)) / (1 - mp.e ** (-eps))


def mp_p(eps, t):
    eps, t = mp.mpf(eps), mp.mpf(t)
    return (mp.e ** (-t) - mp.e ** (-eps)) / (1 - mp.e ** (-eps))


def mp_qbar(eps):
    # pure-DP slot: q of the (2eps, eps) two-point pair, e^eps/(1+e^eps)
    eps = mp.mpf(eps)
    return mp.e**eps / (1 + mp.e**eps)


def product_delta(qp_pairs: Sequence[tuple], eps_g) -> float:
    """Literal hockey-stick sum over all outcome bit-strings.

    qp_pairs[i] = (q_i, p_i); outcome bit 0 has probability q (resp. p).
    """
    with mp.workdps(DPS):
        eg = mp.e ** mp.mpf(eps_g)
        pairs = [(mp.mpf(q), mp.mpf(p)) for q, p in qp_pairs]
        total = mp.mpf(0)
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            pr_p = mp.mpf(1)
            pr_q = mp.mpf(1)
            for b, (q, p) in zip(bits, pairs):
                pr_p *= q if b == 0 else 1 - q
                pr_q *= p if b == 0 else 1 - p
            diff = pr_p - eg * pr_q
            if diff > 0:
                total += diff
        return float(total)


def mp_delta_dp(k: int, eps, eps_g) -> float:
    """Homogeneous pure-DP optimal delta, direct mpf binomial sum."""
    with mp.workdps(DPS):
        eps, eps_g = mp.mpf(eps), mp.mpf(eps_g)
        norm = (1 + mp.e**eps) ** (-k)
        start = max(0, int(mp.ceil((eps_g + k * eps) / (2 * eps))))
        total = mp.mpf(0)
        for l in range(start, k + 1):
            term = mp.binomial(k, l) * (
                mp.e ** (l * eps) - mp.e ** (eps_g + (k - l) * eps)
            )
            if term > 0:
                total += term
        return float(norm * total)


def float_delta_dp(k: int, eps: float, eps_g: float) -> float:
    """Pure-DP optimal delta as its own float log-space sum.

    This and the two sums below are the separately written routes the
    package's single mixed-bound evaluator replaced; its m = k and m = 0
    views must reproduce the first two bit for bit.  Every term is kept or
    dropped on the sign of its float exponent alone: a start index of
    ceil((eps_g + k eps) / (2 eps)) can, after rounding, skip a term whose
    exponent is negative.
    """
    log_norm = k * log1pexp(eps)
    terms = []
    for ell in range(k + 1):
        expo = eps_g + (k - 2 * ell) * eps
        if expo >= 0.0:
            continue
        terms.append(log_binomial(k, ell) + ell * eps - log_norm + log1mexp(expo))
    return math.exp(logsumexp(terms))


def _float_delta_br_at_t(k: int, eps: float, eps_g: float, t: float) -> float:
    log_q, log_1mq, log_p, log_1mp = grr_log_probs(eps, t)
    terms = []
    for i in range(k + 1):
        expo = eps_g - (k * t - i * eps)
        if expo >= 0.0:
            continue
        n_p, n_1mp = k - i, i
        if (n_p > 0 and log_p == -math.inf) or (n_1mp > 0 and log_1mp == -math.inf):
            continue
        log_coeff = log_binomial(k, i)
        if n_p > 0:
            log_coeff += n_p * log_p
        if n_1mp > 0:
            log_coeff += n_1mp * log_1mp
        terms.append(log_coeff + (k * t - i * eps) + log1mexp(expo))
    return math.exp(logsumexp(terms))


def float_delta_br(k: int, eps: float, eps_g: float) -> float:
    """BR optimal delta: the float sum's max over the k+1 rounded tilts."""
    cands = {
        min(max((eps_g + (ell + 1) * eps) / (k + 1), 0.0), eps) for ell in range(k + 1)
    }
    return max(_float_delta_br_at_t(k, eps, eps_g, t) for t in sorted(cands))


def _float_delta_mixed_at_t(k: int, m: int, eps: float, eps_g: float, t: float) -> float:
    kb = k - m
    log_qb, log_1mqb = dp_slot_log_probs(eps)
    if kb > 0:
        log_q, log_1mq, _, _ = grr_log_probs(eps, t)
    else:
        log_q, log_1mq = 0.0, -math.inf
    terms = []
    for i in range(kb + 1):
        if i > 0 and log_1mq == -math.inf:
            break
        if kb - i > 0 and log_q == -math.inf:
            continue
        log_br = log_binomial(kb, i)
        if kb - i > 0:
            log_br += (kb - i) * log_q
        if i > 0:
            log_br += i * log_1mq
        for j in range(m + 1):
            expo = eps_g - eps * (m - 2 * j - i) - t * kb
            if expo >= 0.0:
                continue
            log_dp = log_binomial(m, j) + (m - j) * log_qb + j * log_1mqb
            terms.append(log_br + log_dp + log1mexp(expo))
    return math.exp(logsumexp(terms))


def float_delta_mixed(k: int, m: int, eps: float, eps_g: float) -> float:
    """Mixed optimal delta as a float double sum in the q-form."""
    return max(
        _float_delta_mixed_at_t(k, m, eps, eps_g, t)
        for t in mixed_candidate_ts(k, m, eps, eps_g)
    )


def _mp_delta_br_at_t(k: int, eps, eps_g, t):
    p = mp_p(eps, t)
    total = mp.mpf(0)
    for i in range(k + 1):
        amp = mp.e ** (k * t - i * eps) - mp.e ** mp.mpf(eps_g)
        if amp > 0:
            total += mp.binomial(k, i) * p ** (k - i) * (1 - p) ** i * amp
    return total


def mp_delta_br(k: int, eps, eps_g) -> float:
    """Homogeneous BR optimal delta: max over the k+1 rounded candidates."""
    with mp.workdps(DPS):
        eps, eps_g = mp.mpf(eps), mp.mpf(eps_g)
        best = mp.mpf(0)
        for l in range(k + 1):
            t = (eps_g + (l + 1) * eps) / (k + 1)
            t = min(max(t, mp.mpf(0)), eps)
            best = max(best, _mp_delta_br_at_t(k, eps, eps_g, t))
        return float(best)


def mp_delta_mixed(k: int, m: int, eps, eps_g) -> float:
    """Mixed composition (m DP slots, k-m BR slots), direct mpf double sum."""
    with mp.workdps(DPS):
        eps, eps_g = mp.mpf(eps), mp.mpf(eps_g)
        kb = k - m
        qb = mp_qbar(eps)
        cands = set()
        if kb == 0:
            cands.add(mp.mpf(0))
        else:
            for l in range(k + m + 1):
                t = (eps_g + eps * (l + 1 - m)) / (kb + 1)
                t = min(max(t, mp.mpf(0)), eps)
                cands.add(t)
        best = mp.mpf(0)
        for t in cands:
            q = mp_q(eps, t)
            total = mp.mpf(0)
            for i in range(kb + 1):
                for j in range(m + 1):
                    amp = 1 - mp.e ** (eps_g - eps * (m - 2 * j - i) - t * kb)
                    if amp > 0:
                        total += (
                            mp.binomial(kb, i)
                            * mp.binomial(m, j)
                            * qb ** (m - j)
                            * (1 - qb) ** j
                            * q ** (kb - i)
                            * (1 - q) ** i
                            * amp
                        )
            best = max(best, total)
        return float(best)


def mixed_brute_force_sup(
    k: int, m: int, eps: float, eps_g: float, grid_points: int = 200
) -> float:
    """Worst-case delta of m pure-DP and k-m range-bounded slots, by search.

    Every DP slot is the two-point pair with both likelihood ratios at
    e^eps; the remaining slots share one tilt t, swept over a dense grid
    on [0, eps] plus the stationary candidates, then polished by golden
    section around the best grid point.  No closed-form composition
    result is consulted, so this is a fair check of those formulas.
    """
    CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g)
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if k > _MAX_EXACT_SLOTS:
        raise ValueError(f"exact enumeration limited to {_MAX_EXACT_SLOTS} slots")
    dp = grr_params(2.0 * eps, eps)
    n_br = k - m
    scale = math.exp(eps_g)

    def delta_at_grid(ts: np.ndarray) -> np.ndarray:
        qs = _tilt_q(eps, ts)
        ps = np.exp(-ts) * qs
        p_out = np.ones((ts.size, 1))
        q_out = np.ones((ts.size, 1))
        for _ in range(m):
            p_out = np.concatenate([p_out * dp.q, p_out * (1.0 - dp.q)], axis=1)
            q_out = np.concatenate([q_out * dp.p, q_out * (1.0 - dp.p)], axis=1)
        for _ in range(n_br):
            p_out = np.concatenate(
                [p_out * qs[:, None], p_out * (1.0 - qs)[:, None]], axis=1
            )
            q_out = np.concatenate(
                [q_out * ps[:, None], q_out * (1.0 - ps)[:, None]], axis=1
            )
        return np.maximum(p_out - scale * q_out, 0.0).sum(axis=1)

    ts = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, eps, grid_points),
                np.asarray(mixed_candidate_ts(k, m, eps, eps_g)),
            ]
        )
    )
    values = delta_at_grid(ts)
    best = int(np.argmax(values))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, ts.size - 1)]
    polished = golden_max(lambda t: float(delta_at_grid(np.array([t]))[0]), lo, hi, 80)
    return max(float(values[best]), polished)


# ---------------------------------------------------------------------------
# Three-slot adaptive closed forms (one DP slot, two BR slots) in mpf.
# ---------------------------------------------------------------------------


def _mp_x(eps, eg, t):
    qb = mp_qbar(eps)
    c = 1 - mp.e ** (-eps)
    return qb * (
        mp_q(eps, t) * mp_q(eps, (eg - t) / 2) ** 2 * c
        + (1 - mp_q(eps, t)) * mp_q(eps, (eg + eps - t) / 2) ** 2 * c
    )


def _mp_y(eps, eg, t):
    qb = mp_qbar(eps)
    c = 1 - mp.e ** (-eps)
    return qb * (
        mp_q(eps, t) * (1 - mp.e ** (eg - eps - t))
        + (1 - mp_q(eps, t)) * mp_q(eps, (eg + eps - t) / 2) ** 2 * c
    )


def _mp_z(eps, eg, t):
    qb = mp_qbar(eps)
    c = 1 - mp.e ** (-eps)
    return (1 - qb) * mp_q(eps, t) * mp_q(eps, eps + (eg - t) / 2) ** 2 * c


def mp_xyz_curves(eps, eps_g, t) -> tuple[float, float, float]:
    """(x, y, z) curve values at tilt t, mpf arithmetic."""
    with mp.workdps(DPS):
        eps, eg, t = mp.mpf(eps), mp.mpf(eps_g), mp.mpf(t)
        return (
            float(_mp_x(eps, eg, t)),
            float(_mp_y(eps, eg, t)),
            float(_mp_z(eps, eg, t)),
        )


def mp_xyz_deltas(eps, eps_g) -> tuple[float, float]:
    """(delta for DP-first, delta for BR-first) on 0 <= eps_g <= eps."""
    with mp.workdps(DPS):
        eps, eg = mp.mpf(eps), mp.mpf(eps_g)
        if eg >= eps / 2:
            dp_first = _mp_x(eps, eg, eps / 2) + _mp_z(eps, eg, (2 * eps + eg) / 3)
            br_first = max(
                _mp_x(eps, eg, eps / 2), _mp_y(eps, eg, eg) + _mp_z(eps, eg, eg)
            )
        else:
            dp_first = _mp_y(eps, eg, (eps + eg) / 3) + _mp_z(
                eps, eg, (2 * eps + eg) / 3
            )
            br_first = max(
                _mp_x(eps, eg, eg),
                _mp_y(eps, eg, eps / 2) + _mp_z(eps, eg, eps / 2),
            )
        return float(dp_first), float(br_first)


def mp_single_br_closed(eps, y) -> float:
    """Best single-BR delta at budget y: sup_t of the one-slot identity."""
    with mp.workdps(DPS):
        eps, y = mp.mpf(eps), mp.mpf(y)
        if y >= eps:
            return 0.0
        if y <= -eps:
            return float(1 - mp.e**y)
        return float(mp_q(eps, (y + eps) / 2) ** 2 * (1 - mp.e ** (-eps)))


def grid_terminal_br(m: int, eps: float, budget: float, n: int = 4001) -> np.ndarray:
    """One BR slot followed by m DP slots, at each point of an n-point tilt grid.

    The DP tail is its closed binomial mixture: j of the m slots move the
    budget up by eps and m - j down, with weights C(m, j) qb^(m-j)
    (1-qb)^j, and the empty tail costs [1 - e^b]_+.  Plain exp, no
    recursion and no stationary candidates.
    """
    qb = math.exp(eps) / (1.0 + math.exp(eps))
    j = np.arange(m + 1)
    w = np.array([math.comb(m, int(i)) for i in j]) * qb ** (m - j) * (1.0 - qb) ** j

    def tail(b: np.ndarray) -> np.ndarray:
        expo = b[:, None] + eps * (2 * j - m)
        return (w * np.maximum(1.0 - np.exp(expo), 0.0)).sum(axis=1)

    t = np.linspace(0.0, eps, n)
    q = (1.0 - np.exp(t - eps)) / (1.0 - math.exp(-eps))
    return q * tail(budget - t) + (1.0 - q) * tail(budget + eps - t)


def single_br_position_invariance(
    k: int,
    eps: float,
    eps_g: float,
    grid: GridSpec | None = None,
    tol: float = 1e-6,
) -> bool:
    """Whether a lone BR slot's position is irrelevant among k-1 DP slots.

    Checks all k positions against each other and against the
    non-adaptive mixed bound with k-1 DP slots, within tol.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ref = delta_opt_mixed(CompositionQuery(k=k, m=k - 1, eps=eps, eps_g=eps_g))
    for pos in range(k):
        slots = tuple("br" if i == pos else "dp" for i in range(k))
        val = delta_opt_recursive(MechanismSequence(slots, eps), eps_g, grid)
        if abs(val - ref) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Set-wise accounting in mpf.
# ---------------------------------------------------------------------------


def mp_dp_mean(eps) -> float:
    with mp.workdps(DPS):
        eps = mp.mpf(eps)
        return float(eps * (mp.e**eps - 1) / (mp.e**eps + 1))


def mp_br_mean(alpha) -> float:
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        r = a / (mp.e**a - 1)
        return float(r - 1 - mp.log(r))


def mp_setwise_eps(mus: Sequence[float], taus: Sequence[float], delta) -> float:
    with mp.workdps(DPS):
        s = mp.fsum(mp.mpf(m) for m in mus)
        v = mp.fsum(mp.mpf(t) ** 2 for t in taus)
        return float(s + mp.sqrt(2 * v * mp.log(1 / mp.mpf(delta))))


def mp_zcdp_eps(xis: Sequence[float], rhos: Sequence[float], delta) -> float:
    with mp.workdps(DPS):
        s = mp.fsum(mp.mpf(x) + mp.mpf(r) for x, r in zip(xis, rhos))
        v = mp.fsum(mp.mpf(r) for r in rhos)
        return float(s + 2 * mp.sqrt(v * mp.log(1 / mp.mpf(delta))))


class LinearScanAccountant:
    """Set-wise accountant bookkeeping by a scan over every registration.

    Applies SetwiseAccountant's consume rule without its index: each
    consume re-keys every registration, collects the unspent ones under
    the query's canonical key, and spends the earliest exactly equal to
    the query, else the earliest when all of them are equal, else raises.
    ``to_json`` writes the same layout from ``dataclasses.asdict``.
    """

    _TAGS = {PureDP: "pure_dp", BoundedRange: "br", Cdp: "cdp"}

    def __init__(self, delta_slack: float) -> None:
        self.delta_slack = delta_slack
        self.registered: list = []
        self.spent: list[bool] = []
        self.consumed: list = []

    def register(self, c) -> None:
        if self.consumed:
            raise AccountantStateError("registration is frozen")
        self.registered.append(c)
        self.spent.append(False)

    def consume(self, c) -> None:
        key = _canonical_key(c)
        unspent = [
            i
            for i, reg in enumerate(self.registered)
            if not self.spent[i] and _canonical_key(reg) == key
        ]
        exact = [i for i in unspent if self.registered[i] == c]
        if exact:
            i = exact[0]
        elif unspent and all(
            self.registered[j] == self.registered[unspent[0]] for j in unspent
        ):
            i = unspent[0]
        else:
            raise ConsumeMismatchError(f"no unique unspent match for {c}")
        self.spent[i] = True
        self.consumed.append(self.registered[i])

    def to_json(self) -> str:
        def entry(c) -> dict:
            return {"tag": self._TAGS.get(type(c), "zcdp"), **dataclasses.asdict(c)}

        state = {
            "registered": [entry(c) for c in self.registered],
            "consumed": [entry(c) for c in self.consumed],
            "delta_slack": self.delta_slack,
        }
        return json.dumps(state, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Calibration oracles in mpf.
# ---------------------------------------------------------------------------


def mp_analytic_gaussian_delta(sigma, eps) -> float:
    """Exact Gaussian trade-off delta at unit sensitivity, mpf ncdf."""
    with mp.workdps(DPS):
        sigma, eps = mp.mpf(sigma), mp.mpf(eps)
        return float(
            mp.ncdf(1 / (2 * sigma) - eps * sigma)
            - mp.e**eps * mp.ncdf(-1 / (2 * sigma) - eps * sigma)
        )


def mp_gaussian_zcdp_eps(sigma, delta0, delta) -> float:
    with mp.workdps(DPS):
        sigma, d0, delta = mp.mpf(sigma), mp.mpf(delta0), mp.mpf(delta)
        rho = d0 / (2 * sigma**2)
        return float(rho + 2 * mp.sqrt(rho * mp.log(1 / delta)))


def mp_trunc_rhs(delta0, tau, sigma, T) -> float:
    """Right-hand side of the truncation-level equation, mpf ncdf."""
    with mp.workdps(DPS):
        d0, tau, sigma, T = mp.mpf(delta0), mp.mpf(tau), mp.mpf(sigma), mp.mpf(T)
        s = tau * sigma
        num = mp.ncdf(T / s) - mp.ncdf((tau - T) / s)
        den = mp.ncdf(T / s) - mp.ncdf(-T / s)
        return float(d0 * (1 - num / den))


def grid_sup(f: Callable[[float], float], lo: float, hi: float, n: int) -> float:
    """Plain dense-grid supremum used to sanity-check closed-form maxima."""
    ts = np.linspace(lo, hi, n)
    return max(f(float(t)) for t in ts)
