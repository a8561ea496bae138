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
check for one BR slot among DP slots.  The one- and two-BR adaptive
deltas (a closed form, and a tilt search around it), the pure-DP slot's
and the two-point pair's log-probabilities, the log-sum-exp they fed and
the Laplace histogram delta are second routes the package no longer
calls, and so are the candidate tilts clipped one by one into a set,
the per-tilt sum before its kernel was inlined, the
inversion that judged every bisection midpoint by the full bound, the
analytic-Gaussian solves that evaluated every midpoint before their
solves were given a predicted bracket, and the adaptive evaluator that
priced each golden-section step by two scalar passes.  The list-based release
mechanisms are the package's former per-request sorts and full-width
selection rounds, kept as the reference its columnar releases must
reproduce byte for byte, and the audit categorizer that bins every trial
by its own binary search is the reference for the sorted-sample counts;
the block-stack PAVA that wrote each pooled block by slice assignment is
the byte reference for the projection.
Frozen constants in the tests cite the
producing function by name.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from dpcomp.adaptive import GridSpec, MechanismSequence, _tilt_q, delta_opt_recursive
from dpcomp.audit import _MAX_EXACT_SLOTS
from dpcomp.calibration import _SEARCH, _TOL_REL, HistogramSpec, analytic_gaussian_delta
from dpcomp.mechanisms import (
    Histogram,
    ReleaseEntry,
    RngState,
    TruncGaussConfig,
    sample_gaussian,
    sample_gumbel,
    sample_laplace,
)
from dpcomp.nonadaptive import (
    CompositionQuery,
    delta_opt_dp,
    delta_opt_mixed,
    grr_params,
)
from dpcomp.numerics import (
    check_delta,
    check_nonnegative,
    golden_max,
    log1mexp,
    log1pexp,
    log_binomial,
    pava_monotone_nonneg,
    solve,
)
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


def stack_pava_monotone_nonneg(v: Sequence[float]) -> np.ndarray:
    """The package's former pool-adjacent-violators, kept as a byte reference.

    Same block stack of (mean, count) as pava_monotone_nonneg, but it
    iterates the numpy array itself and writes each pooled block through
    a slice assignment before the clamp at zero.
    """
    v = np.asarray(v, dtype=float)
    means: list[float] = []
    counts: list[int] = []
    for x in v:
        means.append(float(x))
        counts.append(1)
        while len(means) >= 2 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.empty_like(v)
    pos = 0
    for m, c in zip(means, counts):
        out[pos : pos + c] = m
        pos += c
    np.maximum(out, 0.0, out=out)
    return out


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


def logsumexp(values: Sequence[float]) -> float:
    """ln sum(e^v) over the values, skipping -inf entries.

    Empty input (or all -inf) returns -inf. Accumulates the shifted sum
    with fsum so the result does not depend on summation order.
    """
    vals = [float(v) for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def grr_log_probs(eps: float, t: float) -> tuple[float, float, float, float]:
    """(ln q, ln(1-q), ln p, ln(1-p)) for the (eps, t) pair.

    -inf encodes an exact zero (t=eps for q and p, t=0 for their
    complements).  Checks eps and t as grr_params does.
    """
    grr_params(eps, t)
    log_denom = log1mexp(-eps)
    log_q = log1mexp(t - eps) - log_denom if t < eps else -math.inf
    if t > 0:
        log_1mq = -eps + t + log1mexp(-t) - log_denom
        log_1mp = log1mexp(-t) - log_denom
    else:
        log_1mq = -math.inf
        log_1mp = -math.inf
    log_p = -t + log_q
    return log_q, log_1mq, log_p, log_1mp


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


def dp_slot_log_probs(eps: float) -> tuple[float, float]:
    """(ln q, ln(1-q)) of the pure-DP worst-case pair, q = e^eps/(1+e^eps).

    A pure eps-DP slot behaves exactly like the (2 eps, eps) two-point
    pair, whose p is just 1-q.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return -log1pexp(-eps), -log1pexp(eps)


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


def plain_candidate_ts(k: int, m: int, eps: float, eps_g: float) -> list[float]:
    """The mixed bound's candidate tilts as the package first formed them:
    every ell in 0..k+m clipped into [0, eps], deduplicated in a set and
    sorted.  ``nonadaptive.mixed_candidate_ts`` must return the same
    list, ``repr`` for ``repr``."""
    if k - m == 0:
        return [0.0]
    kb = k - m
    cands = {
        min(max((eps_g + eps * (ell + 1 - m)) / (kb + 1), 0.0), eps)
        for ell in range(k + m + 1)
    }
    return sorted(cands)


def float_delta_mixed(k: int, m: int, eps: float, eps_g: float) -> float:
    """Mixed optimal delta as a float double sum in the q-form."""
    return max(
        _float_delta_mixed_at_t(k, m, eps, eps_g, t)
        for t in plain_candidate_ts(k, m, eps, eps_g)
    )


@functools.lru_cache(maxsize=64)
def _log_binomial_row(n: int) -> tuple[float, ...]:
    """ln C(n, i) for i = 0..n, formed here and not shared with the package."""
    return tuple(log_binomial(n, i) for i in range(n + 1))


@functools.lru_cache(maxsize=64)
def _dp_weights(m: int, eps: float) -> tuple[float, ...]:
    """ln P(ell of m worst-case pure-DP slots answer q), q = e^eps/(1+e^eps),
    for ell = 0..m, formed here and not shared with the package."""
    log_norm = m * log1pexp(eps)
    return tuple(lb + ell * eps - log_norm for ell, lb in enumerate(_log_binomial_row(m)))


def logsumexp_delta_at_t(k: int, m: int, eps: float, eps_g: float, t: float) -> float:
    """The package's per-tilt sum as written before its kernel was inlined.

    Calls ``log1mexp`` per term and ends in ``logsumexp``, over rows and
    pure-DP weights of its own; the package's walk of one tilt's rows,
    ``nonadaptive._walk`` over ``_plan``'s rows and the ``_dp_pairs``,
    must return the same float.
    """
    kb = k - m
    dp_w = _dp_weights(m, eps)
    rows = [(0.0, 0.0)]
    if kb > 0:
        _, _, log_p, log_1mp = grr_log_probs(eps, t)
        rows = []
        for i, lb in enumerate(_log_binomial_row(kb)):
            s = kb * t - i * eps
            if eps_g - m * eps - s >= 0.0:
                break
            if kb - i > 0:
                lb += (kb - i) * log_p
            if i > 0:
                lb += i * log_1mp
            if lb != -math.inf:
                rows.append((lb + s, s))
    terms = []
    for log_row, s in rows:
        for ell in range(m, -1, -1):
            expo = eps_g + (m - 2 * ell) * eps - s
            if expo >= 0.0:
                break
            terms.append(log_row + dp_w[ell] + log1mexp(expo))
    return math.exp(logsumexp(terms))


def plain_delta_max(k: int, m: int, eps: float, eps_g: float) -> float:
    """The mixed bound as the largest ``logsumexp_delta_at_t`` over every
    candidate tilt, each walked in full; ``delta_opt_mixed`` (and at
    m = 0 ``delta_opt_br_nonadaptive``) must return the same float."""
    return max(logsumexp_delta_at_t(k, m, eps, eps_g, t)
               for t in plain_candidate_ts(k, m, eps, eps_g))


def plain_eps_inverse(
    delta_target: float,
    bound: str,
    k: int,
    eps: float,
    m: Optional[int] = None,
    tol: float = 1e-9,
) -> float:
    """``eps_inverse`` as one ``solve``, every midpoint judged by
    ``plain_delta_max``: the full maximum over the candidate tilts,
    walked outside the package's bounds."""
    m = {"dp": k, "br": 0}.get(bound, m)
    f = lambda eg: plain_delta_max(k, m, eps, eg)
    if f(0.0) <= delta_target:
        return 0.0
    tol_abs = max(tol, math.ulp(0.0))
    return solve(
        lambda eg: f(eg) <= delta_target, 0.0, k * eps, tol_abs=tol_abs, tol_rel=0.0,
        doublings=0,
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
                np.asarray(plain_candidate_ts(k, m, eps, eps_g)),
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


class _PlainRecursiveEvaluator:
    """The adaptive evaluator as it was before its golden-section polish
    took both budgets of a tilt in one vector pass: every phi(t) makes two
    scalar passes, and the candidates are stacked one column at a time."""

    def __init__(self, seq: MechanismSequence, grid: GridSpec) -> None:
        self.slots = seq.slots
        self.eps = seq.eps
        self.n = len(seq.slots)
        self.grid = grid
        self.t_grid = np.linspace(0.0, seq.eps, grid.points_per_level)
        self.h = seq.eps / (grid.points_per_level - 1)
        self.qb = 1.0 / (1.0 + math.exp(-seq.eps))
        self.memo: dict[tuple[int, float], float] = {}
        self.terminal = max(
            (i for i, s in enumerate(seq.slots) if s == "br"), default=-1
        )
        self.n_cand = [8 + self.n - i + seq.slots[i:].count("dp") for i in range(self.n)]

    def _cand_matrix(self, idx: int, budgets: np.ndarray) -> np.ndarray:
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
        block = max(1, (1 << 21) // (g + self.n_cand[idx]))
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


def plain_delta_recursive(
    seq: MechanismSequence, eps_g: float, grid: GridSpec | None = None
) -> float:
    """delta_opt_recursive by two scalar passes per golden-section step."""
    if math.isnan(eps_g):
        raise ValueError("eps_g must not be NaN")
    ev = _PlainRecursiveEvaluator(seq, grid or GridSpec())
    return ev.eval_scalar(0, eps_g)


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


def plain_analytic_gaussian_eps(sigma: float, delta: float) -> float:
    """``analytic_gaussian_eps`` as written before its solve was given a
    predicted bracket: every midpoint evaluated."""
    check_delta("delta", delta)
    if analytic_gaussian_delta(sigma, 0.0) <= delta:
        return 0.0
    ok = lambda e: analytic_gaussian_delta(sigma, e) <= delta
    return solve(ok, 0.0, 1.0, tol_abs=_TOL_REL, **_SEARCH)


def plain_solve_sigma_analytic(eps: float, delta: float) -> float:
    """``solve_sigma_analytic`` as written before its solve was given a
    predicted bracket: every midpoint evaluated."""
    check_nonnegative("eps", eps)
    check_delta("delta", delta)
    ok = lambda s: analytic_gaussian_delta(s, eps) <= delta
    return solve(ok, 0.0, 1.0, tol_abs=0.0, **_SEARCH)


def mp_gaussian_zcdp_eps(sigma, delta0, delta) -> float:
    with mp.workdps(DPS):
        sigma, d0, delta = mp.mpf(sigma), mp.mpf(delta0), mp.mpf(delta)
        rho = d0 / (2 * sigma**2)
        return float(rho + 2 * mp.sqrt(rho * mp.log(1 / delta)))


def laplace_histogram_delta(eps_coord: float, spec: HistogramSpec, eps_g: float) -> float:
    """delta of one Laplace histogram release at global budget eps_g.

    One user touches delta0 counts, each a pure eps_coord-DP coordinate,
    composed under the optimal pure-DP bound.
    """
    return delta_opt_dp(spec.delta0, eps_coord, eps_g)


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


def list_sorted_items(hist: Histogram) -> list[tuple[str, float]]:
    """Items in canonical release order by a Python sort of the mapping."""
    return sorted(hist.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def list_exp_mech_topk(
    hist: Histogram, k: int, eps_per_round: float, rng: RngState
) -> list[str]:
    """exp_mech_topk drawing a Gumbel for every remaining element each round."""
    tau = hist.require_spec().tau
    items = list_sorted_items(hist)
    if math.isinf(eps_per_round):
        return [element for element, _ in items[:k]]
    ids = [element for element, _ in items]
    scores = np.array([eps_per_round * count / tau for _, count in items])
    chosen: list[str] = []
    for round_index in range(k):
        gen = rng.substream(round_index)
        noise = sample_gumbel(gen, 1.0, size=len(ids))
        j = int(np.argmax(scores + noise))
        chosen.append(ids.pop(j))
        scores = np.delete(scores, j)
    return chosen


def list_topk_release(
    hist: Histogram, k: int, eps_per_round: float, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """topk_release by the list selection, noising the selected counts in pick order."""
    ids = list_exp_mech_topk(hist, k, eps_per_round, rng.derive(0))
    tau = hist.require_spec().tau
    raw = np.array([hist.counts[element] for element in ids])
    noisy = raw + sample_gaussian(rng.derive(1).generator(), tau * sigma, size=len(ids))
    return list(zip(ids, pava_monotone_nonneg(noisy).tolist()))


def list_known_lap_topk(
    hist: Histogram, k: int, eps_per_coord: float, rng: RngState
) -> list[tuple[str, float]]:
    """known_lap_topk on sorted tuple lists."""
    tau = hist.require_spec().tau
    items = list_sorted_items(hist)
    noise = sample_laplace(rng.generator(), tau / eps_per_coord, size=len(items))
    noisy = [(element, count + float(n)) for (element, count), n in zip(items, noise)]
    noisy.sort(key=lambda kv: (-kv[1], kv[0]))
    return noisy[:k]


def list_known_gauss(
    hist: Histogram, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """known_gauss on sorted tuple lists."""
    tau = hist.require_spec().tau
    items = list_sorted_items(hist)
    noise = sample_gaussian(rng.generator(), tau * sigma, size=len(items))
    noisy = [(element, count + float(n)) for (element, count), n in zip(items, noise)]
    noisy.sort(key=lambda kv: (-kv[1], kv[0]))
    return noisy


def list_trunc_gauss_release(
    hist: Histogram, config: TruncGaussConfig, rng: RngState
) -> list[ReleaseEntry]:
    """trunc_gauss_release over a padded tuple list, one entry per rank."""
    items: list[tuple[Optional[str], float]] = list(list_sorted_items(hist))
    items += [(None, 0.0)] * (config.d_bar - len(items))
    noise = config.window_noise(rng.generator(), config.d_bar)
    threshold = config.tau + config.t_level
    released = []
    for rank, (element, count) in enumerate(items):
        value = count + float(noise[rank])
        if value > threshold:
            released.append(ReleaseEntry(rank=rank, element=element, value=value))
    return released


def searchsorted_category_counts(
    xs: np.ndarray, ys: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """audit's categorizer binning every trial by its own binary search.

    The categories are the pooled distinct values when there are at most
    n_bins of them, else the pooled-quantile bins; NaN is the final
    category.  Raises when neither sample has a finite outcome.
    """
    pooled = np.concatenate([xs, ys])
    finite = pooled[~np.isnan(pooled)]
    if finite.size and np.unique(finite).size <= n_bins:
        atoms = np.unique(finite)
        mode = f"atoms({atoms.size})"

        def index(v: np.ndarray) -> np.ndarray:
            return np.searchsorted(atoms, v)

        n_cat = atoms.size
    else:
        edges = np.unique(np.quantile(finite, np.linspace(0.0, 1.0, n_bins + 1)))
        mode = f"quantile({edges.size - 1})"

        def index(v: np.ndarray) -> np.ndarray:
            return np.clip(
                np.searchsorted(edges, v, side="right") - 1, 0, edges.size - 2
            )

        n_cat = edges.size - 1

    def counts(sample: np.ndarray) -> np.ndarray:
        miss = np.isnan(sample)
        c = np.bincount(index(sample[~miss]), minlength=n_cat)
        return np.append(c, miss.sum()).astype(np.int64)

    return counts(xs), counts(ys), mode
