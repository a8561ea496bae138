"""Optimal approximate-DP guarantees for non-adaptive composition.

Closed-form evaluation of the smallest delta at which a composed sequence
of mechanisms is (eps_g, delta)-DP, when each slot is either a pure eps-DP
mechanism or an eps-bounded-range mechanism.  The worst case over both
classes is a two-point randomized response pair, so all bounds reduce to
finite sums over binomial mixtures of those pairs; every sum here is
accumulated in log space and the positive part of each term is decided on
the sign of its exponent, never by subtracting nearly equal exps.

The global budget eps_g may be any real, including negative: delta then
approaches the total-variation limit 1 - e^eps_g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    Bracket,
    bisect,
    log1mexp,
    log1pexp,
    log_binomial,
    logsumexp,
)

__all__ = [
    "GrrParams",
    "CompositionQuery",
    "grr_params",
    "grr_log_probs",
    "dp_slot_log_probs",
    "delta_opt_dp",
    "delta_opt_br_nonadaptive",
    "delta_opt_mixed",
    "mixed_candidate_ts",
    "eps_inverse",
    "brute_force_delta",
    "permutation_invariance_check",
]


@dataclass(frozen=True)
class GrrParams:
    """Two-point randomized-response pair at privacy eps and tilt t.

    q is the probability of the first outcome under the first input, p the
    same probability under the adjacent input.  The defining likelihood
    ratios are q/p = e^t and (1-p)/(1-q) = e^(eps-t), with 0 <= t <= eps.
    """

    eps: float
    t: float
    q: float
    p: float


def _validate_eps_t(eps: float, t: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not (0.0 <= t <= eps):
        raise ValueError(f"t must lie in [0, eps]=[0, {eps}], got {t}")


def grr_params(eps: float, t: float) -> GrrParams:
    """Response probabilities of the (eps, t) two-point pair.

    Stable at both endpoints: t=0 gives q=p=1, t=eps gives q=p=0.
    """
    _validate_eps_t(eps, t)
    # q = (1 - e^(t-eps)) / (1 - e^(-eps)), both differences via expm1
    q = math.expm1(t - eps) / math.expm1(-eps)
    p = math.exp(-t) * q
    return GrrParams(eps=eps, t=t, q=q, p=p)


def grr_log_probs(eps: float, t: float) -> tuple[float, float, float, float]:
    """(ln q, ln(1-q), ln p, ln(1-p)) for the (eps, t) pair.

    -inf encodes an exact zero (t=eps for q and p, t=0 for their
    complements).
    """
    _validate_eps_t(eps, t)
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


def dp_slot_log_probs(eps: float) -> tuple[float, float]:
    """(ln q, ln(1-q)) of the pure-DP worst-case pair, q = e^eps/(1+e^eps).

    A pure eps-DP slot behaves exactly like the (2 eps, eps) two-point
    pair, whose p is just 1-q.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return -log1pexp(-eps), -log1pexp(eps)


@dataclass(frozen=True)
class CompositionQuery:
    """k homogeneous slots at per-slot budget eps, m of them pure DP.

    The remaining k - m slots are eps-bounded-range.  eps_g is the global
    budget, unrestricted in sign.
    """

    k: int
    m: int
    eps: float
    eps_g: float

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not isinstance(self.m, int) or not 0 <= self.m <= self.k:
            raise ValueError(f"m must lie in 0..k={self.k}, got {self.m}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if math.isnan(self.eps_g):
            raise ValueError("eps_g must not be NaN")


def delta_opt_dp(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold composition of pure eps-DP mechanisms.

    Binomial sum over the worst-case product pair, scaled by
    (1+e^eps)^(-k); terms with nonnegative exponent vanish under the
    positive part and are skipped before exponentiation.
    """
    CompositionQuery(k=k, m=k, eps=eps, eps_g=eps_g)
    start = max(0, math.ceil((eps_g + k * eps) / (2.0 * eps)))
    if start > k:
        return 0.0
    log_norm = k * log1pexp(eps)
    terms = []
    for ell in range(start, k + 1):
        expo = eps_g + (k - 2 * ell) * eps
        if expo >= 0.0:
            continue
        terms.append(log_binomial(k, ell) + ell * eps - log_norm + log1mexp(expo))
    return math.exp(logsumexp(terms))


def _br_candidate_ts(k: int, eps: float, eps_g: float) -> list[float]:
    # stationary tilts (eps_g + (l+1) eps)/(k+1), rounded into [0, eps]
    cands = {min(max((eps_g + (ell + 1) * eps) / (k + 1), 0.0), eps) for ell in range(k + 1)}
    return sorted(cands)


def _delta_br_at_t(k: int, eps: float, eps_g: float, t: float) -> float:
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


def delta_opt_br_nonadaptive(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold non-adaptive composition of eps-BR slots.

    The worst case is a common tilt t shared by all slots; the maximum
    over t is attained at one of k+1 stationary candidates, each rounded
    to the closest point of [0, eps].
    """
    CompositionQuery(k=k, m=0, eps=eps, eps_g=eps_g)
    return max(_delta_br_at_t(k, eps, eps_g, t) for t in _br_candidate_ts(k, eps, eps_g))


def mixed_candidate_ts(k: int, m: int, eps: float, eps_g: float) -> list[float]:
    """Deduplicated stationary tilts for the mixed bound, rounded into [0, eps].

    One candidate per ell in 0..k+m: (eps_g + eps (ell+1-m)) / (k-m+1);
    out-of-range values snap to the nearer endpoint.  With no BR slot the
    bound is tilt-free and a single dummy candidate 0 is returned.
    """
    if k - m == 0:
        return [0.0]
    kb = k - m
    cands = {
        min(max((eps_g + eps * (ell + 1 - m)) / (kb + 1), 0.0), eps)
        for ell in range(k + m + 1)
    }
    return sorted(cands)


def _delta_mixed_at_t(k: int, m: int, eps: float, eps_g: float, t: float) -> float:
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


def delta_opt_mixed(query: CompositionQuery) -> float:
    """Smallest delta for m pure-DP slots composed with k-m BR slots.

    Specializes to delta_opt_dp at m=k and to delta_opt_br_nonadaptive at
    m=0; those routes stay separately implemented and are reconciled by
    the tests rather than by delegation.
    """
    k, m, eps, eps_g = query.k, query.m, query.eps, query.eps_g
    return max(
        _delta_mixed_at_t(k, m, eps, eps_g, t)
        for t in mixed_candidate_ts(k, m, eps, eps_g)
    )


def eps_inverse(
    delta_target: float,
    bound: str,
    k: int,
    eps: float,
    m: int | None = None,
    tol: float = 1e-9,
) -> float:
    """Smallest eps_g at which the chosen bound is below delta_target.

    bound is one of "dp", "br", "mixed"; "mixed" requires m.  delta at
    eps_g = k eps is exactly zero, so [0, k eps] always brackets; if even
    eps_g = 0 already meets the target, 0 is returned.  Bisection stops at
    width tol, or earlier once the bracket ends are adjacent floats.
    """
    if not (0.0 < delta_target < 1.0):
        raise ValueError(f"delta_target must lie in (0,1), got {delta_target}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if bound == "dp":
        f: Callable[[float], float] = lambda eg: delta_opt_dp(k, eps, eg)
    elif bound == "br":
        f = lambda eg: delta_opt_br_nonadaptive(k, eps, eg)
    elif bound == "mixed":
        if m is None:
            raise ValueError("bound='mixed' requires m")
        f = lambda eg: delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eg))
    else:
        raise ValueError(f"unknown bound {bound!r}")
    if f(0.0) <= delta_target:
        return 0.0
    hi = k * eps
    lo = 0.0
    g = lambda eg: f(eg) - delta_target
    # g(lo) > 0 and g(hi) <= 0; keep the smallest eg with g <= 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def brute_force_delta(
    slots: Sequence[tuple[float, float]], eps_g: float
) -> float:
    """Exact hockey-stick delta of a heterogeneous two-point product.

    slots is a sequence of (t_i, eps_i) pairs, at most 20 of them; the sum
    runs over all 2^k outcome bit-strings.  Per-outcome log-probabilities
    are assembled per slot and exponentiated only at the final subtraction.
    """
    k = len(slots)
    if k == 0:
        raise ValueError("need at least one slot")
    if k > 20:
        raise ValueError(f"brute force limited to 20 slots, got {k}")
    if math.isnan(eps_g):
        raise ValueError("eps_g must not be NaN")
    logs = [grr_log_probs(e, t) for (t, e) in slots]

    n = 1 << k
    bit = np.arange(n)
    log_p_out = np.zeros(n)
    log_q_out = np.zeros(n)
    for i, (log_q, log_1mq, log_p, log_1mp) in enumerate(logs):
        chosen = (bit >> i) & 1
        log_p_out += np.where(chosen == 0, log_q, log_1mq)
        log_q_out += np.where(chosen == 0, log_p, log_1mp)
    with np.errstate(over="ignore"):
        diff = np.exp(log_p_out) - np.exp(eps_g + log_q_out)
    return float(np.sum(np.maximum(diff, 0.0)))


def permutation_invariance_check(
    slots: Sequence[tuple[float, float]],
    eps_g: float,
    perm: Sequence[int],
    tol: float = 1e-12,
) -> bool:
    """Whether the brute-force delta is unchanged under reordering slots."""
    if sorted(perm) != list(range(len(slots))):
        raise ValueError(f"perm must be a permutation of 0..{len(slots)-1}")
    base = brute_force_delta(slots, eps_g)
    permuted = brute_force_delta([slots[i] for i in perm], eps_g)
    return abs(base - permuted) <= tol
