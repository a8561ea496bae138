"""Optimal approximate-DP guarantees for non-adaptive composition.

Closed-form evaluation of the smallest delta at which a composed sequence
of mechanisms is (eps_g, delta)-DP, when each slot is either a pure eps-DP
mechanism or an eps-bounded-range mechanism.  The worst case over both
classes is a two-point randomized response pair, so every bound is a
finite sum over binomial mixtures of those pairs.

One evaluator, ``_tilt_sums``, computes that sum for m pure-DP slots and
k-m BR slots sharing one tilt t, lazily at each tilt of a list, and the
three public bounds are views of it: ``delta_opt_dp`` is m = k
(tilt-free), ``delta_opt_br_nonadaptive`` is m = 0, and
``delta_opt_mixed`` is any m; the last two maximize over
``mixed_candidate_ts``.  Each call forms one plan that all its tilts
share: the exponent bases eps_g + (m - 2 ell) eps paired with their
pure-DP weights, cut where the largest tilt's first row stops reading
them, the row cut and ln(1 - e^-eps).  A tilt adds only its ln p,
ln(1-p) and rows.  With no BR slot there is one walk and no plan.
``_delta_at_t`` is the one-tilt view.  The sum is accumulated in log
space and the positive part of each term is decided on the sign of its
exponent, never by subtracting nearly equal exps.

``eps_inverse`` needs only whether a bound meets its target, not the
bound itself: each bisection step takes the candidate tilts' sums one at
a time and stops at the first that is not at most the target.  A
predicted bracket, from a few evaluations of the full bound and its
rounding-error bound, decides most midpoints without evaluating them.

The global budget eps_g may be any real, including negative: delta then
approaches the total-variation limit 1 - e^eps_g.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .numerics import (
    _ERR_UNIT,
    _LOG_HALF,
    _predicted_bracket,
    check_delta,
    check_positive,
    log1mexp,
    log1pexp,
    log_binomial,
    solve,
)

__all__ = [
    "GrrParams",
    "CompositionQuery",
    "grr_params",
    "grr_log_probs",
    "delta_opt_dp",
    "delta_opt_br_nonadaptive",
    "delta_opt_mixed",
    "mixed_candidate_ts",
    "eps_inverse",
]

# ln C(n, .) rows and pure-DP weight rows kept for reuse across one
# inversion or curve; few, so memory stays flat
_ROW_CACHE = 8


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
    check_positive("eps", eps)
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
        check_positive("eps", self.eps)
        if not math.isfinite(self.k * self.eps):
            raise ValueError(f"k*eps must be finite, got {self.k} * {self.eps}")
        if math.isnan(self.eps_g):
            raise ValueError("eps_g must not be NaN")


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


@functools.lru_cache(maxsize=_ROW_CACHE)
def _log_binomial_row(n: int) -> tuple[float, ...]:
    return tuple(log_binomial(n, i) for i in range(n + 1))


@functools.lru_cache(maxsize=_ROW_CACHE)
def _dp_weights(m: int, eps: float) -> tuple[float, ...]:
    # ln P(ell of m worst-case pure-DP slots answer q), q = e^eps/(1+e^eps)
    log_norm = m * log1pexp(eps)
    return tuple(lb + ell * eps - log_norm for ell, lb in enumerate(_log_binomial_row(m)))


def _delta_at_t(k: int, m: int, eps: float, eps_g: float, t: float) -> float:
    """Hockey-stick sum of m pure-DP slots and k-m BR slots, all at tilt t.

    The one-tilt view of ``_tilt_sums``.
    """
    return next(_tilt_sums(k, m, eps, eps_g, (t,)))


def _tilt_sums(
    k: int, m: int, eps: float, eps_g: float, ts: Sequence[float]
) -> Iterator[float]:
    """The hockey-stick sum at each tilt of ts in turn, lazily, from one plan.

    At tilt t, BR row i (i slots answer 1-p) weighs
    C(k-m,i) p^(k-m-i) (1-p)^i e^s, s = (k-m) t - i eps; DP row ell (ell
    slots answer q) weighs C(m,ell) e^(ell eps) / (1+e^eps)^m.  A pair's
    exponent eps_g + (m - 2 ell) eps - s rises as ell falls and as i
    grows, so the walk over ell stops at the first nonnegative exponent,
    and the rows stop at the first one whose ell = m exponent is
    nonnegative.

    The plan is formed once per call: the pairs (eps_g + (m - 2 ell) eps,
    ln DP weight of row ell) in walk order, the row cut eps_g - m eps and
    ln(1 - e^-eps).  The pairs stop at the first base a >= s_hi =
    (k-m) max(ts), the largest s of any row at any tilt: from there every
    exponent a - s is nonnegative, so no walk reads further.  A NaN base
    fails that test, is kept, and raises in log1mexp.  Each tilt then
    forms ln p and ln(1-p) of its pair (t must lie in [0, eps], and is
    not checked) and walks its rows.  a - s is the float eps_g +
    (m - 2 ell) eps - s, and fsum rounds once whatever the order, so each
    sum is the one a separate walk gives.  With no BR slot there is one
    walk, over the one row s = 0, and it reads the pairs as it forms them;
    its sum does not depend on t.
    """
    kb = k - m
    dp_w = _dp_weights(m, eps)
    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    log_half, inf = _LOG_HALF, math.inf
    # log1mexp's two branches inline: an exponent below -ln 2 takes
    # log1p(-exp), one in [-ln 2, 0) log(-expm1), a nonnegative one ends
    # the walk, and a NaN one (an overflowed eps) raises in log1mexp
    if kb == 0:
        terms = []
        for ell in range(m, -1, -1):
            expo = eps_g + (m - 2 * ell) * eps
            if expo < log_half:
                terms.append(dp_w[ell] + log1p(-exp(expo)))
            elif expo < 0.0:
                terms.append(dp_w[ell] + log(-expm1(expo)))
            elif expo >= 0.0:
                break
            else:
                log1mexp(expo)
        total = _exp_sum(terms)
        for _ in ts:
            yield total
        return
    s_hi = kb * max(ts)
    pairs = []
    for ell in range(m, -1, -1):
        a = eps_g + (m - 2 * ell) * eps
        if a >= s_hi:
            break
        pairs.append((a, dp_w[ell]))
    cut = eps_g - m * eps
    log_denom = log1mexp(-eps)
    lb_row = _log_binomial_row(kb)
    for t in ts:
        # grr_log_probs(eps, t)'s ln p and ln(1-p)
        log_p = -t + (log1mexp(t - eps) - log_denom if t < eps else -inf)
        log_1mp = log1mexp(-t) - log_denom if t > 0 else -inf
        terms = []
        for i, lb in enumerate(lb_row):
            s = kb * t - i * eps
            if cut - s >= 0.0:
                break
            if kb - i > 0:
                lb += (kb - i) * log_p
            if i > 0:
                lb += i * log_1mp
            if lb == -inf:
                continue
            log_row = lb + s
            for a, w in pairs:
                expo = a - s
                if expo < log_half:
                    terms.append(log_row + w + log1p(-exp(expo)))
                elif expo < 0.0:
                    terms.append(log_row + w + log(-expm1(expo)))
                elif expo >= 0.0:
                    break
                else:
                    log1mexp(expo)
        yield _exp_sum(terms)


def _exp_sum(terms: list[float]) -> float:
    """exp(logsumexp(terms)), 0 for no terms; fsum rounds once, whatever the order."""
    if not terms:
        return 0.0
    top = max(terms)
    return math.exp(top + math.log(math.fsum([math.exp(v - top) for v in terms])))


def delta_opt_dp(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold composition of pure eps-DP mechanisms.

    The mixed bound at m = k: tilt-free, one evaluation of the sum.
    """
    CompositionQuery(k=k, m=k, eps=eps, eps_g=eps_g)
    return _delta_at_t(k, k, eps, eps_g, 0.0)


def delta_opt_br_nonadaptive(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold non-adaptive composition of eps-BR slots.

    The mixed bound at m = 0: all slots share one tilt t, and the maximum
    over t is attained at one of the k+1 stationary candidates.
    """
    CompositionQuery(k=k, m=0, eps=eps, eps_g=eps_g)
    return max(_tilt_sums(k, 0, eps, eps_g, mixed_candidate_ts(k, 0, eps, eps_g)))


def delta_opt_mixed(query: CompositionQuery) -> float:
    """Smallest delta for m pure-DP slots composed with k-m BR slots.

    The maximum of the per-tilt sum over the stationary candidates; at
    m = k it returns delta_opt_dp's value and at m = 0
    delta_opt_br_nonadaptive's, bit for bit.
    """
    k, m, eps, eps_g = query.k, query.m, query.eps, query.eps_g
    return max(_tilt_sums(k, m, eps, eps_g, mixed_candidate_ts(k, m, eps, eps_g)))


def _bound_curve(
    bound: str, k: int, eps: float, m: int | None
) -> Callable[[float], float]:
    """eps_g -> delta of the named bound, "dp", "br" or "mixed" (with m).

    m is refused for "dp" and "br", which fix it at k and 0.
    """
    if bound not in ("dp", "br", "mixed"):
        raise ValueError(f"unknown bound {bound!r}")
    if bound == "mixed" and m is None:
        raise ValueError("bound='mixed' requires m")
    if bound != "mixed" and m is not None:
        raise ValueError(f"m is for bound='mixed' only, got m={m} with bound={bound!r}")
    if bound == "dp":
        return lambda eg: delta_opt_dp(k, eps, eg)
    if bound == "br":
        return lambda eg: delta_opt_br_nonadaptive(k, eps, eg)
    return lambda eg: delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eg))


def eps_inverse(
    delta_target: float,
    bound: str,
    k: int,
    eps: float,
    m: int | None = None,
    tol: float = 1e-9,
) -> float:
    """Smallest eps_g at which the chosen bound is below delta_target.

    bound is one of "dp", "br", "mixed"; "mixed" requires m, and the
    other two refuse it.  delta at
    eps_g = k eps is exactly zero, so [0, k eps] always brackets; if even
    eps_g = 0 already meets the target, 0 is returned.  Bisection stops at
    width tol, or earlier once the bracket ends are adjacent floats, and
    returns the feasible end.  A midpoint is judged without the full
    maximum over the candidate tilts: it is infeasible at the first
    candidate whose sum is not at most the target.  For "dp" (one
    candidate) and wherever no sum is NaN that is the decision of the
    plain test ``bound <= delta_target``, so the midpoints and the result
    are too.  The bisection takes a midpoint outside the bracket that
    ``numerics._predicted_bracket`` measures on the full bound without
    evaluating it; the midpoints and the result stay the same.
    """
    check_delta("delta_target", delta_target)
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    _bound_curve(bound, k, eps, m)  # rejects an unknown bound, and m with any but "mixed"
    m = {"dp": k, "br": 0}.get(bound, m)
    CompositionQuery(k=k, m=m, eps=eps, eps_g=0.0)
    ok = lambda eg: all(
        d <= delta_target
        for d in _tilt_sums(k, m, eps, eg, mixed_candidate_ts(k, m, eps, eg))
    )
    if ok(0.0):
        return 0.0
    f = lambda eg: max(_tilt_sums(k, m, eps, eg, mixed_candidate_ts(k, m, eps, eg)))
    # Rounding that moves with eg, in units of _ERR_UNIT (the binomial
    # and pure-DP rows are fixed, so their rounding is part of the exact
    # curve).  Each exponent eg + (m - 2 ell) eps - s sums terms of size
    # up to |eg| + 2 k eps: an error in eg itself.  The tilt t, so s and
    # ln p, moves with eg too; in a term within some 40 of ln delta_target
    # those negative log-factors are at most ln C(n, i) + s - ln term
    # < k (1 + eps) + |ln delta_target| + 40 in size, and so is the
    # term's relative error, and with it the sum's.
    rel = k * (eps + 1.0) + abs(math.log(delta_target)) + 40.0
    predict = lambda lo, hi: _predicted_bracket(
        f, delta_target, lo, hi,
        err=lambda eg, d: _ERR_UNIT * (rel + abs(eg)) * d,
        x_err=lambda eg: _ERR_UNIT * (abs(eg) + 2.0 * k * eps),
    )
    # tol=0 stops at adjacent floats: no positive width is below ulp(0)
    tol_abs = max(tol, math.ulp(0.0))
    return solve(
        ok, 0.0, k * eps, tol_abs=tol_abs, tol_rel=0.0, doublings=0, predict=predict
    )
