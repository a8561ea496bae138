"""Optimal approximate-DP guarantees for non-adaptive composition.

Closed-form evaluation of the smallest delta at which a composed sequence
of mechanisms is (eps_g, delta)-DP, when each slot is either a pure eps-DP
mechanism or an eps-bounded-range mechanism.  The worst case over both
classes is a two-point randomized response pair, so every bound is a
finite sum over binomial mixtures of those pairs.

One kernel, ``_walk``, sums that mixture for m pure-DP slots and k-m BR
slots sharing one tilt t, and the three public bounds are one call,
``_max_sum``, over ``mixed_candidate_ts``: ``delta_opt_dp`` is m = k,
whose one candidate has the one row L = s = 0, ``delta_opt_br_nonadaptive``
is m = 0, and ``delta_opt_mixed`` is any m.  The ln C(n, .) rows are
cached per n (``_log_binomial_row``), each built from one table of
lgamma(i + 1), one lgamma per entry, as log_binomial's own float
expression.  The pure-DP pairs (c, w) = ((m - 2 ell) eps, ln weight of
row ell) are cached per (m, eps) (``_dp_pairs``), and the walk forms
each exponent eps_g + c - s as it reads it.  Each call forms one plan
that all its tilts share (``_plan``): the row cut and ln(1 - e^-eps).
A tilt adds only its ln p, ln(1-p) and rows.  The sum is accumulated in
log space and the positive part of each term is decided on the sign of
its exponent, never by subtracting nearly equal exps.

Bound, then walk: the maximum over the candidate tilts does not walk
every tilt.  A tilt's row weights, times e^s, are the Binomial(k-m, 1-q)
masses of its pair, so one multiply per row steps them, with no log or
exp of its own; prefix sums over the pure-DP pairs then give each tilt
an upper bound U on its sum (``_bounded``), with a proven rounding term
scaled to the tilt.  ``_max_sum`` walks the tilts in descending U, and
forms rows only for them, until the next U, raised by the walk's own
relative error bound eta, is below the best sum walked: a tilt left
unwalked cannot exceed it, so the float returned is the full maximum's.
With one candidate, or where a U is not finite, every tilt is walked.
The candidates themselves are nondecreasing in ell, so
``mixed_candidate_ts`` evaluates only the ells between the first
positive tilt and the first at eps.

``eps_inverse`` needs only whether a bound meets its target, not the
bound itself: each bisection step takes the candidate tilts' sums one at
a time and stops at the first that is not at most the target.  A
predicted bracket, from a few evaluations of the full bound and its
rounding-error bound, decides most midpoints without evaluating them.
As the bound is exactly 0 at k eps and vanishes linearly there, the
bracket's search steps toward a root near k eps on that model
(``numerics._predicted_bracket``'s zero-end step) rather than halving
toward it.

The global budget eps_g may be any real, including negative: delta then
approaches the total-variation limit 1 - e^eps_g.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import (
    _ERR_UNIT,
    _LOG_HALF,
    _predicted_bracket,
    check_delta,
    check_positive,
    log1mexp,
    log1pexp,
    solve,
)

__all__ = [
    "GrrParams",
    "CompositionQuery",
    "grr_params",
    "delta_opt_dp",
    "delta_opt_br_nonadaptive",
    "delta_opt_mixed",
    "mixed_candidate_ts",
    "eps_inverse",
]

# ln C(n, .) rows and pure-DP pairs kept for reuse across one
# inversion or curve; few, so memory stays flat
_ROW_CACHE = 8
# smallest sum or target against which a tilt is skipped on its bound:
# below it exp's underflow, up to 2^-1075 absolute per operation, is no
# longer small against a relative error bound
_PRUNE_FLOOR = 2.0**-970
# a tilt's binomial masses are carried as mass 2^shift; a mass above
# 2^_RESCALE_BITS moves that power of two, exactly, into shift
_RESCALE_BITS = 600
_RESCALE = 2.0**_RESCALE_BITS
_LN2 = math.log(2.0)
# largest k a query accepts.  Measured peak per ln C(k, .) entry of a
# pure-DP bound at k = 1e6 and eps = 0.001: 207 B at eps_g = 1 (its
# (c, w) pairs 130 B, the walk's terms 38 B; the row's build peaks at
# 84 B and leaves 39 B), 245 B at eps_g = -1001, where the walk keeps
# every term; a BR bound 249 B at k = 2e4.  So a row of 4e6 entries
# stays near 1 GB, and a larger k is refused before it is built
_MAX_K = 4_000_000
# largest (k - m + 1)(m + 1) a query accepts: one walk keeps a term per
# BR row and pure-DP pair, 80.3 B each at peak (the term, its exp for
# fsum, the rows), measured on a walk of 2e7 terms at k = 8942, m = 4471;
# so a walk stays near 1 GB, and every pure-DP or BR query of k <= _MAX_K
# fits
_MAX_TERMS = 12_500_000


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


def grr_params(eps: float, t: float) -> GrrParams:
    """Response probabilities of the (eps, t) two-point pair.

    Stable at both endpoints: t=0 gives q=p=1, t=eps gives q=p=0.
    """
    check_positive("eps", eps)
    if not (0.0 <= t <= eps):
        raise ValueError(f"t must lie in [0, eps]=[0, {eps}], got {t}")
    # q = (1 - e^(t-eps)) / (1 - e^(-eps)), both differences via expm1
    q = math.expm1(t - eps) / math.expm1(-eps)
    p = math.exp(-t) * q
    return GrrParams(eps=eps, t=t, q=q, p=p)


@dataclass(frozen=True)
class CompositionQuery:
    """k homogeneous slots at per-slot budget eps, m of them pure DP.

    The remaining k - m slots are eps-bounded-range.  eps_g is the global
    budget, unrestricted in sign.  k is at most ``_MAX_K`` (4e6), so
    that its ln C(k, .) row fits in memory, and (k - m + 1)(m + 1), the
    terms one walk keeps, at most ``_MAX_TERMS`` (1.25e7).
    """

    k: int
    m: int
    eps: float
    eps_g: float

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.k > _MAX_K:
            raise ValueError(
                f"k must be at most {_MAX_K}, so that its ln C(k, .) row fits, got {self.k}"
            )
        if not isinstance(self.m, int) or not 0 <= self.m <= self.k:
            raise ValueError(f"m must lie in 0..k={self.k}, got {self.m}")
        terms = (self.k - self.m + 1) * (self.m + 1)
        if terms > _MAX_TERMS:
            raise ValueError(
                f"k = {self.k} and m = {self.m} make a walk of (k - m + 1)(m + 1) = {terms}"
                f" terms, above the {_MAX_TERMS} that fit"
            )
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

    The tilts are nondecreasing in ell, so only the ells from the first
    positive tilt to the first at least eps are evaluated: a zero from
    the clip below (ell = 0's sign, as the clip keeps a -0.0), the
    distinct interior tilts, then eps.  Inputs that ``CompositionQuery``
    refuses raise its ValueError.
    """
    CompositionQuery(k=k, m=m, eps=eps, eps_g=eps_g)
    return _candidate_ts(k, m, eps, eps_g)


def _candidate_ts(k: int, m: int, eps: float, eps_g: float) -> list[float]:
    """``mixed_candidate_ts`` on a query already checked."""
    kb = k - m
    if kb == 0:
        return [0.0]
    d = kb + 1
    last = k + m
    # the first ell with a positive tilt lies near m - 1 - eps_g/eps;
    # exact float tests correct the guess
    guess = -eps_g / eps + (m - 1)
    ell = 0 if not guess > 0.0 else last + 1 if not guess < last else math.ceil(guess)
    while ell > 0 and (eps_g + eps * (ell - m)) / d > 0.0:
        ell -= 1
    while ell <= last and not (eps_g + eps * (ell + 1 - m)) / d > 0.0:
        ell += 1
    ts = [max((eps_g + eps * (1 - m)) / d, 0.0)] if ell else []
    prev = None
    for ell in range(ell, last + 1):
        t = (eps_g + eps * (ell + 1 - m)) / d
        if t >= eps:
            ts.append(eps)
            break
        if t != prev:
            ts.append(t)
            prev = t
    return ts


@functools.lru_cache(maxsize=_ROW_CACHE)
def _log_binomial_row(n: int) -> tuple[float, ...]:
    """ln C(n, i) for i = 0..n, each ``log_binomial(n, i)``'s float.

    One lgamma per entry: entry i is lg[n] - lg[i] - lg[n - i] over the
    table lg[i] = lgamma(i + 1), log_binomial's own expression in its
    own order.  The row is not symmetric in floats, so entry n - i is
    read from the table, not copied from entry i.
    """
    lg = list(map(math.lgamma, range(1, n + 2)))
    top = lg[n]
    return tuple([top - a - b for a, b in zip(lg, reversed(lg))])


@functools.lru_cache(maxsize=_ROW_CACHE)
def _dp_pairs(m: int, eps: float) -> tuple[tuple[float, float], ...]:
    """(c, w) for each pure-DP row ell in walk order, ell = m down to 0.

    Row ell (ell of m worst-case slots answer q = e^eps/(1+e^eps)) weighs
    C(m,ell) e^(ell eps) / (1+e^eps)^m; w is its log and c = (m - 2 ell)
    eps its exponent's offset, so c ascends.
    """
    log_norm = m * log1pexp(eps)
    lb_row = _log_binomial_row(m)
    return tuple(
        [((m - 2 * ell) * eps, lb_row[ell] + ell * eps - log_norm) for ell in range(m, -1, -1)]
    )


def _one_row(t: float) -> list[tuple[float, float]]:
    """The rows of every tilt with no BR slot: the one row L = s = 0."""
    return [(0.0, 0.0)]


def _plan(
    k: int, m: int, eps: float, eps_g: float
) -> Callable[[float], list[tuple[float, float]]]:
    """rows: each tilt's own rows (L, s), from what all the call's tilts share.

    At tilt t, BR row i (i slots answer 1-p) weighs
    C(k-m,i) p^(k-m-i) (1-p)^i e^s, s = (k-m) t - i eps, and L = ln(row
    weight) + s.  A pair's exponent eps_g + c - s rises along the pairs
    and as i grows, so a row's walk stops at the first nonnegative
    exponent, and the rows stop at the first one whose first exponent,
    eps_g - m eps - s, is nonnegative.  rows(t) forms ln p and ln(1-p) of
    the tilt's pair (t must lie in [0, eps], and is not checked).  With no
    BR slot, k = m, every tilt has the one row L = s = 0, whose walk stops
    where the row cut would drop it.
    """
    kb = k - m
    if not kb:
        return _one_row
    cut = eps_g - m * eps
    log_denom = log1mexp(-eps)
    lb_row = _log_binomial_row(kb)
    inf = math.inf

    def rows(t: float) -> list[tuple[float, float]]:
        # the (eps, t) pair's ln p and ln(1-p)
        log_p = -t + (log1mexp(t - eps) - log_denom if t < eps else -inf)
        log_1mp = log1mexp(-t) - log_denom if t > 0 else -inf
        out = []
        for i, lb in enumerate(lb_row):
            s = kb * t - i * eps
            if cut - s >= 0.0:
                break
            if kb - i > 0:
                lb += (kb - i) * log_p
            if i > 0:
                lb += i * log_1mp
            if lb != -inf:
                out.append((lb + s, s))
        return out

    return rows


def _walk(
    rows: list[tuple[float, float]], eps_g: float, pairs: Sequence[tuple[float, float]]
) -> float:
    """The sum of e^(L + w) (1 - e^x) over rows and pairs with x = eps_g + c - s < 0.

    Accumulated in log space.  Each exponent is formed as it is read, so
    a row walks the pairs only up to its first nonnegative exponent, and
    fsum rounds once whatever the order.  log1mexp's two branches are
    inline: an exponent below -ln 2 takes log1p(-exp), one in [-ln 2, 0)
    log(-expm1), a nonnegative one ends the row, and a NaN one (an
    overflowed eps) raises in log1mexp.  This is the only walk.
    """
    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    log_half = _LOG_HALF
    terms = []
    for log_row, s in rows:
        for c, w in pairs:
            expo = eps_g + c - s
            if expo < log_half:
                terms.append(log_row + w + log1p(-exp(expo)))
            elif expo < 0.0:
                terms.append(log_row + w + log(-expm1(expo)))
            elif expo >= 0.0:
                break
            else:
                log1mexp(expo)
    return _exp_sum(terms)


def _bounded(
    kb: int, eps: float, eps_g: float, pairs: Sequence[tuple[float, float]], ts: Sequence[float]
) -> tuple[list[tuple[float, float]], float] | None:
    """Each tilt's upper bound U with the tilt, by descending U, and eta's slope.

    The pair cut lives here.  The bases a = eps_g + c are the floats the
    walk forms, and they stop at the first a >= s_hi = kb max(ts), the
    largest s of any row at any tilt: from there every exponent a - s is
    nonnegative, so no walk reads further.  A NaN base fails that test,
    is kept, and leaves no finite bound.

    With j the number of pairs whose base is below a row's s, the row
    adds e^L (A_j - D_j): A_j sums e^w and D_j sums e^(w + a - s) over
    the first j pairs.  D_j is formed as E_j e^(a_(j-1) - s) from the
    prefix sum E_j of e^(w + a - a_(j-1)), so no exponent is positive and
    nothing overflows.  The identity is exact on the floats s, a and w
    that the walk reads; the computed value loses only rounding.  Each
    e^w in A_j carries a few units of roundoff and j of them are added.
    Term p of D_j carries a few units per step of E_j's recurrence, plus
    u (s - a_p) from its exponents, against a size e^w e^(a_p - s); as
    x e^-x <= 1/e, D_j errs by a few units times (j + 1) A_j, whatever
    eps and eps_g are.  So A_j (1 + _ERR_UNIT (j + 2)) in place of A_j
    makes each row's part an upper bound.  s = kb t - i eps is the
    walk's float and j comes from exact comparisons against it.

    e^L is not formed from L.  As q/p = e^t and (1-p)/(1-q) = e^(eps-t),
    row i's C(kb,i) p^(kb-i) (1-p)^i e^s is the Binomial(kb, 1-q) mass
    P_i = C(kb,i) q^(kb-i) (1-q)^i: P_0 = q^kb and P_(i+1) = P_i
    (kb-i)/(i+1) (1-q)/q, one multiply per row.  q = n1/den and (1-q)/q
    = e^(t-eps) n2/n1, with n1 = -expm1(t-eps), n2 = -expm1(-t) and den =
    -expm1(-eps), are each a few units from exact, but for e^(t-eps)'s
    u (eps - t) from its rounded argument.  The masses are carried as M_i
    2^shift: M_0 = e^(kb ln q - shift ln 2) lies in [1, 2), and an M
    above 2^600 moves 2^600 into shift, exactly, with the sum so far.  So
    P_0 may lie far below the normal range, and the masses keep their
    relative accuracy up to their mode whatever kb is.

    The float L that the walk reads differs from ln P_i by the roundings
    of ln C(kb,i) (three lgamma, each at most lg = lgamma(kb+1)), of s
    (magnitude kb eps) and of ln p = -t + ln n1 - ln den and ln(1-p) =
    ln n2 - ln den, taken at most kb times: a few units of lg + kb (eps +
    t + |ln n1| + |ln n2| + 2 |ln den| + 1).  M_0 errs by a few units of
    kb (|ln n1| + |ln den| + 1), and each step of the recurrence by a few
    units plus u (eps - t).  So, with

        sigma = _ERR_UNIT (3 lg + kb (2 eps + t + |ln n1| + |ln n2|
                                      + 3 |ln den| + 4)),

    a row whose M_i is normal has e^L <= P_i e^sigma <= P_i (1 + 2 sigma)
    for sigma <= 1.  At the mode M >= 1, so 2^shift <= 1 from there on;
    past it the masses fall, and only there can an M_i underflow, each
    step then erring by a few 2^-1075 2^shift while the errors carried in
    shrink, and a rescale drops at most 2^-1074 of the sum.  Where 1-q
    itself underflows, q > 1/2 and the rows past the first hold at most
    kb 2^-1073.  So (kb+1)^2 2^-1070, which also takes the underflow of
    each product and of the final scaling by 2^shift, bounds the rest:
    U = (1 + 2 sigma) sum_i P_i (A_j - D_j) + (kb+1)^2 2^-1070 bounds
    the exact sum of e^L (A_j - D_j) over the walk's floats.  Once a
    computed M_i is 0 every later one is, and the rows stop there.  The
    tilts 0 and eps have one row, L = 0 and s = +-0 at mass 1, and U is
    its part.

    eta bounds the walk's relative error.  A term's log is L + w +
    ln(1 - e^(a-s)), three parts of one sign (L, a ln-probability, lies
    above 0 only by rounding, at most lam = the largest sigma), and each
    operation errs by a few units times the magnitudes it adds: the term
    errs by a few units times |ln term| + lam.  The shift by the top
    term, the exps, fsum and the final exp add a few units more.
    Weighted by x = term/top, with x ln(1/x) <= 1/e, the sum over n terms
    errs by a few units times |ln sum| + n + lam.  A walk that exceeds d
    >= _PRUNE_FLOOR has |ln sum| <= |ln d| + lam + ln n.  So with n =
    (kb+1) times the number of pairs kept, eta(d) = _ERR_UNIT (|ln d| + n
    + lam) bounds its error, and U (1 + eta(d)) < d proves the walk below
    d.  The slope returned is n + lam.

    A tilt with no row that reads a pair walks to exactly 0 and is left
    out.  None where any U is not finite, or where sigma exceeds 1 (kb
    eps above about 3e13): then every tilt is walked.
    """
    s_hi = kb * max(ts)
    bases = []
    for c, _ in pairs:
        a = eps_g + c
        if a >= s_hi:
            break
        bases.append(a)
    if not bases:
        return [], 0.0
    exp, expm1, log = math.exp, math.expm1, math.log
    a_hi, e_sum = [0.0], [0.0]
    acc = e = 0.0
    prev = bases[0]
    for j, (a, (_, w)) in enumerate(zip(bases, pairs), 1):
        ew = exp(w)
        acc += ew
        e = e * exp(prev - a) + ew
        prev = a
        a_hi.append(acc * (1.0 + _ERR_UNIT * (j + 2)))
        e_sum.append(e)
    cut = bases[0]
    den = -expm1(-eps)
    log_den = log(den)
    sigma_0 = _ERR_UNIT * (3.0 * math.lgamma(kb + 1) + kb * (2.0 * eps - 3.0 * log_den + 4.0))
    tiny = (kb + 1.0) * (kb + 1.0) * 2.0**-1070
    lam = 0.0
    order = []
    for t in ts:
        if t == 0.0 or t == eps:
            # one row, L = 0 and s = +-0, at mass 1
            if not cut < 0.0:
                continue
            j = bisect_left(bases, 0.0)
            u = a_hi[j] - e_sum[j] * exp(bases[j - 1])
        else:
            s_0 = s = kb * t
            j = bisect_left(bases, s)
            if not j:
                continue
            n1, n2 = -expm1(t - eps), -expm1(-t)
            log_n1 = log(n1)
            sigma = sigma_0 - _ERR_UNIT * kb * (log_n1 + log(n2) - t)
            if not sigma <= 1.0:
                return None
            # q^kb = mass 2^shift with mass in [1, 2), and (1-q)/q
            log_mass = kb * (log_n1 - log_den)
            shift = math.floor(log_mass / _LN2)
            mass = exp(log_mass - shift * _LN2)
            ratio = exp(t - eps) * n2 / n1
            u = mass * (a_hi[j] - e_sum[j] * exp(bases[j - 1] - s))
            for i in range(1, kb + 1):
                mass = mass * (kb - i + 1) / i * ratio
                if mass > _RESCALE:
                    mass *= 1.0 / _RESCALE
                    u *= 1.0 / _RESCALE
                    shift += _RESCALE_BITS
                elif not mass:
                    break
                s = s_0 - i * eps
                while j and bases[j - 1] >= s:
                    j -= 1
                if not j:
                    break
                u += mass * (a_hi[j] - e_sum[j] * exp(bases[j - 1] - s))
            u = math.ldexp(u, shift) * (1.0 + 2.0 * sigma) + tiny
            lam = max(lam, sigma)
        if not u < math.inf:
            return None
        order.append((u, t))
    order.sort(key=lambda ut: ut[0], reverse=True)
    return order, (kb + 1) * len(bases) + lam


def _exp_sum(terms: list[float]) -> float:
    """exp(ln sum e^v) over terms, 0 for none; fsum rounds once, whatever the order."""
    if not terms:
        return 0.0
    top = max(terms)
    return math.exp(top + math.log(math.fsum([math.exp(v - top) for v in terms])))


def _max_sum(k: int, m: int, eps: float, eps_g: float) -> float:
    """The largest sum over the candidate tilts, walking only tilts that can be it.

    Tilts are walked in descending bound U, until U (1 + eta(best)) is
    below the best sum so far: no tilt left can exceed it, so the float
    returned is the full maximum's.  Only a walked tilt forms its rows.
    The one fallback walks every tilt: where there is one candidate (pure
    DP among them) and where ``_bounded`` finds no finite bound.  k eps
    must be finite, as ``CompositionQuery`` requires.
    """
    ts = _candidate_ts(k, m, eps, eps_g)
    rows = _plan(k, m, eps, eps_g)
    pairs = _dp_pairs(m, eps)
    found = _bounded(k - m, eps, eps_g, pairs, ts) if len(ts) > 1 else None
    if found is None:
        return max([_walk(rows(t), eps_g, pairs) for t in ts])
    order, slope = found
    best = 0.0
    for u, t in order:
        if best >= _PRUNE_FLOOR:
            if u * (1.0 + _ERR_UNIT * (slope + abs(math.log(best)))) < best:
                break
        best = max(best, _walk(rows(t), eps_g, pairs))
    return best


def delta_opt_dp(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold composition of pure eps-DP mechanisms.

    The mixed bound at m = k: tilt-free, one walk of the one row L = s = 0.
    """
    CompositionQuery(k=k, m=k, eps=eps, eps_g=eps_g)
    return _max_sum(k, k, eps, eps_g)


def delta_opt_br_nonadaptive(k: int, eps: float, eps_g: float) -> float:
    """Smallest delta for k-fold non-adaptive composition of eps-BR slots.

    The mixed bound at m = 0: all slots share one tilt t, and the maximum
    over t is attained at one of the k+1 stationary candidates.
    """
    CompositionQuery(k=k, m=0, eps=eps, eps_g=eps_g)
    return _max_sum(k, 0, eps, eps_g)


def delta_opt_mixed(query: CompositionQuery) -> float:
    """Smallest delta for m pure-DP slots composed with k-m BR slots.

    The maximum of the per-tilt sum over the stationary candidates; at
    m = k it returns delta_opt_dp's value and at m = 0
    delta_opt_br_nonadaptive's, bit for bit.
    """
    return _max_sum(query.k, query.m, query.eps, query.eps_g)


def _pure_slots(bound: str, k: int, m: int | None) -> int:
    """The pure-DP slot count of the named bound: k for "dp", 0 for "br", m for "mixed".

    "mixed" requires m, and "dp" and "br", which fix it, refuse it.
    """
    if bound not in ("dp", "br", "mixed"):
        raise ValueError(f"unknown bound {bound!r}")
    if bound == "mixed" and m is None:
        raise ValueError("bound='mixed' requires m")
    if bound != "mixed" and m is not None:
        raise ValueError(f"m is for bound='mixed' only, got m={m} with bound={bound!r}")
    return {"dp": k, "br": 0}.get(bound, m)


def _bound_curve(
    bound: str, k: int, eps: float, m: int | None
) -> Callable[[float], float]:
    """eps_g -> delta of the named bound, "dp", "br" or "mixed" (with m).

    Each is the mixed bound at its m (see ``_pure_slots``), which at m = k
    and m = 0 is delta_opt_dp's and delta_opt_br_nonadaptive's, bit for bit.
    """
    m = _pure_slots(bound, k, m)
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
    evaluating it; the midpoints and the result stay the same.  That full
    bound is ``_max_sum``'s bound-then-walk maximum, and it is exactly 0
    at k eps, so the bracket's search takes its zero-end step.  A
    midpoint's own test walks from the same plan and kernel, and keeps
    the candidate order: ordering it by bound measured slower.
    """
    check_delta("delta_target", delta_target)
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    m = _pure_slots(bound, k, m)
    CompositionQuery(k=k, m=m, eps=eps, eps_g=0.0)
    pairs = _dp_pairs(m, eps)

    def ok(eg: float) -> bool:
        rows = _plan(k, m, eps, eg)
        return all(
            _walk(rows(t), eg, pairs) <= delta_target for t in _candidate_ts(k, m, eps, eg)
        )

    if ok(0.0):
        return 0.0
    f = lambda eg: _max_sum(k, m, eps, eg)
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
        zero_end=True,
    )
    # tol=0 stops at adjacent floats: no positive width is below ulp(0)
    tol_abs = max(tol, math.ulp(0.0))
    return solve(
        ok, 0.0, k * eps, tol_abs=tol_abs, tol_rel=0.0, doublings=0, predict=predict
    )
