"""Stable scalar primitives shared by the accounting and mechanism modules.

Log-space combinatorics, accurate log/exp differences, the standard normal
CDF, the pool-adjacent-violators projection used by the order-constrained
noise mechanism, the package's only one-dimensional solvers (one
bracketing root search, ``solve``, and one golden-section search,
``golden_max``) and the parameter checks every module shares.  Every root
search returns the feasible end of its final bracket, never a midpoint.

A root search may also be given a predicted bracket: Illinois-type false
position on ln f - ln target finds the root in a few evaluations of the
caller's value f, and two probes a few noise bands either side of it
give measured points a < b where f is above the target at a and below it
at b by more than twice the caller's bound on f's rounding error.  As
the exact bound is monotone, every point beyond a (or b), moved outward
by the caller's bound on the error in x itself, has a known answer, and
the halving takes those midpoints without evaluating them.  It walks the
same midpoints either way and returns the same float.

Probabilities that can underflow are carried as natural logs throughout the
package; ``-inf`` encodes an exact zero.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "LogWeight",
    "BracketError",
    "ConvergenceError",
    "log_binomial",
    "log1mexp",
    "log1pexp",
    "std_normal_cdf",
    "pava_monotone_nonneg",
]
# solve, golden_max, log_recip and the check_* helpers stay out of
# __all__: the solvers run inside the public ones, whose evaluation counts
# bench/tracer.py reads from the direct caller of each traced call, and a
# traced helper would cost more than the call it serves.

# Natural-log scale value; -inf encodes an exact zero weight.
LogWeight = float

_LOG_HALF = -math.log(2.0)
# above the ~2,100 halvings from 2^1024 down to adjacent floats near 0
_MAX_HALVINGS = 2200
# 64 units of roundoff: the unit in which callers of _predicted_bracket
# state their error bounds, the 64 a margin over the few roundings each
# bound counts
_ERR_UNIT = 64.0 * sys.float_info.epsilon
# false-position steps before _predicted_bracket gives up, and how many
# noise bands from the converged root its probes sit
_PREDICT_STEPS = 60
_PROBE_BANDS = 4.0


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def log_binomial(n: int, i: int) -> LogWeight:
    """ln C(n, i) via log-gamma.

    Raises ValueError unless 0 <= i <= n.
    """
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"binomial index out of range: i={i}, n={n}")
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def log1mexp(x: float) -> float:
    """ln(1 - e^x) for x <= 0.

    Branches at -ln 2: log1p(-exp(x)) below, log(-expm1(x)) above, which
    keeps full relative accuracy at both ends. x = 0 maps to -inf.
    """
    if math.isnan(x) or x > 0:
        raise ValueError(f"log1mexp requires x <= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x < _LOG_HALF:
        return math.log1p(-math.exp(x))
    return math.log(-math.expm1(x))


def log1pexp(x: float) -> float:
    """ln(1 + e^x), overflow-safe for large positive x."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; accurate in both tails."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def log_recip(x: float) -> float:
    """ln(1/x) for x > 0, finite for every positive float.

    Takes math.log(1.0 / x), and -math.log(x) only where 1/x overflows
    (x below about 5.6e-309), so every finite value keeps its float.
    """
    inv = 1.0 / x
    return -math.log(x) if inv == math.inf else math.log(inv)


def check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def check_delta(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0,1), got {value}")


def solve(
    ok: Callable[[float], bool],
    lo: float,
    hi: float,
    *,
    tol_abs: float,
    tol_rel: float,
    max_iter: int = _MAX_HALVINGS,
    doublings: int,
    predict: Callable[[float, float], tuple[float, float]] | None = None,
) -> float:
    """The ``ok`` end of a bracket found by doubling and shrunk by halving.

    ok must be monotone and false at lo, which is never evaluated.  With
    doublings = 0, ok(hi) is taken to hold and not evaluated either;
    otherwise ok(hi) is tested before each doubling of hi (lo moving up
    to the old hi), at most doublings times, and BracketError is raised
    if it never holds.  Halving then stops at width
    max(tol_abs, tol_rel * |hi|), or once the ends are adjacent floats,
    and returns the final hi, where ok holds.  ConvergenceError if
    max_iter halvings leave the bracket wider than that.

    predict, given the bracket left after doubling, returns a < b such
    that ok is known false at every point <= a and true at every point
    >= b (``_predicted_bracket``: measured points where the value behind
    ok clears the target by twice the caller's rounding bound, moved
    outward by twice its bound on the error in x).  The halving then
    takes a midpoint outside (a, b) without calling ok, so it walks the
    midpoints it would walk without predict and returns the same float,
    in as many halvings.
    """
    for _ in range(doublings):
        if ok(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        if doublings:
            raise BracketError(f"no point up to {lo} passes after {doublings} doublings")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket endpoints must be finite")
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    if not (tol_abs >= 0 and tol_rel >= 0):
        raise ValueError("tol_abs and tol_rel must be nonnegative")
    if not tol_abs + tol_rel > 0:
        raise ValueError("tol_abs or tol_rel must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    a, b = (-math.inf, math.inf) if predict is None else predict(lo, hi)
    halvings = 0
    while hi - lo > tol_abs and hi - lo > tol_rel * abs(hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if halvings == max_iter:
            raise ConvergenceError(
                f"bisection still at width {hi - lo} after {halvings} halvings"
            )
        halvings += 1
        if mid >= b or (mid > a and ok(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def _predicted_bracket(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    err: Callable[[float, float], float],
    x_err: Callable[[float], float],
) -> tuple[float, float]:
    """Measured points a < b around the root of f(x) = target in (lo, hi).

    f is the computed value behind a test ``f(x) <= target``, with
    target > 0, and the caller's two bounds describe its rounding: for
    one nonincreasing exact F, the computed f(x) lies within err(x, f(x))
    of F at some point within x_err(x) of x, and both bounds change
    little across a few x_err.  A point p with f(p) - target >
    2 err(p, f(p)) then has F(p - x_err) above the target by more than
    one err, so to first order every x <= a = p - 2 x_err(p) computes
    f(x) > target; symmetrically, f(q) below the target by more than
    2 err gives f(x) <= target at every x >= b = q + 2 x_err(q).  Where
    no evaluated point clears its band on a side, that side stays
    infinite and ``solve`` evaluates its midpoints as usual; so do both
    sides if the points contradict each other (a >= b).

    Illinois-type false position (Dowell & Jarratt, BIT 1971) on
    g = ln f - ln target runs inside (lo, hi), never at either end.  It
    bisects while an end's value is unknown or f there is 0, and after
    three steps in a row on one side, which a flat stretch of ln f
    causes; a step that replaces the same end as the last one scales
    the other end's g by Anderson & Bjorck's 1 - g/g_replaced (by 1/2
    when that is not positive).  It stops at the first point within the
    noise band, or after _PREDICT_STEPS evaluations.  The secant slope
    through the last two points then sets up to two probes _PROBE_BANDS
    bands either side of that point, each made only where it would
    narrow (a, b).
    """
    ln_target = math.log(target)
    a, b = -math.inf, math.inf
    # ends of the false-position bracket, g NaN until evaluated; run
    # counts the steps in a row that landed on the side of `side`
    xa, ga, xb, gb = lo, math.nan, hi, math.nan
    side, run = 0, 0
    last = None

    def measure(x: float) -> tuple[float, float, bool]:
        nonlocal a, b
        fx = f(x)
        band = 2.0 * err(x, fx)
        if fx - target > band:
            a = max(a, x - 2.0 * x_err(x))
        elif target - fx > band:
            b = min(b, x + 2.0 * x_err(x))
        g = math.log(fx) - ln_target if fx > 0.0 else -math.inf
        return fx, g, abs(fx - target) <= band

    def scale(g: float, g_old: float) -> float:
        m = 1.0 - g / g_old if g_old else 0.5
        return m if m > 0.0 else 0.5

    for _ in range(_PREDICT_STEPS):
        if run < 3 and 0.0 < ga < math.inf and -math.inf < gb < 0.0:
            x = xb - gb * (xb - xa) / (gb - ga)
        else:
            x = 0.5 * (xa + xb)
        if not xa < x < xb:
            break
        fx, g, noisy = measure(x)
        prev, last = last, (x, g)
        new_side = 1 if fx > target else -1
        run = run + 1 if new_side == side else 1
        side = new_side
        if side > 0:
            if run > 1:
                gb *= scale(g, ga)
            xa, ga = x, g
        else:
            if run > 1:
                ga *= scale(g, gb)
            xb, gb = x, g
        if noisy:
            # the band in ln f is about 2 err / target; the secant slope
            # through the last two points turns it into a distance in x
            slope = math.nan if prev is None else (g - prev[1]) / (x - prev[0])
            if -math.inf < slope < 0.0:
                step = _PROBE_BANDS * 2.0 * err(x, fx) / (target * -slope)
                for probe in (x - step, x + step):
                    if lo < probe < hi and a < probe < b:
                        measure(probe)
            break
    return (a, b) if a < b else (-math.inf, math.inf)


def golden_max(f: Callable[[float], float], lo: float, hi: float, rounds: int) -> float:
    """Largest value of f seen by golden-section search on [lo, hi].

    Evaluates both ends and the two interior points, then runs the given
    number of rounds, each shrinking the bracket toward the larger
    interior value.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    best = max(f(a), f(b), fc, fd)
    for _ in range(rounds):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        best = max(best, fc, fd)
    return best


def pava_monotone_nonneg(values: "np.ndarray | Iterable[float]") -> np.ndarray:
    """Euclidean projection onto {x_1 >= x_2 >= ... >= x_n >= 0}.

    Pool-adjacent-violators for the nonincreasing cone, then a clamp at
    zero; the two steps compose to the exact projection onto the
    intersection. O(n) stack implementation.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("input contains non-finite values")

    # Block stack of (mean, count); a violation is a left mean below its
    # right neighbour, merged by weighted averaging.
    means: list[float] = []
    counts: list[int] = []
    for x in v.tolist():
        means.append(x)
        counts.append(1)
        while len(means) >= 2 and means[-2] < means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    return np.maximum(np.repeat(means, counts), 0.0)
