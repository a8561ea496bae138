"""Stable scalar primitives shared by the accounting and mechanism modules.

Log-space combinatorics, accurate log/exp differences, the standard normal
CDF, the pool-adjacent-violators projection used by the order-constrained
noise mechanism, the package's only one-dimensional solvers (one
bracketing root search, ``solve``, and one golden-section search,
``golden_max``) and the parameter checks every module shares.  Every root
search returns the feasible end of its final bracket, never a midpoint.

Probabilities that can underflow are carried as natural logs throughout the
package; ``-inf`` encodes an exact zero.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "LogWeight",
    "BracketError",
    "ConvergenceError",
    "log_binomial",
    "log1mexp",
    "log1pexp",
    "logsumexp",
    "std_normal_cdf",
    "pava_monotone_nonneg",
]
# solve, golden_max and the check_* helpers stay out of __all__: the
# solvers run inside the public ones, whose evaluation counts
# bench/tracer.py reads from the direct caller of each traced call, and a
# traced check would cost more than the call it guards.

# Natural-log scale value; -inf encodes an exact zero weight.
LogWeight = float

_LOG_HALF = -math.log(2.0)


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


def logsumexp(values: Iterable[float]) -> float:
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


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc; accurate in both tails."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


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
    max_iter: int,
    doublings: int,
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
    """
    for _ in range(doublings):
        if ok(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        if doublings:
            raise BracketError(f"no point up to {hi} passes after {doublings} doublings")
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
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    if v.size == 0:
        return v.copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("input contains non-finite values")

    # Block stack of (mean, count); a violation is a left mean below its
    # right neighbour, merged by weighted averaging.
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
