"""Stable scalar primitives shared by the accounting and mechanism modules.

Log-space combinatorics, accurate log/exp differences, the standard normal
CDF, the pool-adjacent-violators projection used by the order-constrained
noise mechanism, and the package's only one-dimensional solvers: one
halving loop (``halve``, fronted by the sign-change root-finder
``bisect``), one doubling loop (``expand``) and one golden-section search
(``golden_max``).  Every root search returns the feasible end of its
final bracket, never a midpoint.

Probabilities that can underflow are carried as natural logs throughout the
package; ``-inf`` encodes an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "LogWeight",
    "Bracket",
    "BracketError",
    "ConvergenceError",
    "log_binomial",
    "log1mexp",
    "log1pexp",
    "logsumexp",
    "std_normal_cdf",
    "bisect",
    "pava_monotone_nonneg",
]
# halve, expand and golden_max stay out of __all__: they run inside the
# public solvers, whose evaluation counts bench/tracer.py reads from the
# direct caller of each traced call.

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


@dataclass(frozen=True)
class Bracket:
    """An interval handed to ``bisect`` or ``halve``.

    Halving stops at width max(tol_abs, tol_rel * |hi|), or once the ends
    are adjacent floats; max_iter bounds the halvings.
    """

    lo: float
    hi: float
    tol_abs: float = 1e-9
    max_iter: int = 200
    tol_rel: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.tol_abs >= 0 and self.tol_rel >= 0):
            raise ValueError("tol_abs and tol_rel must be nonnegative")
        if not self.tol_abs + self.tol_rel > 0:
            raise ValueError("tol_abs or tol_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def halve(ok: Callable[[float], bool], bracket: Bracket) -> float:
    """The ``ok`` end of a bracket shrunk by deterministic halving.

    ok must be monotone, false at bracket.lo and true at bracket.hi;
    neither end is evaluated.  Returns the final hi, where ok holds.
    Raises ConvergenceError only if max_iter halvings leave the bracket
    wider than its tolerance and its ends are not yet adjacent floats.
    """
    lo, hi = bracket.lo, bracket.hi
    tol_abs, tol_rel = bracket.tol_abs, bracket.tol_rel
    halvings = 0
    while hi - lo > tol_abs and hi - lo > tol_rel * abs(hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if halvings == bracket.max_iter:
            raise ConvergenceError(
                f"bisection still at width {hi - lo} after {halvings} halvings"
            )
        halvings += 1
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def expand(
    ok: Callable[[float], bool], lo: float, hi: float, max_doublings: int
) -> tuple[float, float]:
    """Double hi (moving lo up to the old hi) until ok(hi) holds.

    ok(hi) is tested before each doubling, at most max_doublings times;
    BracketError if it never holds.  The returned (lo, hi) is the last
    failed and the first passing point.
    """
    for _ in range(max_doublings):
        if ok(hi):
            return lo, hi
        lo, hi = hi, hi * 2.0
    raise BracketError(f"no point up to {hi} passes after {max_doublings} doublings")


def bisect(f: Callable[[float], float], bracket: Bracket) -> float:
    """Root of f on the bracket by deterministic interval halving.

    Verifies the sign change up front (BracketError otherwise) and raises
    ConvergenceError if max_iter halvings do not shrink the interval to
    its tolerance.  Exact zeros of f at an end are returned as they are;
    otherwise the result is the end on bracket.hi's side of the root,
    where f has the sign of f(hi) or is zero.
    """
    flo, fhi = f(bracket.lo), f(bracket.hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise BracketError("f is NaN at a bracket endpoint")
    if flo == 0.0:
        return bracket.lo
    if fhi == 0.0:
        return bracket.hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    sign = math.copysign(1.0, fhi)
    return halve(lambda x: sign * f(x) >= 0.0, bracket)


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
