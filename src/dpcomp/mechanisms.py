"""Randomized release mechanisms for histograms.

All randomness flows through RngState, which derives independent named
substreams from a single integer seed.  Samplers are inverse-CDF
transforms of raw uniforms, so a run is reproducible byte for byte from
the seed alone across platforms; nothing here touches global RNG state.

The release pipeline pairs an iterated exponential-mechanism selection
(each round is both pure-DP and bounded-range, so the set-wise
accountant can price it either way) with Gaussian count noising
projected onto the requested ordering's monotone nonnegative cone.  The
truncated-Gaussian release covers the unknown-domain case: counts are
padded to a public domain-size cap, noised within a hard window, and
published only above a threshold that silences every count one user
could have created.

Releases run on a histogram's canonical columns (ids, float64 counts and
id ranks, sorted once by count descending then id), so a request costs
array passes rather than a Python sort.  Each selection round draws
Gumbels only for the prefix of elements that can still win it; the
draws it skips could not change the choice, so every seeded output is
the one a full-width draw gives.
"""

from __future__ import annotations

import math
import numbers
import types
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

from .calibration import HistogramSpec, _gaussian_rho
from .numerics import check_delta, check_positive, pava_monotone_nonneg, solve, std_normal_cdf
from .setwise import Cdp, Zcdp

__all__ = [
    "Histogram",
    "histogram_from_counts",
    "histogram_from_text",
    "RngState",
    "sample_laplace",
    "sample_gaussian",
    "sample_gumbel",
    "exp_mech_topk",
    "ls_noise",
    "topk_release",
    "solve_truncation_level",
    "TruncGaussConfig",
    "ReleaseEntry",
    "trunc_gauss_release",
    "known_lap_topk",
    "known_gauss",
    "gauss_cdp_guarantee",
]

_MIN_UNIFORM = 2.0**-64
_MAX_UNIFORM = 1.0 - 2.0**-53  # largest value Generator.random returns
# largest |draw| per unit scale: sample_gaussian's at u = 2^-64, and
# sample_laplace's at |u - 1/2| just below 1/2, where log1p(-2|u - 1/2|)
# is ln 2^-53
_GAUSS_REACH = float(-ndtri(_MIN_UNIFORM))
_LAPLACE_REACH = 53.0 * math.log(2.0)
# how far a truncation window's slack may miss its target delta
_WINDOW_RESIDUAL = 1e-9

# Width of the interval holding every Gumbel value -ln(-ln u) that
# sample_gumbel can return: _uniforms keeps u in [2^-64, 1 - 2^-53], and
# the transform is increasing, so the values lie in [-3.79, 36.74].
#
# Pruning bound.  In one selection round the remaining elements are in
# canonical order, so their scores s_0 >= s_1 >= ... are nonincreasing.
# The round picks the first index of the maximum of s_i + g_i.  If
#     s_i < s_0 * (1 - 2^-40) - (_GUMBEL_SPAN + 1)
# then s_i + g_i < s_0 + g_0 for every pair of draws: the exact gap is
# above 1 + 2^-40 * s_0, while the two float sums, the computed cut and
# the computed Gumbel values are each off by a few ulps of s_0 + 37 at
# most.  So element i can neither win nor tie, and the argmax over the
# elements at or above the cut equals the argmax over all of them, with
# the same first-index tie-break.  A PCG64 gen.random(c) returns the first
# c values of gen.random(n), so drawing only for that prefix reproduces
# the full-width round exactly.
_GUMBEL_SPAN = float(
    np.log(-np.log(_MIN_UNIFORM)) - np.log(-np.log(_MAX_UNIFORM))
)
_CUT_SCALE = 1.0 - 2.0**-40


class _Columns(NamedTuple):
    """A histogram in canonical release order: count descending, id ascending.

    ids is an object array, so a release gathers its ids in one indexing
    pass and zips the gathered array straight into its (id, value) pairs;
    that touches each id string about half as often as a list gather.
    id_rank holds each element's position in id order, so sorting by
    (value, id_rank) orders ties by id without comparing strings.
    """

    ids: np.ndarray
    counts: np.ndarray
    id_rank: np.ndarray


def _descending(values: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """Positions ordering values descending, ties by id ascending.

    Without ties that order is unique, so one unstable argsort finds it;
    only values that tie pay for the lexsort on (value, id_rank).
    """
    order = np.argsort(-values)
    ranked = values[order]
    if np.any(ranked[1:] == ranked[:-1]):
        return np.lexsort((id_rank, -values))
    return order


def _check_k(k: int, d: int) -> None:
    if not (isinstance(k, int) and 1 <= k <= d):
        raise ValueError(f"k must be an integer in [1, {d}], got {k}")


def _noise_scale(formula: str, scale: float, reach: float, **operands: float) -> float:
    """A noise scale formed from finite positive operands, or a ValueError
    naming them where the scale overflowed to inf or underflowed to 0, or
    where its largest draw, reach times the scale, overflows to inf."""
    if not 0.0 < scale * reach < math.inf:  # reach >= 1, so 0 only where the scale is
        fate = "underflows to 0" if scale == 0.0 else "overflows to inf"
        if 0.0 < scale < math.inf:
            fate = f"times {reach:.4g}, its largest draw, {fate}"
        named = ", ".join(f"{name} = {value}" for name, value in operands.items())
        raise ValueError(f"{formula} {fate} at {named}")
    return scale


@dataclass(frozen=True)
class Histogram:
    """Element counts keyed by identifier, plus their sensitivity profile.

    The spec is optional for plain counting, but any mechanism that
    prices privacy needs it: tau bounds one user's effect on a count and
    d_bar caps how many entries the histogram may carry.  The histogram
    keeps its own read-only copy of the counts, as floats, so later
    changes to the caller's mapping reach neither its checks nor its
    releases.  A count must be a real number (an int, a float, or another
    numbers.Real) and not a bool; each owned count equals float(count)
    exactly, and an int beyond the float range is a ValueError.
    """

    counts: Mapping[str, float]
    spec: Optional[HistogramSpec] = None

    def __post_init__(self) -> None:
        # copying a dict is many times faster than rebuilding it, and
        # float() returns an exact float unchanged
        if {float}.issuperset(map(type, self.counts.values())):
            owned = dict(self.counts)
            values = np.fromiter(owned.values(), dtype=np.float64, count=len(owned))
        else:
            values = _float_column(self.counts)
            owned = dict(zip(self.counts, values.tolist()))
        valid = np.isfinite(values) & (values >= 0)
        if not (valid.all() and {str}.issuperset(map(type, owned))):
            # name the first offending entry, in insertion order
            for key, count in owned.items():
                if not isinstance(key, str):
                    raise TypeError(f"element ids must be strings, got {key!r}")
                if not (math.isfinite(count) and count >= 0):
                    raise ValueError(f"count for {key!r} must be finite and >= 0")
        if self.spec is not None and len(owned) > self.spec.d_bar:
            raise ValueError(
                f"{len(owned)} entries exceed the public cap {self.spec.d_bar}"
            )
        object.__setattr__(self, "counts", types.MappingProxyType(owned))

    def __reduce__(self):
        return (Histogram, (dict(self.counts), self.spec))

    @cached_property
    def _columns(self) -> _Columns:
        # built on first use, not on construction, so building a histogram
        # stays one pass over the counts
        ids = list(self.counts)
        counts = np.fromiter(self.counts.values(), dtype=np.float64, count=len(ids))
        id_rank = np.empty(len(ids), dtype=np.int64)
        id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        # counts tie often, so they go straight to the lexsort
        order = np.lexsort((id_rank, -counts))
        return _Columns(np.array(ids, dtype=object)[order], counts[order], id_rank[order])

    def require_spec(self) -> HistogramSpec:
        if self.spec is None:
            raise ValueError("this operation needs a histogram sensitivity spec")
        return self.spec

    def count(self, element: str) -> float:
        return self.counts.get(element, 0.0)

    def sorted_items(self) -> list[tuple[str, float]]:
        """Items in canonical release order: count descending, id ascending."""
        cols = self._columns
        return list(zip(cols.ids, cols.counts.tolist()))

    def restrict(self, elements: Iterable[str]) -> "Histogram":
        return Histogram(
            counts={e: self.count(e) for e in elements}, spec=self.spec
        )

    def __len__(self) -> int:
        return len(self.counts)


def _is_count_type(kind: type) -> bool:
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _float_column(counts: Mapping[str, object]) -> np.ndarray:
    """The counts as float64 in one pass, each equal to float(count).

    Names the first count, in insertion order, that is not a real number
    (TypeError) or lies beyond the float range (ValueError).
    """
    if not all(map(_is_count_type, set(map(type, counts.values())))):
        for key, count in counts.items():
            if not _is_count_type(type(count)):
                raise TypeError(f"count for {key!r} must be a real number, got {count!r}")
    try:
        return np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    except OverflowError:
        for key, count in counts.items():
            try:
                float(count)
            except OverflowError:
                raise ValueError(f"count for {key!r} is beyond the float range") from None
        raise


def histogram_from_counts(
    counts: Mapping[str, Union[int, float]], spec: Optional[HistogramSpec] = None
) -> Histogram:
    return Histogram(counts=counts, spec=spec)


def histogram_from_text(
    tokens: Iterable[str], spec: Optional[HistogramSpec] = None
) -> Histogram:
    return histogram_from_counts(Counter(tokens), spec=spec)


@dataclass(frozen=True)
class RngState:
    """Root seed plus derivation of independent substreams.

    substream(i) is deterministic in (seed, derivation path, i) and
    independent across i, so mechanisms can split randomness by role
    (selection round, count noise, bootstrap) without coordinating draw
    counts.  derive(j) forks a child state one level down the path, so
    its substreams and those of every other child are distinct.
    substream(j) is that child's own generator(), so a caller uses the
    index j either for a substream or for a child, not both.
    """

    seed: int
    _path: tuple[int, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, index: int) -> np.random.Generator:
        return self.derive(index).generator()

    def derive(self, index: int) -> "RngState":
        if index < 0:
            raise ValueError(f"derivation index must be >= 0, got {index}")
        return RngState(seed=self.seed, _path=self._path + (index,))


def _uniforms(gen: np.random.Generator, size: int) -> np.ndarray:
    # keep away from 0 so inverse CDFs stay finite
    u = gen.random(size)
    return np.maximum(u, _MIN_UNIFORM, out=u)


def sample_laplace(gen: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """Laplace(0, scale) by inverting the CDF of one uniform per draw."""
    check_positive("scale", scale)
    u = _uniforms(gen, size) - 0.5
    mag = np.minimum(np.abs(u), np.nextafter(0.5, 0.0))
    return -scale * np.sign(u) * np.log1p(-2.0 * mag)


def sample_gaussian(gen: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """N(0, scale^2) via the normal quantile of one uniform per draw."""
    check_positive("scale", scale)
    return scale * ndtri(_uniforms(gen, size))


def sample_gumbel(gen: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """Gumbel(0, scale) via -scale * ln(-ln u), computed in place."""
    check_positive("scale", scale)
    g = _uniforms(gen, size)
    np.log(g, out=g)
    np.negative(g, out=g)
    np.log(g, out=g)
    return np.multiply(g, -scale, out=g)


def exp_mech_topk(
    hist: Histogram, k: int, eps_per_round: float, rng: RngState
) -> list[str]:
    """k rounds of exponential-mechanism selection without replacement.

    Scores are eps * count / tau with tau from the histogram spec;
    counts move by at most tau between neighbors and only upward for the
    affected user, so the monotone variant applies and each round is
    eps-DP as well as eps-bounded-range.  Round r draws its Gumbel
    perturbations from substream r.  eps=inf degenerates to the
    deterministic canonical order (count descending, id ascending).

    A round costs its substream's generator plus a few array passes over
    the round's candidates, with no per-element Python work: about 24 us
    a round at d = 1e3 with eps = 0.3 (2 vCPUs, Python 3.11, numpy 2.4),
    13 us of it the generator's seeding.
    """
    _check_k(k, len(hist))
    if not (eps_per_round > 0):
        raise ValueError(f"eps_per_round must be positive, got {eps_per_round}")
    tau = hist.require_spec().tau
    cols = hist._columns
    if math.isinf(eps_per_round):
        return cols.ids[:k].tolist()
    with np.errstate(over="ignore"):  # an overflowed score is inf, as in float math
        scores = eps_per_round * cols.counts / tau
    negated = -scores  # nondecreasing, for searchsorted
    # the candidates are the remaining elements at or above the round's
    # cut, in canonical order, with their ids in `candidates` and their
    # scores in `live`; the tail from `cursor` on is untouched
    candidates: list[str] = []
    live = scores[:0]
    cursor = 0
    chosen: list[str] = []
    for round_index in range(k):
        top = live[0] if live.size else scores[cursor]
        # the cut never rises, since the top score never does, so the
        # candidate prefix only grows
        cut = top * _CUT_SCALE - (_GUMBEL_SPAN + 1.0)
        end = int(negated.searchsorted(-cut, side="right"))
        if end > cursor:
            candidates += cols.ids[cursor:end].tolist()
            live = np.concatenate((live, scores[cursor:end]))
            cursor = end
        noise = sample_gumbel(rng.substream(round_index), 1.0, size=live.size)
        j = int(np.add(live, noise, out=noise).argmax())
        chosen.append(candidates.pop(j))
        live = np.concatenate((live[:j], live[j + 1 :]))
    return chosen


def ls_noise(
    hist: Histogram, ordering: Sequence[str], sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """Noisy counts consistent with a fixed ordering.

    Adds N(0, (tau*sigma)^2) to each count, then projects onto
    nonincreasing-and-nonnegative in the ordering's coordinates (the
    exact least squares fit).  The ordering must cover the histogram's
    elements exactly once each; the projection is applied whatever the
    noise did, even when heavy pooling results.
    """
    check_positive("sigma", sigma)
    if len(ordering) != len(hist) or set(ordering) != set(hist.counts):
        raise ValueError("ordering must cover the histogram elements exactly")
    tau = hist.require_spec().tau
    return _ls_noise(ordering, [hist.count(element) for element in ordering], tau, sigma, rng)


def _ls_noise(
    ids: Sequence[str], counts: Sequence[float], tau: float, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """``ls_noise``'s release of the counts of ids, in that order, at a
    positive sigma: its callers check the ordering and sigma."""
    scale = _noise_scale("tau*sigma", tau * sigma, _GAUSS_REACH, tau=tau, sigma=sigma)
    noisy = np.array(counts) + sample_gaussian(rng.generator(), scale, size=len(counts))
    projected = pava_monotone_nonneg(noisy)
    return list(zip(ids, projected.tolist()))


def topk_release(
    hist: Histogram, k: int, eps_per_round: float, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """Discovery then release: select k elements, noise their counts.

    Selection runs on the child state derive(0), noising on derive(1),
    so the two phases stay independent under one seed.  Privacy cost:
    k eps-BR rounds plus one Gaussian release at scale sigma over the
    selected counts.
    """
    ids = exp_mech_topk(hist, k, eps_per_round, rng.derive(0))
    check_positive("sigma", sigma)
    counts = [hist.count(element) for element in ids]
    return _ls_noise(ids, counts, hist.require_spec().tau, sigma, rng.derive(1))


def _trunc_rhs(t_level: float, delta0: int, tau: float, sigma: float) -> float:
    # mass the tau-shifted window loses, as a fraction of the window mass;
    # written tail-minus-tail so nothing cancels near 1 when T >> s
    # the window bounds this noise by t_level, so no draw can overflow
    s = _noise_scale("tau*sigma", tau * sigma, 1.0, tau=tau, sigma=sigma)
    num = std_normal_cdf((tau - t_level) / s) - std_normal_cdf(-t_level / s)
    den = std_normal_cdf(t_level / s) - std_normal_cdf(-t_level / s)
    if den == 0.0:
        raise ValueError(
            f"the noise mass of the window [-{t_level}, {t_level}] rounds to 0 "
            f"at scale tau*sigma = {s}"
        )
    return delta0 * num / den


def solve_truncation_level(
    delta0: int, tau: float, sigma: float, delta: float
) -> float:
    """Smallest truncation window T with approximation slack <= delta.

    The slack of the window [count - T, count + T], maximized over the
    delta0 counts one user can shift by up to tau, is decreasing in T
    and equals delta0 / 2 at T = tau exactly.  The slack is measured at
    tau: above delta, the root is bracketed upward from there (doubling
    until the slack fits); otherwise back toward tau / 2.  Both ends of
    the bracket are measured, and the result is its feasible end, so
    _trunc_rhs(T, ...) <= delta.  ValueError when the window's noise
    mass rounds to zero (tau * sigma far above T).
    """
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    check_positive("tau", tau)
    check_positive("sigma", sigma)
    check_delta("delta", delta)

    def fits(t_level: float) -> bool:
        return _trunc_rhs(t_level, delta0, tau, sigma) <= delta

    if not fits(tau):
        lo, hi, doublings = tau, 8.0 * tau * sigma + tau, 60
    else:
        lo, hi, doublings = 0.75 * tau, tau, 0
        for _ in range(60):
            if not fits(lo):
                break
            lo = 0.5 * (lo + 0.5 * tau)
        else:
            raise ValueError("truncation level did not bracket near tau/2")
    tol = 1e-12 * max(1.0, tau * sigma)
    return solve(fits, lo, hi, tol_abs=tol, tol_rel=0.0, doublings=doublings)


@dataclass(frozen=True)
class TruncGaussConfig:
    """Parameters of one truncated-Gaussian histogram release.

    delta is the approximation slack priced into the zCDP guarantee;
    t_level is the truncation window solved for that slack.  Both
    invariants are enforced on construction: the window equation must
    hold to 1e-9 and the window must be wide enough (T > tau/2) that
    shifted supports still overlap.
    """

    delta0: int
    d_bar: int
    tau: float
    sigma: float
    delta: float
    t_level: float

    def __post_init__(self) -> None:
        if self.delta0 < 1 or self.d_bar < 1:
            raise ValueError("delta0 and d_bar must be positive")
        if not (self.tau > 0 and self.sigma > 0):
            raise ValueError("tau and sigma must be positive")
        check_delta("delta", self.delta)
        if not self.t_level > self.tau / 2.0:
            raise ValueError(
                f"t_level must exceed tau/2 = {self.tau / 2.0}, got {self.t_level}"
            )
        residual = abs(
            _trunc_rhs(self.t_level, self.delta0, self.tau, self.sigma) - self.delta
        )
        if residual > _WINDOW_RESIDUAL:
            raise ValueError(
                f"t_level does not solve the window equation (residual {residual:.3g})"
            )

    @classmethod
    def from_target(
        cls, spec: HistogramSpec, sigma: float, delta: float
    ) -> "TruncGaussConfig":
        t_level = solve_truncation_level(spec.delta0, spec.tau, sigma, delta)
        residual = abs(_trunc_rhs(t_level, spec.delta0, spec.tau, sigma) - delta)
        if residual > _WINDOW_RESIDUAL:
            # the solve stops at width 1e-12 * max(1, tau*sigma), too wide
            # where the window's excess over tau, a few tau*sigma, is small
            raise ValueError(
                f"the truncation window cannot be solved at tau*sigma = {spec.tau * sigma}, "
                f"sigma = {sigma}: residual {residual:.3g} above {_WINDOW_RESIDUAL:g}"
            )
        return cls(
            delta0=spec.delta0,
            d_bar=spec.d_bar,
            tau=spec.tau,
            sigma=sigma,
            delta=delta,
            t_level=t_level,
        )

    def guarantee(self) -> Zcdp:
        return Zcdp(delta=self.delta, xi=0.0, rho=_gaussian_rho(self.sigma, self.delta0))

    def window_noise(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n draws of N(0, (tau sigma)^2) truncated to [-T, T], by inverse CDF."""
        s = self.tau * self.sigma
        lo = std_normal_cdf(-self.t_level / s)
        hi = std_normal_cdf(self.t_level / s)
        # in place: u (hi - lo) + lo and x s are the floats of
        # lo + u (hi - lo) and s x, since IEEE + and * commute
        u = _uniforms(gen, n)
        u *= hi - lo
        u += lo
        ndtri(u, out=u)
        u *= s
        return u


@dataclass(frozen=True)
class ReleaseEntry:
    """One published rank of a truncated-Gaussian release.

    A frozen dataclass whose own __init__ writes the three fields straight
    into the instance dict.  The generated frozen __init__ passes each
    field through object.__setattr__, which costs about 0.8 us an entry
    against 0.3 us here (Python 3.11, 2 vCPUs); fields, repr, ==, hash,
    replace and pickling are the dataclass's own.
    """

    rank: int
    element: Optional[str]
    value: float

    def __init__(self, rank: int, element: Optional[str], value: float) -> None:
        fields = self.__dict__
        fields["rank"] = rank
        fields["element"] = element
        fields["value"] = value


def trunc_gauss_release(
    hist: Histogram, config: TruncGaussConfig, rng: RngState
) -> list[ReleaseEntry]:
    """Unknown-domain release: windowed noise, publish above tau + T only.

    Counts are padded with zeros up to the public cap d_bar so the draw
    count never depends on the data.  Noise is the truncated Gaussian on
    [count - T, count + T] sampled by inverse CDF from one uniform per
    rank.  A zero count cannot clear the tau + T threshold, so absent
    and present-but-small elements are indistinguishable in the output.
    Entries carry both the rank index and the element id; consumers that
    only trust ranks can ignore the ids.  Past the array passes, a
    release costs about 0.37 us per published entry, most of it building
    the ReleaseEntry (d = 1e3, 2 vCPUs, Python 3.11).
    """
    if len(hist) > config.d_bar:
        raise ValueError(
            f"histogram has {len(hist)} elements, above the public cap {config.d_bar}"
        )
    cols = hist._columns
    d = len(cols.ids)
    padded = np.zeros(config.d_bar)
    padded[:d] = cols.counts
    noise = config.window_noise(rng.generator(), config.d_bar)
    values = padded + noise
    threshold = config.tau + config.t_level
    ranks = np.flatnonzero(values > threshold)
    # ranks ascend, so the padded ones, which carry no element, come last
    elements = cols.ids[ranks[ranks < d]].tolist()
    elements += [None] * (len(ranks) - len(elements))
    return list(map(ReleaseEntry, ranks.tolist(), elements, values[ranks].tolist()))


def known_lap_topk(
    hist: Histogram, k: int, eps_per_coord: float, rng: RngState
) -> list[tuple[str, float]]:
    """Known-domain baseline: Laplace(tau/eps) on every count, top k kept.

    Each coordinate is eps_per_coord-DP; the composed release prices at
    the optimal pure-DP bound over the delta0 touched coordinates.
    """
    _check_k(k, len(hist))
    if not (eps_per_coord > 0 and math.isfinite(eps_per_coord)):
        raise ValueError(f"eps_per_coord must be positive, got {eps_per_coord}")
    tau = hist.require_spec().tau
    cols = hist._columns
    scale = _noise_scale(
        "tau/eps", tau / eps_per_coord, _LAPLACE_REACH, tau=tau, eps=eps_per_coord
    )
    noise = sample_laplace(rng.generator(), scale, size=len(cols.ids))
    noisy = cols.counts + noise
    # every value tied with the k-th largest stays in, so the id tie-break
    # decides among them exactly as a full sort would
    negated = -noisy
    kth = np.partition(negated, k - 1)[k - 1]
    tops = np.flatnonzero(negated <= kth)
    tops = tops[_descending(noisy[tops], cols.id_rank[tops])][:k]
    return list(zip(cols.ids[tops], noisy[tops].tolist()))


def known_gauss(
    hist: Histogram, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """Known-domain baseline: N(0, (tau*sigma)^2) on every count.

    Returns all noisy counts, sorted by noisy value.  The release is
    concentrated-DP with the parameters of gauss_cdp_guarantee.
    """
    check_positive("sigma", sigma)
    tau = hist.require_spec().tau
    cols = hist._columns
    scale = _noise_scale("tau*sigma", tau * sigma, _GAUSS_REACH, tau=tau, sigma=sigma)
    noise = sample_gaussian(rng.generator(), scale, size=len(cols.ids))
    noisy = cols.counts + noise
    order = _descending(noisy, cols.id_rank)
    return list(zip(cols.ids[order], noisy[order].tolist()))


def gauss_cdp_guarantee(delta0: int, sigma: float) -> Cdp:
    """Concentrated-DP class of the known-domain Gaussian release."""
    return Cdp(mu=_gaussian_rho(sigma, delta0), tau=math.sqrt(delta0) / sigma)
