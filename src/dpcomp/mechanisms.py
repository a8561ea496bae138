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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

from .calibration import HistogramSpec
from .numerics import Bracket, bisect, expand, pava_monotone_nonneg, std_normal_cdf
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


@dataclass(frozen=True)
class Histogram:
    """Element counts keyed by identifier, plus their sensitivity profile.

    The spec is optional for plain counting, but any mechanism that
    prices privacy needs it: tau bounds one user's effect on a count and
    d_bar caps how many entries the histogram may carry.
    """

    counts: Mapping[str, float]
    spec: Optional[HistogramSpec] = None

    def __post_init__(self) -> None:
        for key, value in self.counts.items():
            if not isinstance(key, str):
                raise TypeError(f"element ids must be strings, got {key!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"count for {key!r} must be finite and >= 0")
        if self.spec is not None and len(self.counts) > self.spec.d_bar:
            raise ValueError(
                f"{len(self.counts)} entries exceed the public cap {self.spec.d_bar}"
            )

    def require_spec(self) -> HistogramSpec:
        if self.spec is None:
            raise ValueError("this operation needs a histogram sensitivity spec")
        return self.spec

    def count(self, element: str) -> float:
        return self.counts.get(element, 0.0)

    def sorted_items(self) -> list[tuple[str, float]]:
        """Items in canonical release order: count descending, id ascending."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def restrict(self, elements: Iterable[str]) -> "Histogram":
        return Histogram(
            counts={e: self.count(e) for e in elements}, spec=self.spec
        )

    def __len__(self) -> int:
        return len(self.counts)


def histogram_from_counts(
    counts: Mapping[str, Union[int, float]], spec: Optional[HistogramSpec] = None
) -> Histogram:
    return Histogram(counts={k: float(v) for k, v in counts.items()}, spec=spec)


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
    counts.  derive(j) forks a child state whose streams never collide
    with the parent's.
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
        if index < 0:
            raise ValueError(f"substream index must be >= 0, got {index}")
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self._path + (index,)
        )
        return np.random.Generator(np.random.PCG64(seq))

    def derive(self, index: int) -> "RngState":
        if index < 0:
            raise ValueError(f"derivation index must be >= 0, got {index}")
        return RngState(seed=self.seed, _path=self._path + (index,))


def _uniforms(gen: np.random.Generator, size: Optional[int]) -> np.ndarray:
    u = gen.random(size if size is not None else 1)
    # keep away from 0 so inverse CDFs stay finite
    return np.maximum(u, _MIN_UNIFORM)


def _maybe_scalar(x: np.ndarray, size: Optional[int]) -> Union[float, np.ndarray]:
    return float(x[0]) if size is None else x


def sample_laplace(
    gen: np.random.Generator, scale: float, size: Optional[int] = None
) -> Union[float, np.ndarray]:
    """Laplace(0, scale) by inverting the CDF of one uniform per draw."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    u = _uniforms(gen, size) - 0.5
    mag = np.minimum(np.abs(u), np.nextafter(0.5, 0.0))
    x = -scale * np.sign(u) * np.log1p(-2.0 * mag)
    return _maybe_scalar(x, size)


def sample_gaussian(
    gen: np.random.Generator, scale: float, size: Optional[int] = None
) -> Union[float, np.ndarray]:
    """N(0, scale^2) via the normal quantile of one uniform per draw."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    x = scale * ndtri(_uniforms(gen, size))
    return _maybe_scalar(x, size)


def sample_gumbel(
    gen: np.random.Generator, scale: float, size: Optional[int] = None
) -> Union[float, np.ndarray]:
    """Gumbel(0, scale) via -scale * ln(-ln u)."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    u = _uniforms(gen, size)
    x = -scale * np.log(-np.log(u))
    return _maybe_scalar(x, size)


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
    """
    if not (isinstance(k, int) and 1 <= k <= len(hist)):
        raise ValueError(f"k must be an integer in [1, {len(hist)}], got {k}")
    if not (eps_per_round > 0):
        raise ValueError(f"eps_per_round must be positive, got {eps_per_round}")
    tau = hist.require_spec().tau
    items = hist.sorted_items()
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
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if len(ordering) != len(hist) or set(ordering) != set(hist.counts):
        raise ValueError("ordering must cover the histogram elements exactly")
    tau = hist.require_spec().tau
    raw = np.array([hist.count(element) for element in ordering])
    noisy = raw + sample_gaussian(rng.generator(), tau * sigma, size=raw.size)
    projected = pava_monotone_nonneg(noisy)
    return list(zip(ordering, projected.tolist()))


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
    return ls_noise(hist.restrict(ids), ids, sigma, rng.derive(1))


def _trunc_rhs(t_level: float, delta0: int, tau: float, sigma: float) -> float:
    # mass the tau-shifted window loses, as a fraction of the window mass;
    # written tail-minus-tail so nothing cancels near 1 when T >> s
    s = tau * sigma
    num = std_normal_cdf((tau - t_level) / s) - std_normal_cdf(-t_level / s)
    den = std_normal_cdf(t_level / s) - std_normal_cdf(-t_level / s)
    return delta0 * num / den


def solve_truncation_level(
    delta0: int, tau: float, sigma: float, delta: float
) -> float:
    """Smallest truncation window T with approximation slack <= delta.

    The slack of the window [count - T, count + T], maximized over the
    delta0 counts one user can shift by up to tau, is decreasing in T
    and equals delta0 / 2 at T = tau exactly; the root is bracketed
    upward from there (doubling until sign change), or back toward
    tau / 2 when delta is large.  Returned from the feasible end, so
    _trunc_rhs(T, ...) <= delta.
    """
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0,1), got {delta}")

    def gap(t_level: float) -> float:
        return _trunc_rhs(t_level, delta0, tau, sigma) - delta

    if delta < delta0 / 2.0:
        lo, hi = expand(lambda t: gap(t) < 0.0, tau, 8.0 * tau * sigma + tau, 60)
    else:
        hi = tau
        lo = 0.75 * tau
        for _ in range(60):
            if gap(lo) > 0.0:
                break
            lo = 0.5 * (lo + 0.5 * tau)
        else:
            raise ValueError("truncation level did not bracket near tau/2")
    tol = 1e-12 * max(1.0, tau * sigma)
    return bisect(gap, Bracket(lo=lo, hi=hi, tol_abs=tol))


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
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if not self.t_level > self.tau / 2.0:
            raise ValueError(
                f"t_level must exceed tau/2 = {self.tau / 2.0}, got {self.t_level}"
            )
        residual = abs(
            _trunc_rhs(self.t_level, self.delta0, self.tau, self.sigma) - self.delta
        )
        if residual > 1e-9:
            raise ValueError(
                f"t_level does not solve the window equation (residual {residual:.3g})"
            )

    @classmethod
    def from_target(
        cls, spec: HistogramSpec, sigma: float, delta: float
    ) -> "TruncGaussConfig":
        t_level = solve_truncation_level(spec.delta0, spec.tau, sigma, delta)
        return cls(
            delta0=spec.delta0,
            d_bar=spec.d_bar,
            tau=spec.tau,
            sigma=sigma,
            delta=delta,
            t_level=t_level,
        )

    def guarantee(self) -> Zcdp:
        rho = self.delta0 / (2.0 * self.sigma * self.sigma)
        return Zcdp(delta=self.delta, xi=0.0, rho=rho)

    def window_noise(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """n draws of N(0, (tau sigma)^2) truncated to [-T, T], by inverse CDF."""
        s = self.tau * self.sigma
        lo = std_normal_cdf(-self.t_level / s)
        hi = std_normal_cdf(self.t_level / s)
        u = _uniforms(gen, n)
        return s * ndtri(lo + u * (hi - lo))


@dataclass(frozen=True)
class ReleaseEntry:
    rank: int
    element: Optional[str]
    value: float


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
    only trust ranks can ignore the ids.
    """
    if len(hist) > config.d_bar:
        raise ValueError(
            f"histogram has {len(hist)} elements, above the public cap {config.d_bar}"
        )
    items: list[tuple[Optional[str], float]] = list(hist.sorted_items())
    items += [(None, 0.0)] * (config.d_bar - len(items))
    noise = config.window_noise(rng.generator(), config.d_bar)
    threshold = config.tau + config.t_level
    released = []
    for rank, (element, count) in enumerate(items):
        value = count + float(noise[rank])
        if value > threshold:
            released.append(ReleaseEntry(rank=rank, element=element, value=value))
    return released


def known_lap_topk(
    hist: Histogram, k: int, eps_per_coord: float, rng: RngState
) -> list[tuple[str, float]]:
    """Known-domain baseline: Laplace(tau/eps) on every count, top k kept.

    Each coordinate is eps_per_coord-DP; the composed release prices at
    the optimal pure-DP bound over the delta0 touched coordinates.
    """
    if not (isinstance(k, int) and 1 <= k <= len(hist)):
        raise ValueError(f"k must be an integer in [1, {len(hist)}], got {k}")
    if not (eps_per_coord > 0 and math.isfinite(eps_per_coord)):
        raise ValueError(f"eps_per_coord must be positive, got {eps_per_coord}")
    tau = hist.require_spec().tau
    items = hist.sorted_items()
    noise = sample_laplace(rng.generator(), tau / eps_per_coord, size=len(items))
    noisy = [(element, count + float(n)) for (element, count), n in zip(items, noise)]
    noisy.sort(key=lambda kv: (-kv[1], kv[0]))
    return noisy[:k]


def known_gauss(
    hist: Histogram, sigma: float, rng: RngState
) -> list[tuple[str, float]]:
    """Known-domain baseline: N(0, (tau*sigma)^2) on every count.

    Returns all noisy counts, sorted by noisy value.  The release is
    concentrated-DP with the parameters of gauss_cdp_guarantee.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    tau = hist.require_spec().tau
    items = hist.sorted_items()
    noise = sample_gaussian(rng.generator(), tau * sigma, size=len(items))
    noisy = [(element, count + float(n)) for (element, count), n in zip(items, noise)]
    noisy.sort(key=lambda kv: (-kv[1], kv[0]))
    return noisy


def gauss_cdp_guarantee(delta0: int, sigma: float) -> Cdp:
    """Concentrated-DP class of the known-domain Gaussian release."""
    if delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {delta0}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return Cdp(mu=delta0 / (2.0 * sigma * sigma), tau=math.sqrt(delta0) / sigma)
