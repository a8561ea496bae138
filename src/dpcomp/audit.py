"""Independent verification of the accounting claims.

Two routes that deliberately share no code with the closed forms they
check.  The exact route enumerates every outcome of a product of
two-point response pairs and sums the positive part of P - e^eps Q
directly; it is feasible up to 20 factors and gives the two-point audit
its exact bound.  The Monte-Carlo route samples a mechanism on a fixed
pair of neighboring inputs, bins the outcomes, and estimates the same
positive-part mass empirically with a bootstrap standard error.
Binning biases the estimate downward (merged mass cannot separate), and
fitting the optimal event to the empirical counts adds upward noise, so
a Monte-Carlo audit can refute a claimed bound but never certify it;
reports carry that caveat.  The brute-force searches that check the
composition formulas themselves are test oracles in tests/oracles.py.

Categories are counted from one sort of each sample: NaN ("no output")
sorts last, so its count is the length of the tail, and each atom or
quantile bin's count is the difference of two binary-search positions
in the sorted sample; no trial is binned on its own.  The composed
pure-DP audit bins its k responses by how many took the second outcome.
All k pairs are the same (2 eps, eps) pair, so the privacy loss of an
outcome string with j second outcomes is eps (k - 2j): every string in
a category has the same likelihood ratio, the positive part of their
summed mass is the sum of their positive parts, and the k + 1 count
categories lose no mass against the 2^k strings.  Fewer categories also
leave the empirically optimal event less noise to fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .calibration import _gaussian_rho
from .mechanisms import RngState, TruncGaussConfig
from .nonadaptive import GrrParams, delta_opt_dp, grr_params
from .numerics import check_nonnegative
from .setwise import Zcdp, zcdp_dp_guarantee

__all__ = [
    "AuditReport",
    "hockey_stick_exact",
    "monte_carlo_delta",
    "audit_two_point",
    "audit_composed_dp",
    "audit_trunc_gauss",
]

# outcomes per trial arrive as floats; NaN encodes "no output"
Sampler = Callable[[np.random.Generator, int], np.ndarray]

_MAX_EXACT_SLOTS = 20
# trials per block of the two-point samplers: a (rows, k) block of
# uniforms stays small and cache-resident whatever the trial count, and
# PCG64 fills consecutive blocks with the stream one (n, k) draw would use
_SAMPLE_ROWS = 1 << 14
# multinomial resamples behind a Monte-Carlo standard error
_N_BOOTSTRAP = 200
# largest outcome magnitude a quantile bin takes: np.quantile interpolates
# as a + (b - a) t, and b - a overflows once |a| or |b| exceeds half the
# float range
_MAX_OUTCOME = float(np.finfo(float).max) / 2.0
# largest eps_g at which math.exp(eps_g) does not overflow
_LOG_MAX = math.log(float(np.finfo(float).max))
# the caveat every report carries (see the module docstring)
_NOTE = "binning biases the estimate downward; consistency check only"


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one empirical privacy check.

    The verdict compares the empirical estimate against the claimed
    bound with a three-standard-error allowance; anything below that is
    consistent, anything above is flagged.  metadata records how the
    outcome space was discretized, since that choice caps what the
    audit can detect.
    """

    mechanism: str
    eps_g: float
    empirical_delta: float
    std_error: float
    bound_delta: float
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.empirical_delta > self.bound_delta + 3.0 * self.std_error:
            return "violation"
        return "consistent"

    def to_json(self) -> str:
        payload = {
            "mechanism": self.mechanism,
            "eps_g": self.eps_g,
            "empirical_delta": self.empirical_delta,
            "std_error": self.std_error,
            "bound_delta": self.bound_delta,
            "verdict": self.verdict,
            "metadata": dict(self.metadata),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _exp_times(eps_g: float, x: np.ndarray) -> np.ndarray:
    """e^eps_g * x elementwise, also where e^eps_g alone overflows.

    Up to ln(max float) it is that product; above, exp(eps_g + ln x),
    which is 0 where x is 0.  An entry past the float range is inf either
    way, and the positive part that subtracts it is 0, so neither warns.
    """
    with np.errstate(divide="ignore", over="ignore"):
        if eps_g <= _LOG_MAX:
            return math.exp(eps_g) * x
        return np.exp(eps_g + np.log(x))


def hockey_stick_exact(
    dist_pairs: Sequence[tuple[float, float]], eps_g: float
) -> float:
    """Exact positive-part mass of a product of two-point pairs.

    Each (q_i, p_i) is the probability of the first outcome under the
    two neighboring inputs; the product runs over all 2^k outcome
    strings, built by doubling so the cost is one vector pass per pair.
    """
    k = len(dist_pairs)
    if k == 0:
        raise ValueError("need at least one distribution pair")
    if k > _MAX_EXACT_SLOTS:
        raise ValueError(
            f"exact enumeration limited to {_MAX_EXACT_SLOTS} pairs, got {k}"
        )
    check_nonnegative("eps_g", eps_g)
    p_out = np.ones(1)
    q_out = np.ones(1)
    for q_i, p_i in dist_pairs:
        if not (0.0 <= q_i <= 1.0 and 0.0 <= p_i <= 1.0):
            raise ValueError(f"pair ({q_i}, {p_i}) is not a probability pair")
        p_out = np.concatenate([p_out * q_i, p_out * (1.0 - q_i)])
        q_out = np.concatenate([q_out * p_i, q_out * (1.0 - p_i)])
    diff = p_out - _exp_times(eps_g, q_out)
    return float(np.sum(np.maximum(diff, 0.0)))


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    """The values of a sorted array, each once (-0.0 equals 0.0)."""
    keep = np.empty(sorted_values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=keep[1:])
    return sorted_values[keep]


def _category_counts(
    xs: np.ndarray, ys: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """Histogram both samples on one shared discretization.

    Finite outcomes become categories either by their distinct values
    (when the pooled samples hold at most n_bins of them) or by
    pooled-quantile bins; NaN outcomes land in a dedicated final
    category so "no output" stays a visible event.  An infinite outcome,
    or a finite one beyond half the float range, has no quantile bin and
    raises ValueError.  Each sample is sorted once and every count is a
    difference of two positions in it, so no trial is binned on its own.
    """
    # NaN sorts last, so the non-NaN outcomes are a prefix of each sample
    # whose two ends hold its largest magnitudes, any +-inf among them
    samples = [np.sort(xs), np.sort(ys)]
    finite = [s[: np.searchsorted(s, np.nan)] for s in samples]
    for f in finite:
        largest = max(-f[0], f[-1]) if f.size else 0.0
        if largest > _MAX_OUTCOME:
            raise ValueError(f"outcome magnitude {largest:.6g} is infinite or past max/2")
    # one sample with too many distinct values rules out atoms unpooled
    distinct = [_distinct(f) for f in finite]
    atoms = np.union1d(*distinct) if max(d.size for d in distinct) <= n_bins else None
    if atoms is not None and atoms.size <= n_bins:
        mode = f"atoms({atoms.size})"

        def binned(f: np.ndarray) -> np.ndarray:
            return np.searchsorted(f, atoms, "right") - np.searchsorted(f, atoms)

    else:
        pooled = np.sort(np.concatenate(finite))
        edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, n_bins + 1)))
        mode = f"quantile({edges.size - 1})"

        # bin j holds edges[j] <= v < edges[j + 1]; values below the
        # second edge fall in the first bin and values from the last but
        # one edge up in the last bin
        def binned(f: np.ndarray) -> np.ndarray:
            below = np.searchsorted(f, edges[1:-1])
            return np.diff(np.concatenate([[0], below, [f.size]]))

    counts = [
        np.append(binned(f), s.size - f.size).astype(np.int64)
        for s, f in zip(samples, finite)
    ]
    return counts[0], counts[1], mode


def _positive_part(counts_p: np.ndarray, counts_q: np.ndarray, eps_g: float) -> float:
    n_p = counts_p.sum(axis=-1, keepdims=True)
    n_q = counts_q.sum(axis=-1, keepdims=True)
    diff = counts_p / n_p - _exp_times(eps_g, counts_q) / n_q
    return np.maximum(diff, 0.0).sum(axis=-1)


def monte_carlo_delta(
    sample_p: Sampler,
    sample_q: Sampler,
    eps_g: float,
    n_trials: int,
    rng: RngState,
    n_bins: int = 1000,
) -> tuple[float, float]:
    """Empirical positive-part mass between two sampled output laws.

    The two samplers draw from the mechanism on a fixed pair of
    neighboring inputs (substreams 0 and 1 of rng); the estimate takes
    the empirically optimal event, every category where the first law
    outweighs e^eps_g times the second.  The standard error is the
    spread of the estimate across 200 multinomial resamples of both count
    vectors (substream 2).  Each outcome is NaN ("no output") or a finite
    float of magnitude at most half the float range; a sampler that
    returns anything else, +-inf included, raises ValueError.
    """
    if n_trials < 10**5:
        raise ValueError(f"need at least 1e5 trials for a stable tail, got {n_trials}")
    check_nonnegative("eps_g", eps_g)
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    xs = np.asarray(sample_p(rng.substream(0), n_trials), dtype=float)
    ys = np.asarray(sample_q(rng.substream(1), n_trials), dtype=float)
    if xs.shape != (n_trials,) or ys.shape != (n_trials,):
        raise ValueError("samplers must return one outcome per trial")
    counts_p, counts_q, _ = _category_counts(xs, ys, n_bins)
    estimate = float(_positive_part(counts_p, counts_q, eps_g))

    boot = rng.substream(2)
    resampled_p = boot.multinomial(n_trials, counts_p / n_trials, size=_N_BOOTSTRAP)
    resampled_q = boot.multinomial(n_trials, counts_q / n_trials, size=_N_BOOTSTRAP)
    deltas = _positive_part(resampled_p, resampled_q, eps_g)
    return estimate, float(np.std(deltas, ddof=1))


def _second_outcome_sampler(first_prob: float, k: int) -> Sampler:
    # k independent copies of one two-point response; the outcome is how
    # many of them took the second value
    def sample(gen: np.random.Generator, n: int) -> np.ndarray:
        ones = np.zeros(n, dtype=np.int64)
        for start in range(0, n, _SAMPLE_ROWS):
            block = ones[start : start + _SAMPLE_ROWS]
            for column in (gen.random((block.size, k)) >= first_prob).T:
                block += column
        return ones.astype(float)

    return sample


def _report(
    mechanism: str, eps_g: float, bound: float, estimate: tuple, n_trials: int, **metadata
) -> AuditReport:
    # the report of every audit, each carrying the shared note
    metadata = {"n_trials": n_trials, **metadata, "note": _NOTE}
    return AuditReport(mechanism, eps_g, *estimate, bound, metadata)


def _pair_estimate(
    pair: GrrParams, k: int, eps_g: float, n_trials: int, rng: RngState
) -> tuple[float, float]:
    # k copies of one two-point pair, binned by the count of second outcomes
    return monte_carlo_delta(
        _second_outcome_sampler(pair.q, k),
        _second_outcome_sampler(pair.p, k),
        eps_g,
        n_trials,
        rng,
        n_bins=max(1000, k + 1),
    )


def audit_two_point(
    eps: float, t: float, eps_g: float, n_trials: int, rng: RngState
) -> AuditReport:
    """Monte-Carlo check of a single two-point pair against its exact mass."""
    pair = grr_params(eps, t)
    bound = hockey_stick_exact([(pair.q, pair.p)], eps_g)
    estimate = _pair_estimate(pair, 1, eps_g, n_trials, rng)
    mechanism = f"two_point(eps={eps}, t={t})"
    return _report(mechanism, eps_g, bound, estimate, n_trials, binning="atoms(2)")


def audit_composed_dp(
    k: int, eps: float, eps_g: float, n_trials: int, rng: RngState
) -> AuditReport:
    """Monte-Carlo check of k worst-case pure-DP responses composed.

    The sampled mechanism is the product of k two-point pairs whose both
    likelihood ratios sit at e^eps, the extremal instance of the
    composition bound being audited.  Each trial reports how many of the
    k responses took the second outcome, which fixes its privacy loss.
    """
    bound = delta_opt_dp(k, eps, eps_g)
    estimate = _pair_estimate(grr_params(2.0 * eps, eps), k, eps_g, n_trials, rng)
    binning = f"atoms({k + 1}) by the count of second outcomes"
    mechanism = f"composed_dp(k={k}, eps={eps})"
    return _report(mechanism, eps_g, bound, estimate, n_trials, binning=binning)


def audit_trunc_gauss(
    config: TruncGaussConfig,
    n_trials: int,
    rng: RngState,
    conversion_delta: float = 1e-6,
) -> AuditReport:
    """Monte-Carlo check of the windowed release on a one-bin instance.

    Neighbors hold counts tau + T and T, one user contributing tau
    apart; each trial either publishes the noisy value or NaN when it
    fails the tau + T threshold.  The claimed bound converts the
    instance's concentrated guarantee (one bin, so rho = 1/(2 sigma^2))
    to an approximate-DP point at the given conversion slack, plus the
    window's own approximation slack.
    """
    t_level = config.t_level
    threshold = config.tau + t_level

    def windowed(count: float) -> Sampler:
        def sample(gen: np.random.Generator, n: int) -> np.ndarray:
            values = count + config.window_noise(gen, n)
            return np.where(values > threshold, values, np.nan)

        return sample

    instance = Zcdp(delta=config.delta, xi=0.0, rho=_gaussian_rho(config.sigma, 1))
    eps_g, bound = zcdp_dp_guarantee(instance, conversion_delta)
    estimate = monte_carlo_delta(
        windowed(config.tau + t_level),
        windowed(t_level),
        eps_g,
        n_trials,
        rng,
    )
    return _report(
        f"trunc_gauss(sigma={config.sigma}, tau={config.tau})",
        eps_g,
        bound,
        estimate,
        n_trials,
        binning="quantile(1000)",
        counts=[config.tau + t_level, t_level],
        conversion_delta=conversion_delta,
    )
