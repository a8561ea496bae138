"""Independent verification of the accounting claims.

Two routes that deliberately share no code with the closed forms they
check.  The exact route enumerates every outcome of a product of
two-point response pairs and sums the positive part of P - e^eps Q
directly; it is feasible up to 20 factors and serves as ground truth for
the composition formulas.  The Monte-Carlo route samples a mechanism on
a fixed pair of neighboring inputs, bins the outcomes, and estimates the
same positive-part mass empirically with a bootstrap standard error.
Binning biases the estimate downward (merged mass cannot separate), and
fitting the optimal event to the empirical counts adds upward noise, so
a Monte-Carlo audit can refute a claimed bound but never certify it;
reports carry that caveat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .mechanisms import RngState, TruncGaussConfig
from .nonadaptive import (
    CompositionQuery,
    _tilt_q,
    delta_opt_dp,
    grr_params,
    mixed_candidate_ts,
)
from .numerics import golden_max
from .setwise import Zcdp, zcdp_dp_guarantee

__all__ = [
    "AuditReport",
    "hockey_stick_exact",
    "mixed_brute_force_sup",
    "monte_carlo_delta",
    "audit_two_point",
    "audit_composed_dp",
    "audit_trunc_gauss",
]

# outcomes per trial arrive as floats; NaN encodes "no output"
Sampler = Callable[[np.random.Generator, int], np.ndarray]

_MAX_EXACT_SLOTS = 20


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
    if not (math.isfinite(eps_g) and eps_g >= 0.0):
        raise ValueError(f"eps_g must be nonnegative and finite, got {eps_g}")
    p_out = np.ones(1)
    q_out = np.ones(1)
    for q_i, p_i in dist_pairs:
        if not (0.0 <= q_i <= 1.0 and 0.0 <= p_i <= 1.0):
            raise ValueError(f"pair ({q_i}, {p_i}) is not a probability pair")
        p_out = np.concatenate([p_out * q_i, p_out * (1.0 - q_i)])
        q_out = np.concatenate([q_out * p_i, q_out * (1.0 - p_i)])
    diff = p_out - math.exp(eps_g) * q_out
    return float(np.sum(np.maximum(diff, 0.0)))


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
                np.asarray(mixed_candidate_ts(k, m, eps, eps_g)),
            ]
        )
    )
    values = delta_at_grid(ts)
    best = int(np.argmax(values))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, ts.size - 1)]
    polished = golden_max(lambda t: float(delta_at_grid(np.array([t]))[0]), lo, hi, 80)
    return max(float(values[best]), polished)


def _category_counts(
    xs: np.ndarray, ys: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray, str]:
    """Histogram both samples on one shared discretization.

    Finite outcomes become categories either by their distinct values
    (when few enough) or by pooled-quantile bins; NaN outcomes land in a
    dedicated final category so "no output" stays a visible event.
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


def _positive_part(counts_p: np.ndarray, counts_q: np.ndarray, eps_g: float) -> float:
    n_p = counts_p.sum(axis=-1, keepdims=True)
    n_q = counts_q.sum(axis=-1, keepdims=True)
    diff = counts_p / n_p - math.exp(eps_g) * counts_q / n_q
    return np.maximum(diff, 0.0).sum(axis=-1)


def monte_carlo_delta(
    sample_p: Sampler,
    sample_q: Sampler,
    eps_g: float,
    n_trials: int,
    rng: RngState,
    n_bins: int = 1000,
    n_bootstrap: int = 200,
) -> tuple[float, float]:
    """Empirical positive-part mass between two sampled output laws.

    The two samplers draw from the mechanism on a fixed pair of
    neighboring inputs (substreams 0 and 1 of rng); the estimate takes
    the empirically optimal event, every category where the first law
    outweighs e^eps_g times the second.  The standard error is the
    spread of the estimate across multinomial resamples of both count
    vectors (substream 2).
    """
    if n_trials < 10**5:
        raise ValueError(f"need at least 1e5 trials for a stable tail, got {n_trials}")
    if not (math.isfinite(eps_g) and eps_g >= 0.0):
        raise ValueError(f"eps_g must be nonnegative and finite, got {eps_g}")
    if n_bins < 2 or n_bootstrap < 10:
        raise ValueError("n_bins must be >= 2 and n_bootstrap >= 10")
    xs = np.asarray(sample_p(rng.substream(0), n_trials), dtype=float)
    ys = np.asarray(sample_q(rng.substream(1), n_trials), dtype=float)
    if xs.shape != (n_trials,) or ys.shape != (n_trials,):
        raise ValueError("samplers must return one outcome per trial")
    counts_p, counts_q, _ = _category_counts(xs, ys, n_bins)
    estimate = float(_positive_part(counts_p, counts_q, eps_g))

    boot = rng.substream(2)
    resampled_p = boot.multinomial(n_trials, counts_p / n_trials, size=n_bootstrap)
    resampled_q = boot.multinomial(n_trials, counts_q / n_trials, size=n_bootstrap)
    deltas = _positive_part(resampled_p, resampled_q, eps_g)
    return estimate, float(np.std(deltas, ddof=1))


def _bit_string_sampler(first_outcome_probs: Sequence[float]) -> Sampler:
    # independent two-point responses, packed into one integer outcome
    probs = np.asarray(first_outcome_probs, dtype=float)
    weights = np.power(2.0, np.arange(probs.size))

    def sample(gen: np.random.Generator, n: int) -> np.ndarray:
        bits = gen.random((n, probs.size)) >= probs
        return bits @ weights

    return sample


def audit_two_point(
    eps: float, t: float, eps_g: float, n_trials: int, rng: RngState
) -> AuditReport:
    """Monte-Carlo check of a single two-point pair against its exact mass."""
    pair = grr_params(eps, t)
    bound = hockey_stick_exact([(pair.q, pair.p)], eps_g)
    estimate, se = monte_carlo_delta(
        _bit_string_sampler([pair.q]),
        _bit_string_sampler([pair.p]),
        eps_g,
        n_trials,
        rng,
    )
    return AuditReport(
        mechanism=f"two_point(eps={eps}, t={t})",
        eps_g=eps_g,
        empirical_delta=estimate,
        std_error=se,
        bound_delta=bound,
        metadata={
            "n_trials": n_trials,
            "binning": "atoms(2)",
            "note": "binning biases the estimate downward; consistency check only",
        },
    )


def audit_composed_dp(
    k: int, eps: float, eps_g: float, n_trials: int, rng: RngState
) -> AuditReport:
    """Monte-Carlo check of k worst-case pure-DP responses composed.

    The sampled mechanism is the product of k two-point pairs whose both
    likelihood ratios sit at e^eps, the extremal instance of the
    composition bound being audited.
    """
    bound = delta_opt_dp(k, eps, eps_g)
    pair = grr_params(2.0 * eps, eps)
    estimate, se = monte_carlo_delta(
        _bit_string_sampler([pair.q] * k),
        _bit_string_sampler([pair.p] * k),
        eps_g,
        n_trials,
        rng,
        n_bins=max(1000, 2**k),
    )
    return AuditReport(
        mechanism=f"composed_dp(k={k}, eps={eps})",
        eps_g=eps_g,
        empirical_delta=estimate,
        std_error=se,
        bound_delta=bound,
        metadata={
            "n_trials": n_trials,
            "binning": f"atoms({2**k})",
            "note": "binning biases the estimate downward; consistency check only",
        },
    )


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

    instance = Zcdp(
        delta=config.delta, xi=0.0, rho=1.0 / (2.0 * config.sigma * config.sigma)
    )
    eps_g, bound = zcdp_dp_guarantee(instance, conversion_delta)
    estimate, se = monte_carlo_delta(
        windowed(config.tau + t_level),
        windowed(t_level),
        eps_g,
        n_trials,
        rng,
    )
    return AuditReport(
        mechanism=f"trunc_gauss(sigma={config.sigma}, tau={config.tau})",
        eps_g=eps_g,
        empirical_delta=estimate,
        std_error=se,
        bound_delta=bound,
        metadata={
            "n_trials": n_trials,
            "binning": "quantile(1000)",
            "counts": [config.tau + t_level, t_level],
            "conversion_delta": conversion_delta,
            "note": "binning biases the estimate downward; consistency check only",
        },
    )
