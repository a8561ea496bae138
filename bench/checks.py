"""Output checks for every benchmark request, run outside the timed region.

Tolerances are fixed here and are looser than the solvers' own. No check
pins a seeded draw: selections and noisy values are checked for the
properties any correct mechanism must have, so a different but correct
sampler still passes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# eps_inverse: the result must meet the target, and this far below it must not.
INVERSE_TOL = 1e-7
# Relative slack on "meets its delta target".
TARGET_SLACK = 1e-9
# Adaptive results against closed forms and the nonadaptive bound.
ADAPTIVE_TOL = 1e-6
ADAPTIVE_FLOOR_SLACK = 1e-12
# Ledger bound against the hand-summed formula, relative.
LEDGER_TOL = 1e-12
# Nonincreasing sequences may step up by this much (absolute).
MONOTONE_SLACK = 1e-12
# Audit verdicts allow this many standard errors. The program's own verdict
# allows 3, which an audit of a tight bound (two-point, composed-dp: the
# sampled pair attains the bound) exceeds by chance in 0.13% of audits, about
# one failed request every 30 runs; 6 standard errors make that ~1e-9.
AUDIT_SE = 6.0


class CheckError(AssertionError):
    """A request's output failed a benchmark check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def nonincreasing(values: Sequence[float], slack: float = MONOTONE_SLACK) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ------------------------------------------------------------------ pricing


def bound_fn(dp, bound: str, k: int, eps: float, m: int | None = None):
    if bound == "dp":
        return lambda eg: dp.delta_opt_dp(k, eps, eg)
    if bound == "br":
        return lambda eg: dp.delta_opt_br_nonadaptive(k, eps, eg)
    return lambda eg: dp.delta_opt_mixed(dp.CompositionQuery(k=k, m=m, eps=eps, eps_g=eg))


def check_inverse(f, target: float, eps_g: float) -> None:
    """eps_g meets the delta target, and one tolerance below it does not."""
    require(math.isfinite(eps_g) and eps_g >= 0.0, f"eps_g {eps_g} not finite and >= 0")
    require(f(eps_g) <= target * (1.0 + TARGET_SLACK),
            f"delta({eps_g}) = {f(eps_g)} above target {target}")
    below = eps_g - INVERSE_TOL * max(1.0, eps_g)
    if below > 0.0:
        require(f(below) > target, f"eps_g {eps_g} is not the smallest: "
                f"delta({below}) = {f(below)} <= {target}")


def check_curve(values: Sequence[float]) -> None:
    require(all(0.0 <= v <= 1.0 for v in values), "curve leaves [0, 1]")
    require(nonincreasing(values), "curve is not nonincreasing in eps_g")


def check_calibrate(dp, req: dict, rows: list[dict], sigma: float) -> None:
    k, delta0, s, delta = req["k"], req["delta0"], req["sigma"], req["delta"]
    by = {r["method"]: r for r in rows}
    require(set(by) == {"laplace_pure", "gaussian_zcdp", "gaussian_analytic_dp"},
            f"unexpected kfold rows {sorted(by)}")
    lap = by["laplace_pure"]
    check_inverse(bound_fn(dp, "dp", k * delta0, lap["eps_each"]), delta, lap["eps_g"])
    rho = k * delta0 / (2.0 * s * s)
    zcdp = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    require(close(by["gaussian_zcdp"]["eps_g"], zcdp, 1e-12), "zCDP row off its formula")
    ana = by["gaussian_analytic_dp"]
    require(math.isfinite(ana["eps_g"]) and ana["eps_g"] >= 0.0, "analytic row not finite")
    if ana["eps_g"] > 0.0:
        f = bound_fn(dp, "dp", k, ana["eps_each"])
        require(f(ana["eps_g"]) <= 0.5 * delta * (1.0 + TARGET_SLACK),
                "analytic row misses its delta/2 composition target")
    # solve_sigma_analytic: feasible, and not loose
    eps = req["eps"]
    require(dp.analytic_gaussian_delta(sigma, eps) <= delta * (1.0 + TARGET_SLACK),
            f"sigma {sigma} misses delta {delta} at eps {eps}")
    require(dp.analytic_gaussian_delta(sigma * (1.0 - INVERSE_TOL), eps) > delta,
            f"sigma {sigma} is not the smallest")


def check_adaptive(dp, req: dict, value: float) -> None:
    slots, eps, eps_g = tuple(req["slots"]), req["eps"], req["eps_g"]
    n, n_dp = len(slots), slots.count("dp")
    mixed = dp.delta_opt_mixed(dp.CompositionQuery(k=n, m=n_dp, eps=eps, eps_g=eps_g))
    require(0.0 <= value <= 1.0, f"delta {value} outside [0, 1]")
    if n - n_dp == 1:
        require(abs(value - mixed) <= ADAPTIVE_TOL,
                f"one-BR sequence {slots}: {value} != mixed bound {mixed}")
        return
    if n == 3 and n_dp == 1 and 0.0 <= eps_g <= eps:
        forms = dp.xyz_closed_forms(eps, eps_g)
        expect = {("dp", "br", "br"): forms.dp_br_br, ("br", "dp", "br"): forms.br_dp_br,
                  ("br", "br", "dp"): forms.br_br_dp}[slots]
        require(abs(value - expect) <= ADAPTIVE_TOL,
                f"{slots} at eps_g={eps_g}: {value} != closed form {expect}")
        return
    tv_floor = max(0.0, -math.expm1(eps_g))
    require(value >= max(mixed, tv_floor) - ADAPTIVE_FLOOR_SLACK,
            f"{slots}: {value} below the nonadaptive bound {mixed}")
    # every BR slot is also eps-DP, and the pure-DP bound holds adaptively
    ceiling = dp.delta_opt_dp(n, eps, eps_g)
    require(value <= ceiling + ADAPTIVE_TOL, f"{slots}: {value} above the DP bound {ceiling}")


def mean_loss(reg: dict) -> tuple[float, float]:
    """(mu, tau) of one registration, from the textbook formulas."""
    if reg["tag"] == "pure_dp":
        eps = reg["eps"]
        return eps * math.tanh(eps / 2.0), eps
    if reg["tag"] == "br":
        a = reg["alpha"]
        r = a / math.expm1(a)
        return r - 1.0 - math.log(r), a / 2.0
    return reg["mu"], reg["tau"]


def check_cdp_bound(regs: list[dict], delta: float, bound_cdp: float) -> None:
    """The CDP bound equals the hand sum mu + sqrt(2 sigma^2 ln 1/delta)."""
    pairs = [mean_loss(r) for r in regs]
    mu = math.fsum(p[0] for p in pairs)
    var = math.fsum(p[1] ** 2 for p in pairs)
    expect = mu + math.sqrt(2.0 * var * math.log(1.0 / delta))
    require(close(bound_cdp, expect, LEDGER_TOL),
            f"CDP bound {bound_cdp} != hand sum {expect}")


def check_ledger(req: dict, bound_cdp: float, n_registered: int, n_consumed: int) -> None:
    regs = req["registrations"]
    check_cdp_bound(regs, req["delta"], bound_cdp)
    require(n_registered == len(regs) and n_consumed == len(regs),
            f"{n_consumed} of {n_registered} consumed, expected all {len(regs)}")


# ------------------------------------------------------------------ release


def check_topk(pairs: Sequence[tuple[str, float]], k: int, ids: set, nonneg: bool) -> None:
    require(len(pairs) == k, f"{len(pairs)} entries, expected {k}")
    chosen = [e for e, _ in pairs]
    require(len(set(chosen)) == k, "released ids repeat")
    require(all(e in ids for e in chosen), "released id not in the histogram")
    values = [v for _, v in pairs]
    require(all(math.isfinite(v) for v in values), "non-finite released value")
    require(nonincreasing(values), "released values are not nonincreasing")
    if nonneg:
        require(values[-1] >= 0.0, "negative released value")


def check_known_gauss(pairs: Sequence[tuple[str, float]], counts: dict, scale: float) -> None:
    require(len(pairs) == len(counts), f"{len(pairs)} entries, expected {len(counts)}")
    ids, values = zip(*pairs)
    require(len(set(ids)) == len(counts), "released ids repeat")
    noisy = np.asarray(values)
    require(bool(np.all(np.diff(noisy) <= MONOTONE_SLACK)), "released values are not sorted")
    # the summed noise is N(0, d scale^2); 8 standard deviations never trip
    total = noisy.sum() - np.fromiter(map(counts.__getitem__, ids), float, len(ids)).sum()
    require(abs(total) <= 8.0 * scale * math.sqrt(len(pairs)), "noise sum implausible")


def check_trunc_gauss(entries: Iterable, counts: dict, tau: float, t_level: float,
                      d_bar: int) -> None:
    threshold = tau + t_level
    ranks = set()
    for e in entries:
        count = 0.0 if e.element is None else counts[e.element]
        require(0 <= e.rank < d_bar and e.rank not in ranks, f"bad rank {e.rank}")
        ranks.add(e.rank)
        require(e.value > threshold, f"value {e.value} not above tau + T = {threshold}")
        slack = 1e-9 * max(1.0, abs(count) + t_level)
        require(count - t_level - slack <= e.value <= count + t_level + slack,
                f"value {e.value} outside the window of count {count}")


def check_audit(report) -> None:
    """The audit's estimate is consistent with its bound, within AUDIT_SE
    standard errors."""
    limit = report.bound_delta + AUDIT_SE * report.std_error
    require(report.empirical_delta <= limit,
            f"audit {report.mechanism} flagged: {report.empirical_delta} > "
            f"{report.bound_delta} + {AUDIT_SE} * {report.std_error}")
