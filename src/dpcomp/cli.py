"""Command-line surface for composition queries, figures, demos, audits.

Every run is reproducible from its arguments: the seed comes from
--seed, falling back to the DPCOMP_SEED environment variable and then to
0, and all emitted tables carry a `# params:` provenance line plus
17-significant-digit decimals so regenerated files match byte for byte.

Exit codes: 0 success, 2 usage or precondition violation, 3 a solver
failed to bracket or converge, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .adaptive import GridSpec, MechanismSequence, delta_opt_recursive, ordering_gap_curve
from .audit import audit_composed_dp, audit_trunc_gauss, audit_two_point
from .calibration import (
    HistogramSpec,
    kfold_comparison,
    single_release_comparison,
    solve_sigma_analytic,
    solve_sigma_zcdp,
)
from .mechanisms import (
    Histogram,
    RngState,
    TruncGaussConfig,
    histogram_from_counts,
    known_gauss,
    known_lap_topk,
    ls_noise,
    solve_truncation_level,
    topk_release,
    trunc_gauss_release,
)
from .nonadaptive import (
    CompositionQuery,
    delta_opt_br_nonadaptive,
    delta_opt_dp,
    delta_opt_mixed,
    eps_inverse,
)
from .numerics import BracketError, ConvergenceError
from .setwise import SetwiseAccountant, global_bound_homogeneous

__all__ = ["figure_data", "load_histogram_counts", "main"]

_SEED_ENV = "DPCOMP_SEED"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[io.TextIOBase]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_table(
    stream: io.TextIOBase,
    params: Mapping[str, object],
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    fmt: str,
) -> None:
    if fmt == "json":
        payload = {
            "params": {k: params[k] for k in sorted(params)},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        stream.write(json.dumps(payload, indent=2, sort_keys=True))
        stream.write("\n")
        return
    provenance = " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params))
    stream.write(f"# params: {provenance}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_grid(text: str) -> list[float]:
    """lo:hi:step, endpoints inclusive up to float roundoff."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid parts must be finite, got {text!r}")
    if not (step > 0 and hi >= lo):
        raise ValueError(f"grid needs step > 0 and hi >= lo, got {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def _resolve_seed(value: Optional[int]) -> int:
    if value is None:
        raw = os.environ.get(_SEED_ENV, "0")
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{_SEED_ENV} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"seed must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------- histograms


_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens, split on anything that is not alphanumeric."""
    return _TOKEN.findall(text.lower())


def load_histogram_counts(path: str) -> dict[str, float]:
    """Counts from a .json mapping, a two-column .csv, or a text corpus."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    if path.endswith(".json"):
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object mapping element to count")
        return {str(k): float(v) for k, v in data.items()}
    if path.endswith(".csv"):
        counts: dict[str, float] = {}
        for line in raw.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}: expected element,count rows, got {line!r}")
            try:
                value = float(cells[1])
            except ValueError:
                continue  # header row
            counts[cells[0]] = value
        if not counts:
            raise ValueError(f"{path}: no count rows found")
        return counts
    from collections import Counter

    tokens = tokenize(raw)
    if not tokens:
        raise ValueError(f"{path}: no tokens found")
    return {k: float(v) for k, v in Counter(tokens).items()}


# ------------------------------------------------------------------- compose


def _compose_curve_fn(args: argparse.Namespace) -> Callable[[float], float]:
    kind = args.kind
    if kind == "dp":
        return lambda eg: delta_opt_dp(args.k, args.eps, eg)
    if kind == "br":
        return lambda eg: delta_opt_br_nonadaptive(args.k, args.eps, eg)
    if kind == "mixed":
        if args.m is None:
            raise ValueError("compose mixed requires --m")
        return lambda eg: delta_opt_mixed(
            CompositionQuery(k=args.k, m=args.m, eps=args.eps, eps_g=eg)
        )
    if kind == "adaptive":
        if not args.slots:
            raise ValueError("compose adaptive requires --slots, e.g. dp,br,br")
        seq = MechanismSequence(
            slots=tuple(s.strip() for s in args.slots.split(",")), eps=args.eps
        )
        return lambda eg: delta_opt_recursive(seq, eg)
    raise ValueError(f"unknown compose kind {kind!r}")


def _cmd_compose(args: argparse.Namespace, seed: int) -> int:
    if args.kind == "setwise":
        if not args.config:
            raise ValueError("compose setwise requires --config with accountant JSON")
        with open(args.config, "r", encoding="utf-8") as handle:
            accountant = SetwiseAccountant.from_json(handle.read())
        try:
            print(_fmt(accountant.global_bound_cdp(args.delta)))
        except ValueError:
            eps_g, total = accountant.global_bound_zcdp(args.delta)
            print(f"{_fmt(eps_g)} {_fmt(total)}")
        return 0

    if args.invert:
        if args.delta is None:
            raise ValueError("--invert requires --delta")
        if args.kind == "adaptive":
            raise ValueError("--invert supports dp, br, and mixed only")
        value = eps_inverse(args.delta, args.kind, args.k, args.eps, m=args.m)
        print(_fmt(value))
        return 0

    fn = _compose_curve_fn(args)
    if args.eps_g is not None:
        print(_fmt(fn(args.eps_g)))
        return 0
    if args.eps_g_grid is None:
        raise ValueError("give --eps-g, --eps-g-grid, or --invert with --delta")
    grid = _parse_grid(args.eps_g_grid)
    params = {
        "command": f"compose {args.kind}",
        "eps": args.eps,
        "grid": args.eps_g_grid,
    }
    if args.kind != "adaptive":
        params["k"] = args.k
    if args.kind == "mixed":
        params["m"] = args.m
    if args.kind == "adaptive":
        params["slots"] = args.slots
    rows = [[eg, fn(eg)] for eg in grid]
    with _open_output(args.output) as stream:
        _write_table(stream, params, ["eps_g", "delta"], rows, args.format)
    return 0


# ------------------------------------------------------------------- compare


def _spec_from_args(args: argparse.Namespace) -> HistogramSpec:
    d = args.d or args.delta0
    d_bar = args.d_bar or d
    return HistogramSpec(d=d, delta0=args.delta0, tau=args.tau, d_bar=d_bar)


def _cmd_compare(args: argparse.Namespace, seed: int) -> int:
    spec = _spec_from_args(args)
    if args.mode == "single":
        rows_raw = single_release_comparison(spec, args.sigma, args.delta)
    else:
        rows_raw = kfold_comparison(
            args.k, spec, args.sigma, args.delta, grid_points=args.grid_points
        )
    params = {
        "command": f"compare {args.mode}",
        "delta0": args.delta0,
        "tau": args.tau,
        "sigma": args.sigma,
        "delta": args.delta,
    }
    if args.mode == "kfold":
        params["k"] = args.k
    header = ["method", "k", "count", "eps_each", "eps_g"]
    rows = [[r[key] for key in header] for r in rows_raw]
    with _open_output(args.output) as stream:
        _write_table(stream, params, header, rows, args.format)
    return 0


# ------------------------------------------------------------------- figures


def _demo_histogram() -> Histogram:
    # synthetic heavy-tailed word counts, deterministic by construction
    spec = HistogramSpec(d=200, delta0=25, tau=1.0, d_bar=200)
    counts = {f"w{i:03d}": float(500 // (i + 1)) for i in range(200)}
    return histogram_from_counts(counts, spec=spec)


def _figure_1(seed: int):
    eps, delta = 0.1, 1e-6
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    rows = []
    for k in range(1, 101):
        eps_opt_dp = eps_inverse(delta, "dp", k, eps)
        for frac in fractions:
            m = round(frac * k)
            bound = global_bound_homogeneous(
                m, eps, k - m, eps, 0, 0.0, 1.0, delta
            )
            rows.append([k, frac, m, bound, eps_opt_dp])
    params = {
        "figure": 1,
        "eps": eps,
        "delta": delta,
        "k": "1..100",
        "m_fractions": "0,0.25,0.5,0.75,1",
    }
    return params, ["k", "dp_fraction", "m", "eps_g_setwise", "eps_g_opt_dp"], rows


def _figure_2(seed: int):
    k, eps = 20, 0.1
    grid = _parse_grid("0:3:0.01")
    rows = []
    for m in (0, 5, 10, 15, 20):
        for eg in grid:
            rows.append(
                [
                    k,
                    m,
                    eg,
                    delta_opt_mixed(CompositionQuery(k=k, m=m, eps=eps, eps_g=eg)),
                ]
            )
    params = {"figure": 2, "k": k, "eps": eps, "grid": "0:3:0.01"}
    return params, ["k", "m", "eps_g", "delta"], rows


def _figure_3(seed: int):
    eps = 1.0
    eps_g_values = [round(0.01 * i, 2) for i in range(1, 100)]
    raw = ordering_gap_curve(eps, eps_g_values)
    rows = [
        [r["eps_g"], r["delta_dp_br_br"], r["delta_br_dp_br"], r["abs_gap"], r["ratio"]]
        for r in raw
    ]
    params = {"figure": 3, "eps": eps, "grid": "0.01:0.99:0.01"}
    header = ["eps_g", "delta_dp_br_br", "delta_br_dp_br", "abs_gap", "ratio"]
    return params, header, rows


def _figure_4(seed: int):
    sigma, tau, delta = 10.0, 1.0, 1e-6
    rows = []
    for delta0 in range(1, 51):
        spec = HistogramSpec(d=delta0, delta0=delta0, tau=tau, d_bar=delta0)
        for r in single_release_comparison(spec, sigma, delta):
            rows.append([delta0, r["method"], r["count"], r["eps_each"], r["eps_g"]])
    params = {
        "figure": 4,
        "sigma": sigma,
        "tau": tau,
        "delta": delta,
        "delta0": "1..50",
    }
    return params, ["delta0", "method", "count", "eps_each", "eps_g"], rows


def _figure_5(seed: int):
    sigma, tau, delta, delta0 = 10.0, 1.0, 1e-6, 10
    spec = HistogramSpec(d=delta0, delta0=delta0, tau=tau, d_bar=delta0)
    rows = []
    for k in range(1, 11):
        for r in kfold_comparison(k, spec, sigma, delta):
            rows.append([k, r["method"], r["count"], r["eps_each"], r["eps_g"]])
    params = {
        "figure": 5,
        "sigma": sigma,
        "tau": tau,
        "delta": delta,
        "delta0": delta0,
        "k": "1..10",
    }
    return params, ["k", "method", "count", "eps_each", "eps_g"], rows


def _figure_6(seed: int):
    # matched budget: 25 Laplace coordinates at eps each, against one
    # ordering-projected Gaussian release calibrated to the same global
    # (eps_g, delta) through the concentrated route
    hist = _demo_histogram()
    k, eps, delta, trials = 25, 0.1, 1e-6, 100
    eps_g = eps_inverse(delta, "dp", k, eps)
    sigma = solve_sigma_zcdp(eps_g, k, delta)
    top = [element for element, _ in hist.sorted_items()[:k]]
    restricted = hist.restrict(top)
    ls_values = np.empty((trials, k))
    lap_values = np.empty((trials, k))
    root = RngState(seed)
    for trial in range(trials):
        rng = root.derive(trial)
        ls_values[trial] = [v for _, v in ls_noise(restricted, top, sigma, rng.derive(0))]
        lap_values[trial] = [v for _, v in known_lap_topk(hist, k, eps, rng.derive(1))]
    rows = []
    for rank, element in enumerate(top, start=1):
        i = rank - 1
        rows.append(
            [
                rank,
                element,
                hist.count(element),
                float(np.mean(ls_values[:, i])),
                float(np.std(ls_values[:, i], ddof=1)),
                float(np.mean(lap_values[:, i])),
                float(np.std(lap_values[:, i], ddof=1)),
            ]
        )
    params = {
        "figure": 6,
        "k": k,
        "eps_each": eps,
        "delta": delta,
        "eps_g": eps_g,
        "sigma": sigma,
        "trials": trials,
        "seed": seed,
    }
    header = [
        "rank",
        "element",
        "true_count",
        "lsnoise_mean",
        "lsnoise_sd",
        "laplace_mean",
        "laplace_sd",
    ]
    return params, header, rows


def _figure_7(seed: int):
    eps, delta, tau = 0.1, 1e-10, 1.0
    rows = []
    for delta0 in range(1, 51):
        sigma = solve_sigma_zcdp(eps, delta0, delta)
        t_level = solve_truncation_level(delta0, tau, sigma, delta)
        rows.append([delta0, sigma, t_level])
    params = {"figure": 7, "eps": eps, "delta": delta, "tau": tau, "delta0": "1..50"}
    return params, ["delta0", "sigma", "t_level"], rows


_FIGURES = {
    1: _figure_1,
    2: _figure_2,
    3: _figure_3,
    4: _figure_4,
    5: _figure_5,
    6: _figure_6,
    7: _figure_7,
}


def figure_data(figure: int, seed: int = 0):
    """(params, header, rows) for one figure's underlying data."""
    if figure not in _FIGURES:
        raise ValueError(f"figure must be one of {sorted(_FIGURES)}, got {figure}")
    return _FIGURES[figure](seed)


def _cmd_figures(args: argparse.Namespace, seed: int) -> int:
    params, header, rows = figure_data(args.figure, seed)
    path = args.output
    if path == "-" and args.output_dir is not None:
        path = os.path.join(args.output_dir, f"fig{args.figure}.csv")
    with _open_output(path) as stream:
        _write_table(stream, params, header, rows, args.format)
    if path != "-":
        print(path)
    return 0


# ---------------------------------------------------------------------- topk


def _cmd_topk(args: argparse.Namespace, seed: int) -> int:
    counts = load_histogram_counts(args.input)
    d = len(counts)
    delta0 = args.delta0 if args.delta0 else min(args.k or d, d)
    d_bar = args.d_bar if args.d_bar else d
    spec = HistogramSpec(d=d, delta0=delta0, tau=args.tau, d_bar=max(d, d_bar))
    hist = histogram_from_counts(counts, spec=spec)
    rng = RngState(seed)

    mode = args.mode
    if mode == "known-lap":
        if args.k is None or args.eps is None:
            raise ValueError("known-lap requires --k and --eps")
        released = known_lap_topk(hist, args.k, args.eps, rng)
        rows = [[rank, e, v] for rank, (e, v) in enumerate(released, start=1)]
    elif mode == "known-gauss":
        if args.sigma is None:
            raise ValueError("known-gauss requires --sigma")
        released = known_gauss(hist, args.sigma, rng)
        if args.k is not None:
            released = released[: args.k]
        rows = [[rank, e, v] for rank, (e, v) in enumerate(released, start=1)]
    elif mode == "lsnoise":
        if args.k is None or args.eps is None or args.sigma is None:
            raise ValueError("lsnoise requires --k, --eps, and --sigma")
        released = topk_release(hist, args.k, args.eps, args.sigma, rng)
        rows = [[rank, e, v] for rank, (e, v) in enumerate(released, start=1)]
    elif mode == "trunc-gauss":
        if args.sigma is None or args.delta is None:
            raise ValueError("trunc-gauss requires --sigma and --delta")
        config = TruncGaussConfig.from_target(spec, args.sigma, args.delta)
        entries = trunc_gauss_release(hist, config, rng)
        rows = [[e.rank + 1, e.element, e.value] for e in entries]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    params = {
        "command": f"topk {mode}",
        "input": args.input,
        "seed": seed,
        "tau": args.tau,
        "delta0": delta0,
        "d": d,
    }
    for name in ("k", "eps", "sigma", "delta"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    with _open_output(args.output) as stream:
        _write_table(stream, params, ["rank", "element", "noisy_count"], rows, args.format)
    return 0


# --------------------------------------------------------------------- audit


def _cmd_audit(args: argparse.Namespace, seed: int) -> int:
    rng = RngState(seed)
    if args.mechanism == "two-point":
        report = audit_two_point(args.eps, args.t, args.eps_g, args.trials, rng)
    elif args.mechanism == "composed-dp":
        report = audit_composed_dp(args.k, args.eps, args.eps_g, args.trials, rng)
    else:
        spec = HistogramSpec(
            d=args.delta0, delta0=args.delta0, tau=args.tau, d_bar=args.delta0
        )
        config = TruncGaussConfig.from_target(spec, args.sigma, args.delta)
        report = audit_trunc_gauss(
            config, args.trials, rng, conversion_delta=args.conversion_delta
        )
    with _open_output(args.output) as stream:
        stream.write(report.to_json())
        stream.write("\n")
    return 0


# ----------------------------------------------------------------- calibrate


def _cmd_calibrate(args: argparse.Namespace, seed: int) -> int:
    if args.route == "zcdp":
        sigma = solve_sigma_zcdp(args.eps, args.delta0, args.delta)
    else:
        unit = solve_sigma_analytic(
            args.eps, args.delta, max_bisections=args.max_iter
        )
        sigma = unit * math.sqrt(args.delta0)
    print(_fmt(sigma))
    return 0


# -------------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", default="-", help="output path, - for stdout")
    parser.add_argument("--seed", type=int, default=None, help=f"default ${_SEED_ENV} or 0")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcomp",
        description="Composition bounds, calibration, private top-k demos, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compose = sub.add_parser("compose", help="composition bounds and inversions")
    compose.add_argument("kind", choices=("dp", "br", "mixed", "adaptive", "setwise"))
    compose.add_argument("--k", type=int, default=None)
    compose.add_argument("--m", type=int, default=None)
    compose.add_argument("--eps", type=float, default=None)
    compose.add_argument("--eps-g", type=float, default=None)
    compose.add_argument("--eps-g-grid", default=None, help="lo:hi:step")
    compose.add_argument("--invert", action="store_true", help="emit eps_g at --delta")
    compose.add_argument("--delta", type=float, default=None)
    compose.add_argument("--slots", default=None, help="adaptive slot list, e.g. dp,br,br")
    compose.add_argument("--config", default=None, help="setwise accountant JSON file")
    _add_common(compose)

    compare = sub.add_parser("compare", help="noise-matched mechanism comparisons")
    compare.add_argument("mode", choices=("single", "kfold"))
    compare.add_argument("--delta0", type=int, required=True)
    compare.add_argument("--sigma", type=float, required=True)
    compare.add_argument("--delta", type=float, required=True)
    compare.add_argument("--tau", type=float, default=1.0)
    compare.add_argument("--d", type=int, default=None)
    compare.add_argument("--d-bar", type=int, default=None)
    compare.add_argument("--k", type=int, default=1)
    compare.add_argument("--grid-points", type=int, default=50)
    _add_common(compare)

    figures = sub.add_parser("figures", help="emit the data behind one figure")
    figures.add_argument("figure", type=int, choices=sorted(_FIGURES))
    figures.add_argument("--output-dir", default=None)
    _add_common(figures)

    topk = sub.add_parser("topk", help="run one top-k release pipeline")
    topk.add_argument(
        "--mode",
        required=True,
        choices=("known-lap", "known-gauss", "lsnoise", "trunc-gauss"),
    )
    topk.add_argument("--input", required=True, help="corpus text, .json, or .csv counts")
    topk.add_argument("--k", type=int, default=None)
    topk.add_argument("--eps", type=float, default=None)
    topk.add_argument("--sigma", type=float, default=None)
    topk.add_argument("--delta", type=float, default=None)
    topk.add_argument("--tau", type=float, default=1.0)
    topk.add_argument("--delta0", type=int, default=None)
    topk.add_argument("--d-bar", type=int, default=None)
    _add_common(topk)

    audit = sub.add_parser("audit", help="Monte-Carlo privacy audit, JSON report")
    audit.add_argument("mechanism", choices=("two-point", "composed-dp", "trunc-gauss"))
    audit.add_argument("--eps", type=float, default=None)
    audit.add_argument("--t", type=float, default=None)
    audit.add_argument("--k", type=int, default=None)
    audit.add_argument("--eps-g", type=float, default=None)
    audit.add_argument("--sigma", type=float, default=None)
    audit.add_argument("--delta", type=float, default=None)
    audit.add_argument("--tau", type=float, default=1.0)
    audit.add_argument("--delta0", type=int, default=1)
    audit.add_argument("--conversion-delta", type=float, default=1e-6)
    audit.add_argument("--trials", type=int, default=100000)
    _add_common(audit)

    calibrate = sub.add_parser("calibrate", help="solve sigma for a target (eps, delta)")
    calibrate.add_argument("--route", choices=("analytic", "zcdp"), required=True)
    calibrate.add_argument("--eps", type=float, required=True)
    calibrate.add_argument("--delta", type=float, required=True)
    calibrate.add_argument("--delta0", type=int, default=1)
    calibrate.add_argument("--max-iter", type=int, default=200)
    _add_common(calibrate)

    return parser


_HANDLERS = {
    "compose": _cmd_compose,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "topk": _cmd_topk,
    "audit": _cmd_audit,
    "calibrate": _cmd_calibrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, _resolve_seed(args.seed))
    except (BracketError, ConvergenceError) as exc:
        print(f"dpcomp: solver failed to converge: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"dpcomp: i/o error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"dpcomp: invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
