"""Command-line surface for composition queries, figures, demos, audits.

Every run is reproducible from its arguments: the randomized commands
(figures, topk, audit) take --seed (a nonnegative integer, default 0);
tables carry a `# params:` provenance line and 17-significant-digit
decimals, so regenerated files match byte for byte.  Each compose kind,
compare mode and audit mechanism is a subcommand of its own that accepts
only the options it reads; topk checks its per-mode options itself.
Handlers return their result as text chunks, and main alone writes them.

Exit codes: 0 success, 2 usage or precondition violation, 3 a solver
failed to bracket or converge, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .adaptive import MechanismSequence, delta_opt_recursive, ordering_gap_curve
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
    _check_k,
    histogram_from_counts,
    known_gauss,
    known_lap_topk,
    ls_noise,
    solve_truncation_level,
    topk_release,
    trunc_gauss_release,
)
from .nonadaptive import CompositionQuery, _bound_curve, delta_opt_mixed, eps_inverse
from .numerics import BracketError, ConvergenceError
from .setwise import SetwiseAccountant, global_bound_homogeneous

__all__ = ["figure_data", "load_histogram_counts", "main"]

# a larger --eps-g-grid is a typo in its step, not a curve to compute
_MAX_GRID_POINTS = 10**6


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _table(
    params: Mapping[str, object],
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    fmt: str,
) -> Iterator[str]:
    # row by row: joining the rows would double a d-row release's peak memory
    if fmt == "json":
        payload = {
            "params": {k: params[k] for k in sorted(params)},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        yield json.dumps(payload, indent=2, sort_keys=True)
        yield "\n"
        return
    provenance = " ".join(f"{k}={_fmt(params[k])}" for k in sorted(params))
    yield f"# params: {provenance}\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


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
    last = (hi - lo) / step + 1e-9  # index of the last point, before floor
    if last >= _MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points, got {text!r}")
    count = int(math.floor(last)) + 1
    return [lo + i * step for i in range(count)]


def _seed(text: str) -> int:
    """argparse type of --seed: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------- histograms


_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens, split on anything that is not alphanumeric."""
    return _TOKEN.findall(text.lower())


def _unique_pairs(pairs: list[tuple[str, object]]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"element {key!r} appears more than once")
        out[key] = value
    return out


def load_histogram_counts(path: str) -> dict[str, float]:
    """Counts from a .json mapping, a two-column .csv, or a text corpus.

    An element listed twice in a .json or .csv input is an error: its
    count would otherwise depend on which row came last.  A .json count
    must be a JSON number within the float range, not a string, a bool
    or null.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    if path.endswith(".json"):
        try:
            data = json.loads(raw, object_pairs_hook=_unique_pairs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object mapping element to count")
        counts = {}
        for element, value in data.items():
            if type(value) not in (int, float):  # bool is an int subclass
                raise ValueError(
                    f"{path}: count for {element!r} is not a number: {json.dumps(value)}"
                )
            try:
                counts[element] = float(value)
            except OverflowError:
                raise ValueError(
                    f"{path}: count for {element!r} is beyond the float range"
                ) from None
        return counts
    if path.endswith(".csv"):
        counts: dict[str, float] = {}
        rows = 0
        for lineno, line in enumerate(raw.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}: expected element,count rows, got {line!r}")
            rows += 1
            try:
                value = float(cells[1])
            except ValueError:
                if rows == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}: line {lineno}: count is not a number in {line!r}"
                ) from None
            element = cells[0]
            if element in counts:
                raise ValueError(
                    f"{path}: line {lineno}: element {element!r} is listed twice"
                )
            counts[element] = value
        if not counts:
            raise ValueError(f"{path}: no count rows found")
        return counts
    from collections import Counter

    tokens = tokenize(raw)
    if not tokens:
        raise ValueError(f"{path}: no tokens found")
    return {k: float(v) for k, v in Counter(tokens).items()}


# ------------------------------------------------------------------- compose


def _value(args: argparse.Namespace, compute: Callable[[], float]) -> tuple[str]:
    """One number on one line: --format shapes --eps-g-grid tables only."""
    if args.format == "json":
        raise ValueError("--format json needs --eps-g-grid; a single value is one line")
    return (_fmt(compute()) + "\n",)


def _curve(
    args: argparse.Namespace, fn: Callable[[float], float], params: dict
) -> Iterable[str]:
    """fn at --eps-g, or a table of fn over --eps-g-grid."""
    if args.eps_g is not None:
        return _value(args, lambda: fn(args.eps_g))
    grid = _parse_grid(args.eps_g_grid)
    params.update(command=f"compose {args.kind}", eps=args.eps, grid=args.eps_g_grid)
    rows = [[eg, fn(eg)] for eg in grid]
    return _table(params, ["eps_g", "delta"], rows, args.format)


def _cmd_compose_bound(args: argparse.Namespace) -> Iterable[str]:
    if args.invert != (args.delta is not None):
        raise ValueError("--invert and --delta go together")
    if args.invert:
        return _value(
            args, lambda: eps_inverse(args.delta, args.kind, args.k, args.eps, m=args.m)
        )
    params = {"k": args.k} if args.m is None else {"k": args.k, "m": args.m}
    return _curve(args, _bound_curve(args.kind, args.k, args.eps, args.m), params)


def _cmd_compose_adaptive(args: argparse.Namespace) -> Iterable[str]:
    seq = MechanismSequence(tuple(s.strip() for s in args.slots.split(",")), args.eps)
    return _curve(args, lambda eg: delta_opt_recursive(seq, eg), {"slots": args.slots})


def _cmd_compose_setwise(args: argparse.Namespace) -> Iterable[str]:
    with open(args.config, "r", encoding="utf-8") as handle:
        accountant = SetwiseAccountant.from_json(handle.read())
    try:
        return (_fmt(accountant.global_bound_cdp(args.delta)) + "\n",)
    except ValueError:
        eps_g, total = accountant.global_bound_zcdp(args.delta)
        return (f"{_fmt(eps_g)} {_fmt(total)}\n",)


# ------------------------------------------------------------------- compare


def _cmd_compare(args: argparse.Namespace) -> Iterable[str]:
    spec = HistogramSpec(d=args.delta0, delta0=args.delta0, tau=args.tau, d_bar=args.delta0)
    if args.mode == "single":
        rows_raw = single_release_comparison(spec, args.sigma, args.delta)
    else:
        rows_raw = kfold_comparison(args.k, spec, args.sigma, args.delta)
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
    return _table(params, header, rows, args.format)


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


def _cmd_figures(args: argparse.Namespace) -> Iterable[str]:
    return _table(*figure_data(args.figure, args.seed), args.format)


# ---------------------------------------------------------------------- topk


# per mode, the options it needs and those it may take; every mode reads
# --tau, --delta0 and --d-bar, which build the HistogramSpec it checks
_TOPK_OPTIONS = {
    "known-lap": (("k", "eps"), ()),
    "known-gauss": (("sigma",), ("k",)),
    "lsnoise": (("k", "eps", "sigma"), ()),
    "trunc-gauss": (("sigma", "delta"), ("k",)),  # k sets the default delta0
}


def _cmd_topk(args: argparse.Namespace) -> Iterable[str]:
    mode = args.mode
    needs, takes = _TOPK_OPTIONS[mode]
    for name in ("k", "eps", "sigma", "delta"):
        if getattr(args, name) is None and name in needs:
            raise ValueError(f"{mode} requires --{name}")
        if getattr(args, name) is not None and name not in needs + takes:
            raise ValueError(f"topk --mode {mode} does not read --{name}")
    counts = load_histogram_counts(args.input)
    d = len(counts)
    if args.k is not None:
        _check_k(args.k, d)
    k = d if args.k is None else args.k
    delta0 = min(k, d) if args.delta0 is None else args.delta0
    d_bar = d if args.d_bar is None else args.d_bar
    spec = HistogramSpec(d=d, delta0=delta0, tau=args.tau, d_bar=d_bar)
    hist = histogram_from_counts(counts, spec=spec)
    rng = RngState(args.seed)
    if mode == "known-lap":
        ranked = enumerate(known_lap_topk(hist, args.k, args.eps, rng), start=1)
    elif mode == "known-gauss":
        ranked = enumerate(known_gauss(hist, args.sigma, rng)[: args.k], start=1)
    elif mode == "lsnoise":
        ranked = enumerate(topk_release(hist, args.k, args.eps, args.sigma, rng), start=1)
    else:
        config = TruncGaussConfig.from_target(spec, args.sigma, args.delta)
        entries = trunc_gauss_release(hist, config, rng)
        # e.rank counts the unpublished elements too, so ranks can skip
        ranked = ((e.rank + 1, (e.element, e.value)) for e in entries)
    rows = [[rank, e, v] for rank, (e, v) in ranked]

    params = {
        "command": f"topk {mode}",
        "input": args.input,
        "seed": args.seed,
        "tau": args.tau,
        "delta0": delta0,
        "d": d,
    }
    for name in needs + takes:
        if getattr(args, name) is not None:
            params[name] = getattr(args, name)
    return _table(params, ["rank", "element", "noisy_count"], rows, args.format)


# --------------------------------------------------------------------- audit


def _cmd_audit(args: argparse.Namespace) -> Iterable[str]:
    rng = RngState(args.seed)
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
    return (report.to_json() + "\n",)


# ----------------------------------------------------------------- calibrate


def _cmd_calibrate(args: argparse.Namespace) -> Iterable[str]:
    if args.delta0 < 1:
        raise ValueError(f"delta0 must be >= 1, got {args.delta0}")
    if args.route == "zcdp":
        sigma = solve_sigma_zcdp(args.eps, args.delta0, args.delta)
    else:
        unit = solve_sigma_analytic(args.eps, args.delta)
        sigma = unit * math.sqrt(args.delta0)
    return (_fmt(sigma) + "\n",)


# -------------------------------------------------------------------- parser


def _add_output(
    parser: argparse.ArgumentParser, table: bool = True, seed: bool = False
) -> None:
    """-o, plus --format on table writers and --seed on randomized commands."""
    parser.add_argument("--output", "-o", default="-", help="output path, - for stdout")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if seed:
        parser.add_argument("--seed", type=_seed, default=0, help="nonnegative, default 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcomp",
        description="Composition bounds, calibration, private top-k demos, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compose = sub.add_parser("compose", help="composition bounds and inversions")
    kinds = compose.add_subparsers(dest="kind", required=True)
    for kind in ("dp", "br", "mixed", "adaptive"):
        leaf = kinds.add_parser(kind)
        if kind == "adaptive":
            leaf.add_argument("--slots", required=True, help="slot list, e.g. dp,br,br")
        else:
            leaf.add_argument("--k", type=int, required=True)
        if kind == "mixed":
            leaf.add_argument("--m", type=int, required=True)
        leaf.add_argument("--eps", type=float, required=True)
        target = leaf.add_mutually_exclusive_group(required=True)
        target.add_argument("--eps-g", type=float)
        target.add_argument("--eps-g-grid", help="lo:hi:step")
        if kind != "adaptive":
            target.add_argument("--invert", action="store_true", help="emit eps_g at --delta")
            leaf.add_argument("--delta", type=float, help="with --invert")
        _add_output(leaf)
        run = _cmd_compose_adaptive if kind == "adaptive" else _cmd_compose_bound
        leaf.set_defaults(run=run, m=None)  # dp and br price with m = None
    leaf = kinds.add_parser("setwise")
    leaf.add_argument("--config", required=True, help="accountant JSON file")
    leaf.add_argument("--delta", type=float, help="default: the accountant's delta_slack")
    leaf.set_defaults(run=_cmd_compose_setwise)

    compare = sub.add_parser("compare", help="noise-matched mechanism comparisons")
    modes = compare.add_subparsers(dest="mode", required=True)
    for mode in ("single", "kfold"):
        leaf = modes.add_parser(mode)
        leaf.add_argument("--delta0", type=int, required=True)
        leaf.add_argument("--sigma", type=float, required=True)
        leaf.add_argument("--delta", type=float, required=True)
        leaf.add_argument("--tau", type=float, default=1.0)
        if mode == "kfold":
            leaf.add_argument("--k", type=int, default=1)
        _add_output(leaf)
        leaf.set_defaults(run=_cmd_compare)

    figures = sub.add_parser("figures", help="emit the data behind one figure")
    figures.add_argument("figure", type=int, choices=sorted(_FIGURES))
    _add_output(figures, seed=True)
    figures.set_defaults(run=_cmd_figures)

    topk = sub.add_parser("topk", help="run one top-k release pipeline")
    topk.add_argument("--mode", required=True, choices=tuple(_TOPK_OPTIONS))
    topk.add_argument("--input", required=True, help="corpus text, .json, or .csv counts")
    topk.add_argument("--k", type=int, default=None)
    topk.add_argument("--eps", type=float, default=None)
    topk.add_argument("--sigma", type=float, default=None)
    topk.add_argument("--delta", type=float, default=None)
    topk.add_argument("--tau", type=float, default=1.0)
    topk.add_argument("--delta0", type=int, default=None)
    topk.add_argument("--d-bar", type=int, default=None)
    _add_output(topk, seed=True)
    topk.set_defaults(run=_cmd_topk)

    audit = sub.add_parser("audit", help="Monte-Carlo privacy audit, JSON report")
    mechanisms = audit.add_subparsers(dest="mechanism", required=True)
    two_point = mechanisms.add_parser("two-point")
    two_point.add_argument("--eps", type=float, required=True)
    two_point.add_argument("--t", type=float, required=True)
    two_point.add_argument("--eps-g", type=float, required=True)
    composed = mechanisms.add_parser("composed-dp")
    composed.add_argument("--k", type=int, required=True)
    composed.add_argument("--eps", type=float, required=True)
    composed.add_argument("--eps-g", type=float, required=True)
    trunc = mechanisms.add_parser("trunc-gauss")
    trunc.add_argument("--sigma", type=float, required=True)
    trunc.add_argument("--delta", type=float, required=True)
    trunc.add_argument("--tau", type=float, default=1.0)
    trunc.add_argument("--delta0", type=int, default=1)
    trunc.add_argument("--conversion-delta", type=float, default=1e-6)
    for leaf in (two_point, composed, trunc):
        leaf.add_argument("--trials", type=int, default=100000)
        _add_output(leaf, table=False, seed=True)
        leaf.set_defaults(run=_cmd_audit)

    calibrate = sub.add_parser("calibrate", help="solve sigma for a target (eps, delta)")
    calibrate.add_argument("--route", choices=("analytic", "zcdp"), required=True)
    calibrate.add_argument("--eps", type=float, required=True)
    calibrate.add_argument("--delta", type=float, required=True)
    calibrate.add_argument("--delta0", type=int, default=1)
    calibrate.set_defaults(run=_cmd_calibrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        chunks = args.run(args)
        if getattr(args, "output", "-") == "-":  # compose setwise and calibrate have no -o
            sys.stdout.writelines(chunks)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            if args.command == "figures":
                print(args.output)
        return 0
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
