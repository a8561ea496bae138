"""How each benchmark request runs against the package, and how it is checked.

``prepare(req)`` does the untimed part of a request (building inputs,
writing files) and returns a ``Prepared``: the timed call and the check
its output must pass. The checks themselves live in ``checks``; this module
wires requests to package calls and, for ``cli``, to child processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    AUDIT_SE,
    CheckError,
    bound_fn,
    check_adaptive,
    check_audit,
    check_calibrate,
    check_cdp_bound,
    check_curve,
    check_inverse,
    check_known_gauss,
    check_ledger,
    check_topk,
    check_trunc_gauss,
    close,
    require,
)
from streams import CLI_CORPORA, RELEASE_DELTA0, RELEASE_SIZES

TAU = 1.0


@dataclass
class Prepared:
    call: Callable[[], object]
    check: Callable[[object], None]
    elements: int = 0  # histogram entries the request touches


def zipf_counts(d: int, top: float = 1e6, prefix: str = "e") -> dict[str, float]:
    """floor(top / i^1.1) for ranks i = 1..d: a long tail of tied counts."""
    counts = np.floor(top / np.arange(1, d + 1, dtype=float) ** 1.1).tolist()
    return dict(zip((f"{prefix}{i:07d}" for i in range(1, d + 1)), counts))


# ------------------------------------------------------------------ pricing


def _privacy_class(dp, reg: dict):
    if reg["tag"] == "pure_dp":
        return dp.PureDP(eps=reg["eps"])
    if reg["tag"] == "br":
        return dp.BoundedRange(alpha=reg["alpha"])
    return dp.Cdp(mu=reg["mu"], tau=reg["tau"])


def _ledger_session(dp, req: dict, classes: list):
    acc = dp.SetwiseAccountant(delta_slack=req["delta_slack"])
    for c in classes:
        acc.register(c)
    bound_cdp = acc.global_bound_cdp(req["delta"])
    acc.global_bound_zcdp(req["delta"])
    acc = dp.SetwiseAccountant.from_json(acc.to_json())
    for i in req["consume_order"]:
        acc.consume(classes[i])
    acc = dp.SetwiseAccountant.from_json(acc.to_json())
    return bound_cdp, len(acc.registered), len(acc.consumed)


def prepare_pricing(dp, req: dict) -> Prepared:
    cls = req["cls"]
    if cls == "invert":
        bound, k, eps, delta, m = req["bound"], req["k"], req["eps"], req["delta"], req.get("m")
        return Prepared(
            call=lambda: dp.eps_inverse(delta, bound, k, eps, m=m),
            check=lambda eg: check_inverse(bound_fn(dp, bound, k, eps, m), delta, eg),
        )
    if cls == "curve":
        n, lo, hi = req["points"], req["eps_g_lo"], req["eps_g_hi"]
        grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        k, m, eps = req["k"], req["m"], req["eps"]
        return Prepared(
            call=lambda: [dp.delta_opt_mixed(dp.CompositionQuery(k=k, m=m, eps=eps, eps_g=eg))
                          for eg in grid],
            check=check_curve,
        )
    if cls == "calibrate":
        spec = dp.HistogramSpec(d=req["delta0"], delta0=req["delta0"], tau=TAU, d_bar=req["delta0"])

        def calibrate():
            rows = dp.kfold_comparison(req["k"], spec, req["sigma"], req["delta"])
            return rows, dp.solve_sigma_analytic(req["eps"], req["delta"])

        return Prepared(call=calibrate, check=lambda out: check_calibrate(dp, req, *out))
    if cls == "adaptive":
        seq = dp.MechanismSequence(tuple(req["slots"]), req["eps"])
        return Prepared(
            call=lambda: dp.delta_opt_recursive(seq, req["eps_g"]),
            check=lambda value: check_adaptive(dp, req, value),
        )
    if cls == "ledger":
        classes = [_privacy_class(dp, r) for r in req["registrations"]]
        return Prepared(
            call=lambda: _ledger_session(dp, req, classes),
            check=lambda out: check_ledger(req, *out),
        )
    raise ValueError(f"unknown pricing request {cls!r}")


# ------------------------------------------------------------------ release


@dataclass
class ReleaseInput:
    """One histogram size: the generated counts and the program's Histogram."""

    counts: dict
    spec: object
    hist: object


def release_inputs() -> dict[int, dict]:
    """Zipf counts at every release size (benchmark input, not set-up)."""
    items = list(zipf_counts(max(RELEASE_SIZES)).items())
    return {d: dict(items[:d]) for d in RELEASE_SIZES}


def build_histograms(dp, inputs: dict[int, dict]) -> dict[int, ReleaseInput]:
    """The program's set-up: one Histogram per size."""
    out = {}
    for d, counts in inputs.items():
        spec = dp.HistogramSpec(d=d, delta0=RELEASE_DELTA0, tau=TAU, d_bar=d)
        out[d] = ReleaseInput(counts, spec, dp.histogram_from_counts(counts, spec=spec))
    return out


def prepare_release(dp, req: dict, hists: dict[int, ReleaseInput]) -> Prepared:
    cls = req["cls"]
    rng = dp.RngState(req["seed"])
    if cls == "audit":
        return _prepare_audit(dp, req, rng)
    data = hists[req["d"]]
    hist, counts, d = data.hist, data.counts, req["d"]
    if cls == "lsnoise":
        k = req["k"]
        return Prepared(
            call=lambda: dp.topk_release(hist, k, req["eps"], req["sigma"], rng),
            check=lambda out: check_topk(out, k, counts, nonneg=True),
            elements=d,
        )
    if cls == "known-lap":
        k = req["k"]
        return Prepared(
            call=lambda: dp.known_lap_topk(hist, k, req["eps"], rng),
            check=lambda out: check_topk(out, k, counts, nonneg=False),
            elements=d,
        )
    if cls == "known-gauss":
        return Prepared(
            call=lambda: dp.known_gauss(hist, req["sigma"], rng),
            check=lambda out: check_known_gauss(out, counts, TAU * req["sigma"]),
            elements=d,
        )
    if cls == "trunc-gauss":
        def release():
            config = dp.TruncGaussConfig.from_target(data.spec, req["sigma"], req["delta"])
            return config, dp.trunc_gauss_release(hist, config, rng)

        return Prepared(
            call=release,
            check=lambda out: check_trunc_gauss(out[1], counts, TAU, out[0].t_level, d),
            elements=d,
        )
    raise ValueError(f"unknown release request {cls!r}")


def _prepare_audit(dp, req: dict, rng) -> Prepared:
    kind, n = req["kind"], req["trials"]
    if kind == "composed-dp":
        call = lambda: dp.audit_composed_dp(req["k"], req["eps"], req["eps_g"], n, rng)  # noqa: E731
    elif kind == "two-point":
        call = lambda: dp.audit_two_point(req["eps"], req["t"], req["eps_g"], n, rng)  # noqa: E731
    else:
        spec = dp.HistogramSpec(d=1, delta0=1, tau=TAU, d_bar=1)

        def call():
            config = dp.TruncGaussConfig.from_target(spec, req["sigma"], req["delta"])
            return dp.audit_trunc_gauss(config, n, rng)

    return Prepared(call=call, check=check_audit)


# ---------------------------------------------------------------------- cli


def write_corpora(directory: str) -> dict[str, str]:
    """The topk inputs: a .json mapping, a two-column .csv, a text corpus."""
    paths = {}
    for suffix, d in CLI_CORPORA:
        path = os.path.join(directory, f"corpus-{d}.{suffix}")
        if suffix == "json":
            text = json.dumps(zipf_counts(d, top=1e5, prefix="w"))
        elif suffix == "csv":
            rows = zipf_counts(d, top=1e5, prefix="w").items()
            text = "element,count\n" + "".join(f"{e},{c:.0f}\n" for e, c in rows)
        else:
            counts = zipf_counts(d, top=2e4, prefix="w")
            text = "\n".join(" ".join([e] * (int(c) + 1)) for e, c in counts.items())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths[suffix] = path
    return paths


def parse_output(text: str):
    """A CLI table or report as comparable values (floats where they parse)."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    rows = []
    for line in text.splitlines():
        cells = []
        for cell in line.replace(",", " ").split() if not line.startswith("#") else [line]:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or close(a, b, 1e-12)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


class CliContext:
    """Files and reference results shared by the cli requests of one run."""

    def __init__(self, dp, root: str, tmpdir: str, env: dict, deadline: float) -> None:
        self.dp = dp
        self.root = root
        self.tmpdir = tmpdir
        self.env = env
        self.deadline = deadline
        self.corpora = write_corpora(tmpdir)
        self._count = 0
        self._reference_cache: dict[tuple, object] = {}

    def fill(self, req: dict) -> tuple[list[str], str | None]:
        """argv with files in place of the placeholders, plus the -o path."""
        self._count += 1
        out = None
        argv = []
        for arg in req["argv"]:
            if arg == "{out}":
                ext = "json" if req["cls"] == "audit" else "csv"
                out = arg = os.path.join(self.tmpdir, f"out-{self._count}.{ext}")
            elif arg == "{config}":
                arg = self._write_ledger(req["ledger"])
            elif arg.startswith("{corpus:"):
                arg = self.corpora[arg[len("{corpus:"):-1]]
            argv.append(arg)
        return argv, out

    def _write_ledger(self, ledger: dict) -> str:
        dp = self.dp
        classes = [_privacy_class(dp, r) for r in ledger["registrations"]]
        acc = dp.SetwiseAccountant(delta_slack=ledger["delta_slack"])
        for c in classes:
            acc.register(c)
        for i in ledger["consume_order"][: len(classes) // 2]:
            acc.consume(classes[i])
        path = os.path.join(self.tmpdir, f"ledger-{self._count}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(acc.to_json())
        return path

    def run_child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "dpcomp", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=self.deadline,
        )

    def reference(self, argv: list[str], out: str | None):
        """Parsed output of the same call made in process."""
        # a figure takes no parameters, so its reference is computed once
        key = tuple(argv[:2]) if argv[0] == "figures" else None
        if key in self._reference_cache:
            return self._reference_cache[key]
        ref_argv = list(argv)
        ref_out = None
        if out is not None:
            ref_out = out + ".ref"
            ref_argv[ref_argv.index(out)] = ref_out
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = self.dp.cli.main(ref_argv)
        require(code == 0, f"in-process call exited {code}")
        text = captured.getvalue()
        if ref_out is not None:
            with open(ref_out, encoding="utf-8") as handle:
                text = handle.read()
            os.remove(ref_out)
        parsed = parse_output(text)
        if key is not None:
            self._reference_cache[key] = parsed
        return parsed


def _semantic_check(dp, req: dict, argv: list[str], parsed) -> None:
    """Property checks on the CLI's own numbers, beyond agreeing with itself."""
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if req["cls"].startswith("compose-") and "--invert" in argv:
        m = int(opt["--m"]) if "--m" in opt else None
        f = bound_fn(dp, argv[1], int(opt["--k"]), float(opt["--eps"]), m)
        check_inverse(f, float(opt["--delta"]), parsed[0][0])
    elif req["cls"] == "compose-mixed":
        check_curve([row[1] for row in parsed[2:]])
    elif req["cls"] == "compose-setwise":
        check_cdp_bound(req["ledger"]["registrations"], float(opt["--delta"]), parsed[0][0])
    elif req["cls"] == "audit":
        limit = parsed["bound_delta"] + AUDIT_SE * parsed["std_error"]
        require(parsed["empirical_delta"] <= limit, f"audit flagged: {parsed}")
    elif req["cls"] == "topk" and opt["--mode"] == "lsnoise":
        values = [row[2] for row in parsed[2:]]
        ids = [row[1] for row in parsed[2:]]
        require(len(values) == int(opt["--k"]) == len(set(ids)), "lsnoise ids wrong")
        require(all(b <= a for a, b in zip(values, values[1:])) and values[-1] >= 0.0,
                "lsnoise values not monotone nonnegative")


def _read_output(out: str | None, stdout: str):
    if out is None:
        return parse_output(stdout)
    with open(out, encoding="utf-8") as handle:
        text = handle.read()
    os.remove(out)
    return parse_output(text)


def prepare_cli(ctx: CliContext, req: dict) -> Prepared:
    """One ``python -m dpcomp`` child process."""
    argv, out = ctx.fill(req)

    def check(proc: subprocess.CompletedProcess) -> None:
        require(proc.returncode == 0,
                f"dpcomp {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}")
        parsed = _read_output(out, proc.stdout)
        if not same(parsed, ctx.reference(argv, out)):
            raise CheckError(f"dpcomp {' '.join(argv)}: output differs from the in-process call")
        _semantic_check(ctx.dp, req, argv, parsed)

    return Prepared(call=lambda: ctx.run_child(argv), check=check)


def prepare_cli_in_process(ctx: CliContext, req: dict) -> Prepared:
    """The same request through ``cli.main`` in this process (traced run)."""
    argv, out = ctx.fill(req)

    def call() -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = ctx.dp.cli.main(argv)
        return code, captured.getvalue()

    def check(result: tuple[int, str]) -> None:
        require(result[0] == 0, f"cli.main({argv}) returned {result[0]}")
        _semantic_check(ctx.dp, req, argv, _read_output(out, result[1]))

    return Prepared(call=call, check=check)
