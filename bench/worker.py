"""One benchmark run in a fresh process: set-up, measured loop, checks, metrics.

Started by ``run.py`` with the pinned environment; prints one JSON record on
its last stdout line. Not meant to be run by hand.

Timed run (``--trace 0``): a closed loop with one client. After an untimed
warm-up, requests run one after the other from the workload's seeded
stream, in whole blocks, until the requests' summed time reaches
``--seconds`` and at least ``MIN_REQUESTS`` have run. Output checks run
between requests, outside the timed region. Every time is given at the
speed of a fixed reference task timed next to it (see "host speed").

Traced run (``--trace 1``): the first block of each of the three workloads,
after a warm-up once untraced and once with every public package function
wrapped. It
reports per-layer counts and self time, and the tracing overhead on each
workload. The work is fixed by the seed, so every count repeats exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import handlers as rq
import streams
from tracer import LAYERS, SpanTable, Tracer

# A request that takes longer fails; the known eps_inverse hang lands here.
DEADLINE_S = 30.0
# Enough requests that at least 10 samples lie beyond the 90th percentile.
MIN_REQUESTS = 100
# Set-up is repeated and its median reported.
SETUP_REPEATS = {"pricing": 5, "release": 3, "cli": 3}
# The measured loop stops mid-block once its wall time passes this many
# multiples of --seconds (but not before HARD_CAP_MIN_S, which the cli
# workload's 100 child processes need), so a run of hangs cannot stall it.
HARD_CAP_FACTOR = 3.0
HARD_CAP_MIN_S = 110.0
# Release requests on larger histograms (and the audits) are left out of the
# warm-up block.
WARMUP_MAX_D = 10_000
WARMUP_ARGV = ["compose", "dp", "--k", "10", "--eps", "0.1", "--invert", "--delta", "1e-6"]
PROBE_REPEATS = 5


class DeadlineExceeded(BaseException):
    """A request ran past its deadline (raised from SIGALRM)."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"request exceeded {DEADLINE_S:g}s")


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    cls: str
    seconds: float  # measured wall time of the call
    ok: bool
    error: str = ""
    elements: int = 0
    ref: float = 0.0  # wall time of the host-speed reference run just before


# ------------------------------------------------------------ host speed

# A shared host runs the same code 15-40% faster or slower from one second
# to the next, far more than a bound can allow. So a fixed reference task
# runs right before every request, outside its timing, and every time
# metric is given at reference speed: each request's wall time is scaled by
# REF_NOMINAL_MS over the reference's wall time around it. A change to
# the program moves the request times but not the reference, so it shows in
# full; the raw wall-time figures are kept in the run record.
REF_NOMINAL_MS = 2.5
# requests on each side whose references, with its own, set a request's
# speed factor (their median), so one disturbed reference cannot skew it
REF_WINDOW = 2
# references timed before each set-up repetition
SETUP_REFS = 3
_REF_ARRAY = np.random.default_rng(0).random(20_000)


def reference_seconds() -> float:
    """Wall time of the reference task: an integer loop, a loop over math
    functions and a few numpy array passes, the kinds of work the requests
    do, in about 2.5 ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc ^= i * i
    x = 0.0
    for i in range(4_000):
        y = i * 1e-3
        x += math.log1p(y) * math.exp(-y)
    for _ in range(3):
        a = np.exp(-_REF_ARRAY)
        a.sort()
        a.cumsum()
    return time.perf_counter() - t0


def speed_factor(refs: list[float]) -> float:
    """Multiplier that brings a wall time measured next to ``refs`` to
    reference speed."""
    refs = [r for r in refs if r > 0]
    return REF_NOMINAL_MS * 1e-3 / statistics.median(refs) if refs else 1.0


def scaled_seconds(records: list[Record]) -> list[float]:
    """Each request's wall time at reference speed."""
    refs = [r.ref for r in records]
    return [r.seconds * speed_factor(refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
            for i, r in enumerate(records)]


def timed_setup(step: Callable[[], float], repeats: int) -> tuple[float, float]:
    """Median of ``repeats`` set-up times, raw and at reference speed."""
    times, refs = [], []
    for _ in range(repeats):
        refs += [reference_seconds() for _ in range(SETUP_REFS)]
        times.append(step())
    raw = statistics.median(times)
    return raw, raw * speed_factor(refs)


def run_request(req: dict, prepare: Callable[[dict], rq.Prepared], alarm: bool,
                tracer: Optional[Tracer] = None) -> Record:
    """Prepare, time and check one request; any failure becomes a failed record."""
    quiet = tracer.paused() if tracer else nullcontext()
    try:
        with quiet:
            prepared = prepare(req)
    except Exception as exc:  # a request that cannot even be set up failed
        return Record(req["cls"], 0.0, False, f"prepare: {exc!r}")
    span = tracer.request_span(req["cls"]) if tracer else nullcontext()
    ref = reference_seconds()
    t0 = time.perf_counter()
    try:
        with span, deadline(DEADLINE_S if alarm else None):
            out = prepared.call()
    except (Exception, DeadlineExceeded) as exc:
        return Record(req["cls"], time.perf_counter() - t0, False, repr(exc)[:500], ref=ref)
    elapsed = time.perf_counter() - t0
    try:
        with tracer.paused() if tracer else nullcontext():
            prepared.check(out)
    except Exception as exc:  # a failed check is a failed request
        return Record(req["cls"], elapsed, False, f"check: {exc}"[:500], prepared.elements, ref)
    return Record(req["cls"], elapsed, True, "", prepared.elements, ref)


def warm_up(block: list[dict], prepare, alarm: bool) -> list[Record]:
    """Run a block untimed, but for its large histograms and its audits, so
    that first calls and first allocations do not land in the measurement."""
    return [run_request(req, prepare, alarm) for req in block
            if req.get("d", 0) <= WARMUP_MAX_D and req["cls"] != "audit"]


def timed_loop(blocks: Iterator[list[dict]], prepare, seconds: float, alarm: bool) -> list[Record]:
    """Whole blocks until the summed request time at reference speed reaches
    ``seconds`` and at least ``MIN_REQUESTS`` requests have run, so a slow
    spell of the host does not change how many blocks a run holds."""
    records: list[Record] = []
    measured = 0.0
    start = time.monotonic()
    while measured < seconds or len(records) < MIN_REQUESTS:
        for req in next(blocks):
            rec = run_request(req, prepare, alarm)
            records.append(rec)
            measured += rec.seconds * speed_factor([rec.ref])
            if time.monotonic() - start > max(HARD_CAP_FACTOR * seconds, HARD_CAP_MIN_S):
                return records
    return records


def one_pass(block: list[dict], prepare, alarm: bool, tracer: Optional[Tracer] = None) -> list[Record]:
    return [run_request(req, prepare, alarm, tracer) for req in block]


# ------------------------------------------------------------------ metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _time_metrics(records: list[Record], seconds: list[float]) -> dict:
    # a failed request counts as having missed the deadline
    lat = sorted(t if r.ok else max(t, DEADLINE_S) for r, t in zip(records, seconds))
    rank90 = math.ceil(0.9 * len(lat))
    total = sum(seconds)
    ok = sum(r.ok for r in records)
    return {
        "ops_per_s": _metric(ok / total if total > 0 else 0.0, "requests/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": _metric(lat[rank90 - 1] * 1e3, "ms"),
    }


def latency_metrics(records: list[Record]) -> tuple[dict, dict]:
    """End-to-end metrics of one measured loop at reference speed, plus
    their sample counts and the same figures in raw wall time."""
    n = len(records)
    metrics = _time_metrics(records, scaled_seconds(records))
    metrics["error_rate"] = _metric(sum(not r.ok for r in records) / n, "fraction")
    samples = {
        "requests": n,
        "beyond_p90": n - math.ceil(0.9 * n),
        "timed_wall_s": sum(r.seconds for r in records),
        "wall_time_metrics": _time_metrics(records, [r.seconds for r in records]),
        "speed_factor": speed_factor([r.ref for r in records]),
        "by_class": _by_class(records),
        # class, wall time and reference time of every timed request
        "per_request": [[r.cls, r.seconds, r.ref] for r in records],
    }
    return metrics, samples


def _by_class(records: list[Record]) -> dict:
    out: dict[str, dict] = {}
    for r in records:
        c = out.setdefault(r.cls, {"n": 0, "failed": 0, "seconds": 0.0})
        c["n"] += 1
        c["failed"] += not r.ok
        c["seconds"] += r.seconds
    return out


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# ------------------------------------------------------------ child probes


def _child(args: list[str], env: dict, root: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=DEADLINE_S, check=True)


def import_seconds(env: dict, root: str) -> float:
    """Time of ``import dpcomp`` inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dpcomp; "
            "print(time.perf_counter() - t)")
    return float(_child(["-c", code], env, root).stdout)


def wall_seconds(args: list[str], env: dict, root: str) -> float:
    t0 = time.perf_counter()
    _child(args, env, root)
    return time.perf_counter() - t0


def scipy_special_import_ms(env: dict, root: str) -> float:
    """Cumulative import time of scipy.special under ``import dpcomp``."""
    err = _child(["-X", "importtime", "-c", "import dpcomp"], env, root).stderr
    for line in err.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 3 and cells[2] == "scipy.special":
            return float(re.sub(r"[^0-9.]", "", cells[1])) / 1e3
    raise RuntimeError("scipy.special not found in -X importtime output")


# ------------------------------------------------------------- timed runs

# warm-up records, timed records, set-up seconds (raw, at reference speed),
# peak RSS in MB
TimedRun = tuple[list[Record], list[Record], tuple[float, float], float]


def run_pricing(dp, args, env) -> TimedRun:
    setup = timed_setup(lambda: import_seconds(env, args.root), SETUP_REPEATS["pricing"])
    blocks = streams.blocks("pricing", args.seed)
    prepare = lambda req: rq.prepare_pricing(dp, req)  # noqa: E731
    warm = warm_up(next(blocks), prepare, alarm=True)
    records = timed_loop(blocks, prepare, args.seconds, alarm=True)
    return warm, records, setup, peak_rss_mb(resource.RUSAGE_SELF)


def run_release(dp, args, env) -> TimedRun:
    repeats = SETUP_REPEATS["release"]
    imports = timed_setup(lambda: import_seconds(env, args.root), repeats)
    inputs = rq.release_inputs()
    hists: dict = {}

    def build() -> float:
        hists.clear()  # free the previous set before building the next
        gc.collect()
        t0 = time.perf_counter()
        hists.update(rq.build_histograms(dp, inputs))
        return time.perf_counter() - t0

    built = timed_setup(build, repeats)
    blocks = streams.blocks("release", args.seed)
    prepare = lambda req: rq.prepare_release(dp, req, hists)  # noqa: E731
    warm = warm_up(next(blocks), prepare, alarm=True)
    records = timed_loop(blocks, prepare, args.seconds, alarm=True)
    setup = (imports[0] + built[0], imports[1] + built[1])
    return warm, records, setup, peak_rss_mb(resource.RUSAGE_SELF)


def run_cli(dp, args, env, tmpdir: str) -> TimedRun:
    ctx = rq.CliContext(dp, args.root, tmpdir, env, DEADLINE_S)
    setup = timed_setup(lambda: wall_seconds(["-m", "dpcomp", *WARMUP_ARGV], env, args.root),
                        SETUP_REPEATS["cli"])
    # the warm-up invocations above stand in for a warm-up block
    records = timed_loop(streams.blocks("cli", args.seed),
                         lambda req: rq.prepare_cli(ctx, req), args.seconds, alarm=False)
    return [], records, setup, peak_rss_mb(resource.RUSAGE_CHILDREN)


def timed_run(dp, args, env, tmpdir: str) -> dict:
    run = {"pricing": run_pricing, "release": run_release,
           "cli": lambda *a: run_cli(*a, tmpdir)}[args.workload]
    warm, records, setup, rss = run(dp, args, env)
    metrics, samples = latency_metrics(records)
    raw_setup, metrics["setup_s"] = setup[0], _metric(setup[1], "s")
    samples["wall_time_metrics"]["setup_s"] = _metric(raw_setup, "s")
    metrics["peak_rss_mb"] = _metric(rss, "MB")
    samples["warm_up_requests"] = len(warm)
    # a warm-up request that fails still counts as a failure
    return {"metrics": metrics, "samples": samples, "records": warm + records}


# ------------------------------------------------------------- traced run


def _ops(records: list[Record]) -> float:
    return sum(r.ok for r in records) / sum(scaled_seconds(records))


def _overhead_pct(untraced: list[Record], traced: list[Record]) -> float:
    return (1.0 - _ops(traced) / _ops(untraced)) * 100.0


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(t: SpanTable, elements: int) -> dict[str, dict]:
    """Per-layer counts and self time of the pricing and release samples."""
    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = _metric(value, unit)

    def names(layer: str, *funcs: str) -> tuple[str, ...]:
        return tuple(f"{layer}.{f}" for f in funcs)

    for layer in ("nonadaptive", "adaptive", "setwise", "calibration", "audit"):
        put(f"{layer}.self_ms", t.self_ms(t.mask(layer=layer)), "ms")
    for layer in ("nonadaptive", "adaptive", "calibration", "audit"):
        put(f"{layer}.calls", t.count(t.mask(layer=layer)), "count")

    bounds = t.mask(names("nonadaptive", "delta_opt_dp", "delta_opt_br_nonadaptive",
                          "delta_opt_mixed"))
    inverse = t.mask(names("nonadaptive", "eps_inverse"))
    put("nonadaptive.bound_evals", t.count(bounds), "count")
    put("nonadaptive.evals_per_inverse",
        _ratio(t.count(t.with_parent(bounds, inverse)), t.count(inverse)), "evals/call")

    grr = t.mask(names("nonadaptive", "grr_params"))
    put("adaptive.tilt_evals", t.count(t.parent_layer_is(grr, "adaptive")), "count")

    acc = "SetwiseAccountant"
    put("setwise.register.calls", t.count(t.mask(names("setwise", f"{acc}.register"))), "count")
    consume = t.mask(names("setwise", f"{acc}.consume"))
    put("setwise.consume.calls", t.count(consume), "count")
    put("setwise.consume.self_ms", t.self_ms(consume), "ms")
    put("setwise.json.self_ms",
        t.self_ms(t.mask(names("setwise", f"{acc}.to_json", f"{acc}.from_json"))), "ms")

    curve = t.mask(names("calibration", "analytic_gaussian_delta"))
    solves = t.mask(names("calibration", "solve_sigma_analytic", "analytic_gaussian_eps"))
    put("calibration.curve_evals", t.count(curve), "count")
    put("calibration.evals_per_solve",
        _ratio(t.count(t.with_parent(curve, solves)), t.count(solves)), "evals/call")

    for short, func in (("bisect", "bisect"), ("pava", "pava_monotone_nonneg")):
        mask = t.mask(names("numerics", func))
        put(f"numerics.{short}.calls", t.count(mask), "count")
        put(f"numerics.{short}.self_ms", t.self_ms(mask), "ms")

    build = t.mask(names("mechanisms", "histogram_from_counts", "histogram_from_text",
                         "Histogram.restrict"))
    put("mechanisms.build.self_ms", t.self_ms(build), "ms")
    sort = t.mask(names("mechanisms", "Histogram.sorted_items"))
    put("mechanisms.sort.calls", t.count(sort), "count")
    put("mechanisms.sort.self_ms", t.self_ms(sort), "ms")
    put("mechanisms.select.self_ms", t.self_ms(t.mask(names("mechanisms", "exp_mech_topk"))), "ms")
    noise = t.mask(names("mechanisms", "ls_noise", "known_lap_topk", "known_gauss",
                         "trunc_gauss_release"))
    put("mechanisms.noise.self_ms", t.self_ms(noise), "ms")
    sample = t.mask(names("mechanisms", "sample_laplace", "sample_gaussian", "sample_gumbel"))
    put("mechanisms.sample.self_ms", t.self_ms(sample), "ms")
    put("mechanisms.sample.draws", t.amount(sample), "count")
    put("mechanisms.substreams",
        t.count(t.mask(names("mechanisms", "RngState.substream", "RngState.generator"))), "count")
    put("mechanisms.elements", elements, "count")

    mc = t.mask(names("audit", "monte_carlo_delta"))
    put("audit.mc.self_ms", t.self_ms(mc), "ms")
    put("audit.trials", t.amount(mc), "count")
    return m


def trace_run(dp, args, env, tmpdir: str) -> dict:
    tracer = Tracer()
    records: list[Record] = []
    overhead: dict[str, float] = {}

    def sample(workload: str, prepare, alarm: bool, setup: Callable[[], None] = lambda: None):
        block = next(streams.blocks(workload, args.seed))
        setup()
        warm = warm_up(block, prepare, alarm)  # so that neither timed pass runs cold
        untraced = one_pass(block, prepare, alarm)
        tracer.install()
        try:
            with tracer.record():
                with tracer.request_span("setup"):
                    setup()
                traced = one_pass(block, prepare, alarm, tracer)
        finally:
            tracer.uninstall()
        overhead[workload] = _overhead_pct(untraced, traced)
        records.extend(warm + untraced + traced)
        return traced

    sample("pricing", lambda req: rq.prepare_pricing(dp, req), True)

    inputs = rq.release_inputs()
    hists: dict = {}

    def build() -> None:
        hists.clear()
        gc.collect()
        hists.update(rq.build_histograms(dp, inputs))

    traced_release = sample("release", lambda req: rq.prepare_release(dp, req, hists), True, build)
    elements = sum(r.elements for r in traced_release)
    hists.clear()
    inputs = None

    in_process_end = len(tracer)
    ctx = rq.CliContext(dp, args.root, tmpdir, env, DEADLINE_S)
    sample("cli", lambda req: rq.prepare_cli_in_process(ctx, req), True)

    layers = layer_metrics(SpanTable(tracer.names, tracer.arrays(0, in_process_end)), elements)
    cli_spans = SpanTable(tracer.names, tracer.arrays(in_process_end))
    interp = statistics.median(wall_seconds(["-c", "pass"], env, args.root)
                               for _ in range(PROBE_REPEATS))
    imported = statistics.median(wall_seconds(["-c", "import dpcomp"], env, args.root)
                                 for _ in range(PROBE_REPEATS))
    scipy_ms = statistics.median(scipy_special_import_ms(env, args.root) for _ in range(3))
    layers["cli.interp_ms"] = _metric(interp * 1e3, "ms")
    layers["cli.import_ms"] = _metric((imported - interp) * 1e3, "ms")
    layers["cli.import_scipy_ms"] = _metric(scipy_ms, "ms")
    layers["cli.main.self_ms"] = _metric(cli_spans.self_ms(cli_spans.mask(layer="cli")), "ms")
    for layer in LAYERS:
        layers[f"{layer}.errors"] = _metric(tracer.errors[layer], "count")
    for workload in streams.WORKLOADS:
        layers[f"trace.{workload}.overhead_pct"] = _metric(overhead[workload], "%")

    os.makedirs(args.out, exist_ok=True)
    tracer.save(os.path.join(args.out, f"spans-seed{args.seed}.npz"))
    return {"metrics": layers, "samples": {"spans": len(tracer), "requests": len(records)},
            "records": records}


# --------------------------------------------------------------------- main


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True, help="checkout holding src/dpcomp")
    ap.add_argument("--out", required=True, help="directory for run artifacts")
    args = ap.parse_args(argv)

    import dpcomp as dp
    import dpcomp.cli  # noqa: F401  (the cli requests call dp.cli.main)
    import scipy

    env = dict(os.environ)
    os.makedirs(args.out, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=args.out)
    try:
        result = (trace_run if args.trace else timed_run)(dp, args, env, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    records = result.pop("records")
    failures = [f"{r.cls}: {r.error}" for r in records if not r.ok]
    result.update(
        attempted=len(records),
        failed=len(failures),
        failures=failures[:20],
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__, "dpcomp": dp.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
