"""dpcomp benchmark: seeded closed-loop workloads against the working tree.

    python3 bench/run.py --workload pricing --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                 # every workload
    python3 bench/run.py --workload release --trace 1   # per-layer trace

Run from the root of a checkout. The package is imported from that
checkout's ``src/``, in a child process whose BLAS and OpenMP pools are
pinned to one thread, so two commits are measured with identical settings.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a table and the environment
record come before it, and the full record is written under
``.bench_out/results/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("pricing", "release", "cli")
WORKER_TIMEOUT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def launcher_env() -> dict[str, str]:
    """The environment every measured process runs with."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    env.pop("DPCOMP_SEED", None)
    return env


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "seed": seed,
        "thread_pins": {var: "1" for var in THREAD_VARS},
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT), "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=launcher_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    record = environment(seed)
    record.update(workload=workload, seconds=seconds, trace=trace,
                  loadavg_before=os.getloadavg())
    started = time.monotonic()
    record.update(run_worker(workload, seed, seconds, trace))
    record.update(loadavg_after=os.getloadavg(), run_wall_s=time.monotonic() - started)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def print_table(record: dict) -> None:
    samples = record.get("samples", {})
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}, "
          f"{record['attempted']} requests, {record['failed']} failed)")
    wall = samples.get("wall_time_metrics", {})
    if wall:
        print(f"  at reference speed; host speed factor {samples['speed_factor']:.4g}, "
              "raw wall time in brackets")
    for name, m in record["metrics"].items():
        note = f"  [{wall[name]['value']:.6g}]" if name in wall else ""
        if name == "latency_p90_ms":
            note += f"  (n={samples['requests']}, {samples['beyond_p90']} beyond p90)"
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{note}")
    for failure in record.get("failures", []):
        print(f"  FAILED {failure}")
    env = {k: record[k] for k in ("git_sha", "git_dirty", "nproc", "versions",
                                  "loadavg_before", "loadavg_after")}
    print(f"  env {json.dumps(env, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dpcomp" / "__init__.py").is_file():
        print(f"bench: no src/dpcomp under {ROOT}; run from a dpcomp checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        try:
            record = measure(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        print_table(record)
        records.append(record)

    def name(workload: str, metric: str) -> str:
        return metric if len(records) == 1 else f"{workload}.{metric}"

    # the JSON result carries error_rate through attempted/failed
    metrics = {name(r["workload"], k): v for r in records for k, v in r["metrics"].items()
               if k != "error_rate"}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
