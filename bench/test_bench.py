"""Self-tests of the benchmark: streams, smoke runs, span arithmetic, trace counts.

    python -m pytest -q bench

The smoke runs shrink the release histograms and run one block per
workload, so the whole file takes well under a minute.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import dpcomp as dp  # noqa: E402
import dpcomp.cli  # noqa: E402,F401
import handlers  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
import worker  # noqa: E402
from tracer import SpanTable, Tracer, self_times  # noqa: E402

SMALL_SIZES = (1000, 3162)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {
    "ops_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "error_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@pytest.fixture
def small_release(monkeypatch):
    """Release histograms of at most 3162 entries instead of up to 1e6."""
    slots = tuple(SMALL_SIZES[i % 2] for i in range(len(streams._SIZE_SLOTS)))
    monkeypatch.setattr(streams, "_SIZE_SLOTS", slots)
    monkeypatch.setattr(handlers, "RELEASE_SIZES", SMALL_SIZES)


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_stream_digest_depends_only_on_seed(workload):
    assert streams.digest(workload, 7) == streams.digest(workload, 7)
    assert streams.digest(workload, 7) != streams.digest(workload, 8)


def test_blocks_hold_the_same_mix_for_every_seed():
    for workload in streams.WORKLOADS:
        mixes = {tuple(sorted(r["cls"] for r in next(streams.blocks(workload, s))))
                 for s in range(5)}
        assert len(mixes) == 1, workload


def test_seeds_differ_only_inside_the_design_cells():
    # every block of every seed draws each parameter in the same cell
    width = math.log(1.0 / 0.02) / streams.CELLS  # invert eps is log-uniform in [0.02, 1]
    blocks = [next(streams.blocks("pricing", seed)) for seed in (1, 2)]
    blocks.append(list(itertools.islice(streams.blocks("pricing", 1), 3))[-1])
    invert = [[r for r in b if r["cls"] == "invert"] for b in blocks]
    for a, b in zip(invert[0], invert[1]):
        assert a["bound"] == b["bound"] and abs(a["k"] - b["k"]) <= 200 / 6 / streams.CELLS + 1
        assert abs(math.log(a["eps"]) - math.log(b["eps"])) < width
        assert a["eps"] != b["eps"]
    for a, c in zip(invert[0], invert[2]):
        assert abs(math.log(a["eps"]) - math.log(c["eps"])) < width


def test_stratified_ints_cover_every_stratum():
    import random

    values = sorted(streams.stratified_ints(random.Random(3), 1, 200, 10))
    assert [v // 20 for v in (x - 1 for x in values)] == list(range(10))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, small_release, monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "MIN_REQUESTS", 0)
    monkeypatch.setattr(worker, "SETUP_REPEATS", dict.fromkeys(streams.WORKLOADS, 1))
    args = argparse.Namespace(workload=workload, seed=3, seconds=1e-3, root=ROOT,
                              out=str(tmp_path))
    result = worker.timed_run(dp, args, run.launcher_env(), str(tmp_path))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    failures = [r.error for r in result["records"] if not r.ok]
    assert failures == []
    assert result["metrics"]["error_rate"]["value"] == 0.0
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "error_rate")
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == {k: u for k, u in END_TO_END.items() if k != "error_rate"}


def test_traced_run_emits_every_declared_layer_metric(small_release, tmp_path):
    args = argparse.Namespace(workload="pricing", seed=3, seconds=1.0, root=ROOT,
                              out=str(tmp_path))
    result = worker.trace_run(dp, args, run.launcher_env(), str(tmp_path))
    assert [r.error for r in result["records"] if not r.ok] == []
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert os.path.exists(tmp_path / "spans-seed3.npz")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]
    names = ["request.x", "numerics.bisect", "audit.audit_two_point", "audit.monte_carlo_delta"]
    spans = {"name": np.arange(4), "start": start, "end": end, "parent": parent,
             "request": np.zeros(4, dtype=int), "amount": np.zeros(4)}
    table = SpanTable(names, spans)
    assert table.self_ms(table.mask(layer="audit")) == 4000.0
    audit = table.mask(layer="audit")
    assert table.count(table.parent_layer_is(audit, "audit")) == 1


def test_tracer_uninstall_restores_the_package():
    before = (dp.eps_inverse, dp.calibration.eps_inverse, dp.SetwiseAccountant.__dict__["from_json"])
    tracer = Tracer()
    tracer.install()
    try:
        assert dp.calibration.eps_inverse is not before[1]
        assert dp.nonadaptive.eps_inverse is dp.calibration.eps_inverse
    finally:
        tracer.uninstall()
    after = (dp.eps_inverse, dp.calibration.eps_inverse, dp.SetwiseAccountant.__dict__["from_json"])
    assert after == before


def _traced_counts(seed: int) -> dict:
    tracer = Tracer()
    pricing = next(streams.blocks("pricing", seed))
    release = next(streams.blocks("release", seed))
    tracer.install()
    try:
        with tracer.record():
            hists = handlers.build_histograms(dp, handlers.release_inputs())
            records = worker.one_pass(pricing, lambda r: handlers.prepare_pricing(dp, r), True, tracer)
            records += worker.one_pass(release, lambda r: handlers.prepare_release(dp, r, hists),
                                       True, tracer)
    finally:
        tracer.uninstall()
    assert all(r.ok for r in records)
    metrics = worker.layer_metrics(SpanTable(tracer.names, tracer.arrays()), 0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "ms"}


def test_trace_counts_repeat_exactly(small_release):
    first = _traced_counts(5)
    assert first["nonadaptive.bound_evals"] > 0 and first["audit.trials"] > 0
    assert first == _traced_counts(5)


def test_time_metrics_are_given_at_reference_speed():
    nominal = worker.REF_NOMINAL_MS * 1e-3
    # the host runs at half speed; one reference was disturbed on top of that
    refs = [2 * nominal] * 5
    refs[2] = 10 * nominal
    records = [worker.Record("a", 0.2, True, ref=ref) for ref in refs]
    assert worker.scaled_seconds(records) == pytest.approx([0.1] * 5)
    metrics, samples = worker.latency_metrics(records)
    assert metrics["ops_per_s"]["value"] == pytest.approx(10.0)
    assert samples["wall_time_metrics"]["ops_per_s"]["value"] == pytest.approx(5.0)
    assert 1e-3 < worker.reference_seconds() < 1.0


def test_deadline_turns_a_hang_into_a_failed_request(monkeypatch):
    monkeypatch.setattr(worker, "DEADLINE_S", 0.2)
    hang = handlers.Prepared(call=lambda: time.sleep(5), check=lambda out: None)
    t0 = time.monotonic()
    rec = worker.run_request({"cls": "hang"}, lambda req: hang, alarm=True)
    assert not rec.ok and "DeadlineExceeded" in rec.error
    assert time.monotonic() - t0 < 2.0
    metrics, _ = worker.latency_metrics([rec])
    assert metrics["error_rate"]["value"] == 1.0
    assert metrics["latency_p90_ms"]["value"] >= 200.0
