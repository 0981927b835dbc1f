"""The benchmark's own checks: smoke-sized workloads pass the gate, the
self-time arithmetic holds on a constructed span tree, a corrupted alert
stream fails the gate, and tracing degrades when an entry point is gone.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

#: Smoke shapes: a few nodes, 20 ticks of held-out feed, fast cadence.
SMOKE = {
    "serve-max": dict(nodes=8, t=1200),
    "serve-durable": dict(nodes=6, t=1200, interval=0.05),
    "store-replay": dict(nodes=6, t=1200),
}


def smoke(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], **SMOKE[name])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_gate(name):
    result = bench.run_workload(smoke(name), seed=0, seconds=0.5)
    assert result["correct"], result["reasons"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.E2E_UNITS)
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = bench.run_workload(
        smoke("serve-durable"), seed=0, seconds=0.5, trace=True
    )
    assert result["correct"], result["reasons"]
    layers = result["layers"]
    assert set(layers) == set(bench.LAYER_METRICS)
    assert all(m["value"] is not None for m in layers.values())
    assert layers["wal.fsyncs"]["value"] > 0
    assert layers["checkpoint.calls"]["value"] > 0
    assert layers["hotpath.tick_s"]["value"] > 0
    assert 0.0 < layers["trace.coverage"]["value"] <= 1.0


def test_self_time_arithmetic():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c
    # [2, 3]; a second top-level root [20, 21].
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["root", 20.0, 21.0, -1],
    ]
    selft, incl = self_times(spans)
    assert selft == pytest.approx({"root": 4.0, "a": 2.0, "c": 1.0, "b": 4.0})
    assert incl == pytest.approx({"root": 11.0, "a": 3.0, "c": 1.0, "b": 4.0})
    assert sum(selft.values()) == pytest.approx(11.0)


def test_tracer_records_nested_spans():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer.patch("outer", Layer, "outer")
    tracer.patch("inner", Layer, "inner")
    try:
        assert Layer().outer() == 2
    finally:
        tracer.restore()
    assert not hasattr(Layer.outer, "__wrapped__")
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    selft, _ = self_times(tracer.spans)
    assert selft == {"outer": 2, "inner": 1}


#: Per-layer metrics no span measures; the runs supply them.
EXTRA = {
    name: 0
    for name in (
        "net.bp_dropped",
        "wal.fsyncs",
        "telestore.bytes",
        "telestore.record_samples_per_s",
        "setup.listen_s",
        "loadgen.late_p90_ms",
        "loadgen.cpu_s",
        "trace.overhead",
    )
}


def test_missing_entry_point_is_unmeasured():
    tracer = Tracer()

    class Moved:
        pass

    assert not tracer.patch("net.route", Moved, "_route_frame")
    assert not tracer.patch_entry(
        "guard", "repro.service.no_such_module:GuardedDetector.process_block"
    )
    assert not tracer.patch_entry(
        "detector", "repro.service.detector:NoSuchClass.process_block"
    )
    assert set(tracer.unmeasured) == {"net.route", "guard", "detector"}
    layers = bench.layer_metrics(tracer, Tracer(), budget_cpu_s=1.0, extra=EXTRA)
    assert layers["net.route_s"]["value"] is None
    assert layers["net.backlog_max_ticks"]["value"] is None
    assert layers["guard.self_s"]["value"] is None
    assert layers["detector.self_s"]["value"] is None
    assert layers["hotpath.tick_s"]["value"] == 0.0


def test_wrapper_spans_do_not_count_as_coverage():
    tracer = Tracer()
    # The benchmark's replay span [0, 10] holds 6 s of program spans.
    tracer.spans = [
        ["fastreplay.replay", 0.0, 10.0, -1],
        ["fastreplay.process", 1.0, 6.0, 0],
        ["telestore.scan", 7.0, 8.0, 0],
    ]
    layers = bench.layer_metrics(tracer, Tracer(), budget_cpu_s=10.0, extra=EXTRA)
    assert layers["trace.coverage"]["value"] == pytest.approx(0.6)
    assert layers["fastreplay.post_s"]["value"] == pytest.approx(5.0)


def _run(text: str, reference: str) -> bench.ServeRun:
    return bench.ServeRun(
        text=text,
        snap={
            "ticks": 3,
            "backpressure": {"dropped": 0, "late_dropped": 0},
            "protocol": {"garbage": 0},
        },
        report={"frames": 12, "ticks": 3, "acked": 3, "nodes": 4},
        window_s=1.0,
        cpu_s=1.0,
        run_cpu_s=1.0,
        listen_s=0.0,
    )


def test_corrupted_alert_stream_fails_gate():
    reference = '{"event":"open","node":"rack0/node00","window":3}\n'
    ok, attempted, failed, _ = bench.serve_gate(_run(reference, ""), reference)
    assert ok and failed == 0
    corrupted = reference.replace("window\":3", "window\":4")
    ok, attempted, failed, reasons = bench.serve_gate(
        _run(corrupted, ""), reference
    )
    assert not ok
    assert failed == attempted == 12
    assert "differs" in reasons[0]


def test_corrupted_store_replay_fails_gate(monkeypatch):
    real = bench.reference_text

    def corrupted(config, setup, ticks):
        return real(config, setup, ticks).replace('"open"', '"opened"', 1)

    monkeypatch.setattr(bench, "reference_text", corrupted)
    result = bench.run_workload(smoke("store-replay"), seed=0, seconds=0.1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [
            sys.executable, f"{BENCH_DIR.name}/run.py",
            "--workload", "serve-max", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
