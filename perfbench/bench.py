"""The end-to-end serving benchmark: workloads, correctness gate, metrics.

Every workload runs the production tick path — ``backend="fused"``,
``mode="exact"``, chunk 30, binary ``repro-ticks/v1`` frames — over the
4-base-node fault fleet scaled with ``replicate_setup``; the workload
seed becomes ``ServiceConfig.seed``.  The server (``FleetServer``) or
the store replay runs in this process; the load generator
(``perfbench/loadgen.py``) runs in one subprocess.

Each run is checked before any number counts: its alert JSONL must be
byte-identical to the in-process ``replay()`` of the same setup and
seed, every sent tick must be acked, no frame may be dropped, and the
fleet must raise at least one alert.

``run_workload(..., trace=True)`` makes an untraced run and then a
traced run of the same work; only the untraced run feeds end-to-end
numbers, and the per-layer split comes from the traced one.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for feeds, journals, checkpoints, stores and traces.
OUT = ROOT / ".perfbench-out"
LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"program source not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.service.api import (  # noqa: E402
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
    replicate_setup,
)
from repro.service.net import (  # noqa: E402
    FleetServer,
    ListAlertSink,
    ServerCheckpoint,
    ServerStats,
)

from spans import Tracer, self_times  # noqa: E402


def program_module(name: str):
    """``repro.service.<name>``, imported when a workload first needs
    it (by full name: the package re-exports a ``replay`` function that
    shadows the module of that name)."""
    return importlib.import_module(f"repro.service.{name}")


#: Set-up repetitions of an untraced run, before and after its measured
#: phase; ``setup_s`` is their median.  Set-up speed on a shared host
#: drifts over stretches of a few seconds, so repetitions spread across
#: the run keep one slow stretch from setting the median.
SETUP_BEFORE = 3
SETUP_AFTER = 4
#: Serving cadence: 30 samples per node per tick.
CHUNK = 30
#: Closed loop: the node-samples per second a run's tick count is sized
#: for, so a ``--seconds`` run lasts about that long on a 2-vCPU host
#: (1000 nodes, 18 s: 63 ticks).  The count is fixed, not timed: a
#: faster program finishes the same ticks sooner.
CLOSED_SIZING_RATE = 105_000
#: Durable serving: processed ticks between server checkpoints.
CHECKPOINT_EVERY = 5


class BenchError(RuntimeError):
    """The benchmark could not complete a run (not a wrong answer)."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    #: "serve" drives FleetServer over a socket; "store" records the
    #: feed with record_fleet and re-drives it with replay_from_store.
    kind: str
    #: Load generator: an open loop of one tick every ``interval``
    #: seconds, or (``None``) a closed loop of 4 ticks in flight.
    interval: float | None = None
    #: WAL (fsync per tick) + a ServerCheckpoint every
    #: ``CHECKPOINT_EVERY`` ticks.
    durable: bool = False
    #: Generated history per base node; half is held out as the feed
    #: (3000 samples = 100 ticks of 30).
    t: int = 6000

    def config(self, seed: int) -> ServiceConfig:
        return ServiceConfig(
            nodes=4,
            t=self.t,
            blocks=20,
            trees=20,
            chunk=CHUNK,
            backend="fused",
            mode="exact",
            seed=seed,
        )

    def ticks(self, seconds: float, feed_ticks: int) -> int:
        """Ticks one run sends: a count fixed by ``seconds`` alone."""
        if self.interval is not None:
            n = int(seconds / self.interval)
        else:
            n = round(seconds * CLOSED_SIZING_RATE / (self.nodes * CHUNK))
        return max(1, min(feed_ticks, n))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-max",
            "1000-node reference fleet, closed loop of 4 ticks in flight, "
            "no WAL: saturation throughput of decode, route and the tick path",
            nodes=1000,
            kind="serve",
        ),
        Workload(
            "serve-durable",
            "500 nodes, open loop of a tick every 0.6 s (25k node-samples/s), "
            "WAL fsync per tick, checkpoint every 5 ticks: durability cost "
            "and latency",
            nodes=500,
            kind="serve",
            interval=0.6,
            durable=True,
        ),
        Workload(
            "store-replay",
            "250 nodes recorded into a telemetry store and replayed from it: "
            "block kernel and store scan, no protocol, net or WAL",
            nodes=250,
            kind="store",
        ),
    )
}

#: End-to-end metric -> unit (every workload reports every one).
E2E_UNITS = {
    "samples_per_s": "1/s",
    "cpu_ms_per_ksample": "ms",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, layer whose entry point it needs).
LAYER_METRICS = {
    "protocol.decode_s": ("s", "protocol.decode"),
    "protocol.frames": ("count", "protocol.decode"),
    "protocol.bytes": ("bytes", "protocol.decode"),
    "protocol.errors": ("count", "protocol.decode"),
    "net.route_s": ("s", "net.route"),
    "net.other_s": ("s", None),
    "net.backlog_max_ticks": ("count", "net.route"),
    "net.bp_dropped": ("count", None),
    "guard.self_s": ("s", "guard"),
    "detector.self_s": ("s", "detector"),
    "hotpath.tick_s": ("s", "hotpath.tick"),
    "hotpath.us_per_node_tick": ("us", "hotpath.tick"),
    "rootcause.explain_s": ("s", "rootcause.explain"),
    "rootcause.calls": ("count", "rootcause.explain"),
    "rootcause.payload_s": ("s", "rootcause.payload"),
    "alerts.emit_s": ("s", "alerts.emit"),
    "alerts.events": ("count", "alerts.emit"),
    "wal.append_s": ("s", "wal.append"),
    "wal.watermark_s": ("s", "wal.watermark"),
    "wal.bytes": ("bytes", "wal.watermark"),
    "wal.fsyncs": ("count", None),
    "checkpoint.save_s": ("s", "checkpoint.save"),
    "checkpoint.calls": ("count", "checkpoint.save"),
    "checkpoint.last_bytes": ("bytes", "checkpoint.save"),
    "checkpoint.growth": ("ratio", "checkpoint.save"),
    "telestore.append_s": ("s", "telestore.append"),
    "telestore.scan_s": ("s", "telestore.scan"),
    "telestore.bytes": ("bytes", None),
    "telestore.record_samples_per_s": ("1/s", None),
    "fastreplay.process_s": ("s", "fastreplay.process"),
    "fastreplay.post_s": ("s", "fastreplay.process"),
    "fastreplay.record_other_s": ("s", "telestore.append"),
    "setup.generate_s": ("s", "setup.train"),
    "setup.train_s": ("s", "setup.train"),
    "setup.replicate_s": ("s", None),
    "setup.listen_s": ("s", None),
    "loadgen.late_p90_ms": ("ms", None),
    "loadgen.cpu_s": ("s", None),
    "trace.coverage": ("ratio", None),
    "trace.overhead": ("ratio", None),
}

#: Spans the benchmark opens around whole phases, not program layers.
WRAPPER_SPANS = ("fastreplay.replay", "telestore.record")

# -- helpers ------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence: the smallest
    value with at least ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def settle() -> None:
    """Collect cyclic garbage before a timed phase.

    Replays and detectors leave hundreds of MB in reference cycles
    that only a full collection frees; without this, whichever phase
    happens to trigger it pays for it, and peak RSS depends on when it
    ran.  Each phase then starts from the same heap, as in a fresh
    process.
    """
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_text(config: ServiceConfig, setup, ticks: int | None) -> str:
    """Alert JSONL of the in-process ``replay()`` over the first
    ``ticks`` ticks (all of the feed when ``None``)."""
    if ticks is not None:
        setup = program_module("fastreplay").slice_setup(
            setup, 0, ticks * config.chunk
        )
    sink = ListAlertSink()
    replay(config, setup, sinks=(sink,))
    return sink.text()


def feed_ticks(setup, chunk: int) -> int:
    """Whole ticks in the held-out feed."""
    return min(m.shape[1] for m in setup.eval_data.values()) // chunk


def write_feed(setup, chunk: int, path: Path) -> None:
    """The held-out feed for the generator: distinct base matrices,
    each node's base index (replicas share matrices by reference) and
    the samples per node per tick."""
    paths = sorted(setup.eval_data)
    bases: list = []
    index: dict[int, int] = {}
    base_of = []
    for p in paths:
        m = setup.eval_data[p]
        if id(m) not in index:
            index[id(m)] = len(bases)
            bases.append(m)
        base_of.append(index[id(m)])
    np.savez(
        path,
        paths=np.array(paths),
        base_of=np.array(base_of),
        n_bases=len(bases),
        chunk=chunk,
        **{f"base{i}": b for i, b in enumerate(bases)},
    )


def pin(gen_pid: int, cpus: set) -> None:
    """Server on the first of ``cpus``, generator on the others, so the
    two never take turns on one core (when there are two to use)."""
    cpus = sorted(cpus)
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, cpus[:1])
    os.sched_setaffinity(gen_pid, cpus[1:])


def wait_ready(gen: subprocess.Popen, flag: Path, timeout: float = 60.0):
    """Block until the generator has loaded its feed and polls for the
    port, so the listen time it observes is the server's, not its own
    start-up."""
    deadline = time.monotonic() + timeout
    while not flag.exists():
        if gen.poll() is not None:
            raise BenchError(f"load generator exited with {gen.returncode}")
        if time.monotonic() > deadline:
            raise BenchError("load generator did not start")
        time.sleep(0.001)


class WindowStats(ServerStats):
    """ServerStats that also stamps the measured window: wall and CPU
    time at the first routed frame and after each processed tick."""

    def __init__(self):
        super().__init__()
        self.first: tuple[float, float] | None = None
        self.last: tuple[float, float] | None = None

    def observe_frame(self, samples: int) -> None:
        if self.first is None:
            self.first = (time.monotonic(), time.process_time())
        super().observe_frame(samples)

    def observe_tick(self, latency_s: float, events: int, opened: int) -> None:
        super().observe_tick(latency_s, events, opened)
        self.last = (time.monotonic(), time.process_time())


# -- set-up -------------------------------------------------------------
def set_up(spec: Workload, seed: int, tracer: Tracer | None = None):
    """Config to trained, replicated fleet (and detector, for serving).

    Returns ``(config, setup, detector, seconds)``.
    """
    config = spec.config(seed)
    t0 = time.monotonic()
    if tracer is None:
        setup = replicate_setup(build_setup(config), spec.nodes)
    else:
        with tracer.span("setup.generate"):
            base = build_setup(config)
        with tracer.span("setup.replicate"):
            setup = replicate_setup(base, spec.nodes)
    detector = build_detector(config, setup) if spec.kind == "serve" else None
    return config, setup, detector, time.monotonic() - t0


def prepare(spec: Workload, seed: int, trace: bool):
    """Set up for a run -> ``(config, setup, detector, times, tracer)``.

    An untraced run sets up ``SETUP_BEFORE`` times and keeps the
    last; ``times`` are the repetitions' durations.  ``more_setups``
    adds the rest after the measured phase.  A traced run sets
    up once under a wall-clock tracer that splits generation, training
    and replication.
    """
    if trace:
        tracer = Tracer(clock=time.perf_counter)
        tracer.patch_entry("setup.train", "repro.service.replay:train_fleet")
        try:
            config, setup, detector, _ = set_up(spec, seed, tracer)
        finally:
            tracer.restore()
        return config, setup, detector, None, tracer
    times = []
    detector = None
    for _ in range(SETUP_BEFORE):
        detector = None  # free the previous repetition first
        settle()
        config, setup, detector, took = set_up(spec, seed)
        times.append(took)
    return config, setup, detector, times, None


def more_setups(spec: Workload, seed: int, times: list) -> None:
    """Time ``SETUP_AFTER`` more set-ups into ``times`` (their results
    are discarded)."""
    for _ in range(SETUP_AFTER):
        settle()
        times.append(set_up(spec, seed)[3])


# -- tracing ------------------------------------------------------------
def patch_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    counts = tracer.counts
    seen = tracer.seen

    def on_decode(args, result):
        frames, errors = result
        counts["protocol.frames"] += len(frames)
        counts["protocol.errors"] += len(errors)
        counts["protocol.bytes"] += len(args[1])

    def on_route(args, result):
        server, frame = args[0], args[1]
        if frame.control is None:
            backlog = frame.tick + 1 - server.stats.ticks
            seen["backlog"] = max(seen.get("backlog", 0), backlog)

    def on_tick(args, result):
        counts["hotpath.node_ticks"] += len(args[1])

    def on_explain(args, result):
        counts["rootcause.calls"] += 1

    def on_emit(args, result):
        counts["alerts.events"] += 1

    def on_wal(args, result):
        seen["wal"] = args[0]

    def on_checkpoint(args, result):
        size = Path(args[0]).stat().st_size
        counts["checkpoint.calls"] += 1
        seen.setdefault("checkpoint.first_bytes", size)
        seen["checkpoint.last_bytes"] = size

    svc = "repro.service."
    entries = [
        ("protocol.decode", svc + "protocol:FrameDecoder.feed", on_decode),
        ("net.route", svc + "net:FleetServer._route_frame", on_route),
        ("guard", svc + "guard:GuardedDetector.process_block", None),
        ("detector", svc + "detector:FleetFaultDetector.process_block", None),
        (
            "fastreplay.process",
            svc + "detector:FleetFaultDetector.process_blocks",
            None,
        ),
        ("hotpath.tick", "repro.engine.hotpath:TickArena.tick", on_tick),
        ("rootcause.explain", svc + "detector:explain_difference", on_explain),
        ("rootcause.payload", svc + "detector:findings_payload", None),
        ("alerts.emit", svc + "net:ListAlertSink.emit", on_emit),
        ("alerts.emit", svc + "ops:AlertLog.emit", None),
        ("wal.append", svc + "wal:WalWriter.append_frame", on_wal),
        ("wal.append", svc + "wal:WalWriter.append_error", None),
        ("wal.watermark", svc + "wal:WalWriter.append_watermark", on_wal),
        ("checkpoint.save", svc + "checkpoint:save_checkpoint", on_checkpoint),
        (
            "telestore.append",
            "repro.monitoring.telestore:TelemetryRecorder.append",
            None,
        ),
        (
            "telestore.append",
            "repro.monitoring.telestore:TelemetryRecorder.close",
            None,
        ),
    ]
    for layer, target, observe in entries:
        tracer.patch_entry(layer, target, observe=observe)
    tracer.patch_entry(
        "telestore.scan",
        "repro.monitoring.telestore:TeleStore.scan",
        iterate=True,
    )


def layer_metrics(
    tracer: Tracer,
    setup_tracer: Tracer,
    *,
    budget_cpu_s: float,
    extra: dict,
) -> dict:
    """Per-layer metrics from a traced run (``None`` = unmeasured).

    ``budget_cpu_s`` is the server CPU the spans are set against;
    ``extra`` supplies (or overrides) the values no span measures.
    """
    selft, incl = self_times(tracer.spans)
    set_self, _ = self_times(setup_tracer.spans)
    counts = tracer.counts
    seen = tracer.seen
    s = selft.get
    node_ticks = counts["hotpath.node_ticks"]
    wal = seen.get("wal")
    first_ckpt = seen.get("checkpoint.first_bytes", 0)
    # The program's spans' self times add up to the CPU they cover; the
    # benchmark's own wrapper spans (store replay) cover nothing, so
    # what the program spends outside its entry points stays uncovered.
    covered = sum(
        t for name, t in selft.items() if name not in WRAPPER_SPANS
    )
    values = {
        "protocol.decode_s": s("protocol.decode", 0.0),
        "protocol.frames": counts["protocol.frames"],
        "protocol.bytes": counts["protocol.bytes"],
        "protocol.errors": counts["protocol.errors"],
        "net.route_s": s("net.route", 0.0),
        "net.backlog_max_ticks": seen.get("backlog", 0),
        "guard.self_s": s("guard", 0.0),
        "detector.self_s": s("detector", 0.0),
        "hotpath.tick_s": s("hotpath.tick", 0.0),
        "hotpath.us_per_node_tick": (
            s("hotpath.tick", 0.0) * 1e6 / node_ticks if node_ticks else 0.0
        ),
        "rootcause.explain_s": s("rootcause.explain", 0.0),
        "rootcause.calls": counts["rootcause.calls"],
        "rootcause.payload_s": s("rootcause.payload", 0.0),
        "alerts.emit_s": s("alerts.emit", 0.0),
        "alerts.events": counts["alerts.events"],
        "wal.append_s": s("wal.append", 0.0),
        "wal.watermark_s": s("wal.watermark", 0.0),
        "wal.bytes": wal.bytes_written if wal is not None else 0,
        "checkpoint.save_s": s("checkpoint.save", 0.0),
        "checkpoint.calls": counts["checkpoint.calls"],
        "checkpoint.last_bytes": seen.get("checkpoint.last_bytes", 0),
        "checkpoint.growth": (
            seen["checkpoint.last_bytes"] / first_ckpt if first_ckpt else 0.0
        ),
        "telestore.append_s": s("telestore.append", 0.0),
        "telestore.scan_s": s("telestore.scan", 0.0),
        "fastreplay.process_s": incl.get("fastreplay.process", 0.0),
        "fastreplay.post_s": (
            incl.get("fastreplay.replay", 0.0)
            - incl.get("fastreplay.process", 0.0)
        ),
        "fastreplay.record_other_s": s("telestore.record", 0.0),
        "setup.generate_s": set_self.get("setup.generate", 0.0),
        "setup.train_s": set_self.get("setup.train", 0.0),
        "setup.replicate_s": set_self.get("setup.replicate", 0.0),
        "net.other_s": budget_cpu_s - covered,
        "trace.coverage": covered / budget_cpu_s if budget_cpu_s else 0.0,
    }
    values.update(extra)
    unmeasured = {**setup_tracer.unmeasured, **tracer.unmeasured}
    out = {}
    for name, (unit, layer) in LAYER_METRICS.items():
        value = None if layer in unmeasured else values[name]
        out[name] = {"value": value, "unit": unit}
    return out


# -- serving workloads --------------------------------------------------
@dataclass
class ServeRun:
    text: str
    snap: dict
    report: dict
    window_s: float
    cpu_s: float
    run_cpu_s: float
    listen_s: float


def serve_once(
    spec: Workload,
    config: ServiceConfig,
    setup,
    detector,
    ticks: int,
    *,
    tracer: Tracer | None = None,
) -> ServeRun:
    """One server lifetime in this process against the generator,
    which sends the feed's first ``ticks`` ticks."""
    settle()
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT))
    cpus = os.sched_getaffinity(0)
    gen = None
    try:
        feed = run_dir / "feed.npz"
        write_feed(setup, config.chunk, feed)
        port_file = run_dir / "port"
        cmd = [
            sys.executable,
            str(LOADGEN),
            "--feed", str(feed),
            "--port-file", str(port_file),
            "--ticks", str(ticks),
        ]
        if spec.interval is not None:
            cmd += ["--interval", str(spec.interval)]
        gen = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        pin(gen.pid, cpus)
        wait_ready(gen, port_file.with_name("ready"))
        checkpoint = None
        if spec.durable:
            checkpoint = ServerCheckpoint(
                path=run_dir / "checkpoint.npz",
                every=CHECKPOINT_EVERY,
                fingerprint=program_module(
                    "checkpoint"
                ).fleet_fingerprint(setup.trained),
                chunk=config.chunk,
            )
        sink = ListAlertSink()
        t_listen = time.monotonic()
        server = FleetServer(
            detector,
            sinks=(sink,),
            exit_on_idle=True,
            port_file=port_file,
            wal=run_dir / "wal" if spec.durable else None,
            wal_fsync="tick",
            checkpoint=checkpoint,
        )
        stats = server.stats = WindowStats()
        if tracer is not None:
            patch_layers(tracer)
        cpu0 = time.process_time()
        try:
            server.run()
        finally:
            if tracer is not None:
                tracer.restore()
        run_cpu = time.process_time() - cpu0
        out, _ = gen.communicate(timeout=60)
        if gen.returncode != 0:
            raise BenchError(f"load generator exited with {gen.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    finally:
        if gen is not None and gen.poll() is None:
            gen.kill()
            gen.wait()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(run_dir, ignore_errors=True)
    if stats.first is None or stats.last is None:
        raise BenchError("server processed no frames")
    acked = [a for a in report["ack_at"] if a is not None]
    end = max(acked) if acked else stats.last[0]
    return ServeRun(
        text=sink.text(),
        snap=server.stats.snapshot(),
        report=report,
        window_s=end - stats.first[0],
        cpu_s=stats.last[1] - stats.first[1],
        run_cpu_s=run_cpu,
        listen_s=report["listen_seen"] - t_listen,
    )


def serve_gate(run: ServeRun, reference: str) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, reasons) for one serving run."""
    report, snap = run.report, run.snap
    attempted = report["frames"]
    bp = snap["backpressure"]
    unacked = (report["ticks"] - report["acked"]) * report["nodes"]
    failed = (
        bp["dropped"]
        + bp["late_dropped"]
        + snap["protocol"]["garbage"]
        + unacked
    )
    reasons = []
    if run.text != reference:
        reasons.append("alert JSONL differs from the in-process replay")
    if report["acked"] != report["ticks"] or snap["ticks"] != report["ticks"]:
        reasons.append(
            f"acked {report['acked']} / processed {snap['ticks']} "
            f"of {report['ticks']} sent ticks"
        )
    if bp["dropped"]:
        reasons.append(f"backpressure dropped {bp['dropped']} frames")
    if not reference:
        reasons.append("the fleet raised no alert")
    if reasons:
        failed = attempted if run.text != reference else max(failed, 1)
    return not reasons, attempted, failed, reasons


def run_serve(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    config, setup, detector, times, setup_tracer = prepare(spec, seed, trace)
    ticks = spec.ticks(seconds, feed_ticks(setup, config.chunk))
    run = serve_once(spec, config, setup, detector, ticks)
    rss = peak_rss_mb()
    reference = reference_text(config, setup, ticks)
    ok, attempted, failed, reasons = serve_gate(run, reference)
    samples = run.snap["samples"]
    cpu_per_k = run.cpu_s * 1e3 / (samples / 1e3)
    if not trace:
        more_setups(spec, seed, times)
        lat = [
            (a - d) * 1e3
            for a, d in zip(run.report["ack_at"], run.report["due_at"])
            if a is not None
        ]
        return {
            "correct": ok,
            "attempted": attempted,
            "failed": failed,
            "reasons": reasons,
            "notes": {
                "setup_repeats_s": [round(t, 4) for t in times],
                "listen_s": round(run.listen_s, 4),
                "ack_samples": len(lat),
                "ticks": ticks,
                "durable_dir": "disk (inside the checkout)"
                if spec.durable
                else "none",
            },
            "metrics": {
                "samples_per_s": samples / run.window_s,
                "cpu_ms_per_ksample": cpu_per_k,
                "ack_p50_ms": quantile(lat, 0.5),
                "ack_p90_ms": quantile(lat, 0.9),
                "setup_s": statistics.median(times) + run.listen_s,
                "peak_rss_mb": rss,
            },
        }
    tracer = Tracer()
    traced = serve_once(
        spec,
        config,
        setup,
        build_detector(config, setup),
        ticks,
        tracer=tracer,
    )
    ok2, att2, fail2, reasons2 = serve_gate(traced, reference)
    traced_samples = traced.snap["samples"]
    traced_cpu_per_k = traced.cpu_s * 1e3 / (traced_samples / 1e3)
    layers = layer_metrics(
        tracer,
        setup_tracer,
        budget_cpu_s=traced.run_cpu_s,
        extra={
            "net.bp_dropped": traced.snap["backpressure"]["dropped"],
            "wal.fsyncs": traced.snap["wal_fsyncs"],
            "telestore.bytes": 0,
            "telestore.record_samples_per_s": 0.0,
            "setup.listen_s": run.listen_s,
            "loadgen.late_p90_ms": quantile(
                [
                    (sent - due) * 1e3
                    for sent, due in zip(
                        run.report["sent_at"], run.report["due_at"]
                    )
                ],
                0.9,
            ),
            "loadgen.cpu_s": run.report["cpu_s"],
            "trace.overhead": traced_cpu_per_k / cpu_per_k,
        },
    )
    tracer.dump(OUT / f"trace-{spec.name}-{seed}.jsonl")
    return {
        "correct": ok and ok2,
        "attempted": attempted + att2,
        "failed": failed + fail2,
        "reasons": reasons + reasons2,
        "notes": {"ticks": ticks, "unmeasured": tracer.unmeasured},
        "layers": layers,
    }


# -- store replay -------------------------------------------------------
def record(config, setup, root: Path) -> tuple:
    """The write phase: ``record_fleet`` into ``root`` -> (store, s)."""
    w0 = time.monotonic()
    store = program_module("fastreplay").record_fleet(
        setup, root, chunk=config.chunk
    )
    return store, time.monotonic() - w0


def replay_once(config, setup, store) -> dict:
    """The read phase: one ``replay_from_store`` call over the store."""
    sink = ListAlertSink()
    c0 = time.process_time()
    r0 = time.monotonic()
    outcome = program_module("fastreplay").replay_from_store(
        setup,
        store,
        backend=config.backend,
        mode=config.mode,
        shards=config.shards,
        sinks=(sink,),
        **config.policy_kwargs(),
    )
    return {
        "text": sink.text(),
        "windows": outcome.n_windows,
        "replay_s": time.monotonic() - r0,
        "cpu_s": time.process_time() - c0,
    }


def traced_store(config, setup, store, root: Path, tracer: Tracer) -> dict:
    """One replay of ``store`` (as the untraced replays did) and one
    recording into ``root``, every layer traced.  The replay goes first:
    just after a recording, writeback of the fresh files slows it."""
    settle()
    patch_layers(tracer)
    cpu0 = time.process_time()
    try:
        with tracer.span("fastreplay.replay"):
            run = replay_once(config, setup, store)
        with tracer.span("telestore.record"):
            fresh, _ = record(config, setup, root)
    finally:
        tracer.restore()
    run["budget_cpu_s"] = time.process_time() - cpu0
    run["bytes"] = fresh.nbytes
    return run


def run_store(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    config, setup, _, times, setup_tracer = prepare(spec, seed, trace)
    samples = sum(m.shape[1] for m in setup.eval_data.values())
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT))
    try:
        settle()
        store, record_s = record(config, setup, run_dir / "store")
        # One untimed replay first, checked like the rest: a process's
        # first replay faults in its working memory fresh, which on a
        # virtual machine costs a varying amount of system time.
        settle()
        warmup = replay_once(config, setup, store)
        # The store is recorded once; the replays re-read it for the
        # whole window so the median rests on several of them.
        replays = []
        deadline = time.monotonic() + seconds
        while not replays or time.monotonic() < deadline:
            settle()
            replays.append(replay_once(config, setup, store))
        rss = peak_rss_mb()
        if trace:
            tracer = Tracer()
            traced = traced_store(
                config, setup, store, run_dir / "traced", tracer
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    reference = reference_text(config, setup, None)
    checked = [warmup] + replays + ([traced] if trace else [])
    attempted = sum(r["windows"] for r in checked)
    diverged = [r for r in checked if r["text"] != reference]
    reasons = [f"{len(diverged)} store replays differ in alert JSONL"]
    reasons = reasons if diverged else []
    if not reference:
        reasons.append("the fleet raised no alert")
    failed = sum(r["windows"] for r in diverged) or (1 if reasons else 0)
    cpu_per_k = statistics.median(r["cpu_s"] * 1e6 / samples for r in replays)
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "notes": {
            "replays": len(replays),
            "store_dir": "disk (inside the checkout)",
        },
    }
    if not trace:
        more_setups(spec, seed, times)
        lat = [r["replay_s"] * 1e3 for r in replays]
        result["notes"]["setup_repeats_s"] = [round(t, 4) for t in times]
        result["metrics"] = {
            "samples_per_s": statistics.median(
                samples / r["replay_s"] for r in replays
            ),
            "cpu_ms_per_ksample": cpu_per_k,
            "ack_p50_ms": quantile(lat, 0.5),
            "ack_p90_ms": quantile(lat, 0.9),
            "setup_s": statistics.median(times),
            "peak_rss_mb": rss,
        }
        return result
    result["layers"] = layer_metrics(
        tracer,
        setup_tracer,
        budget_cpu_s=traced["budget_cpu_s"],
        extra={
            "net.other_s": 0.0,
            "net.bp_dropped": 0,
            "wal.fsyncs": 0,
            "telestore.bytes": traced["bytes"],
            "telestore.record_samples_per_s": samples / record_s,
            "setup.listen_s": 0.0,
            "loadgen.late_p90_ms": 0.0,
            "loadgen.cpu_s": 0.0,
            "trace.overhead": traced["cpu_s"] * 1e6 / samples / cpu_per_k,
        },
    )
    tracer.dump(OUT / f"trace-{spec.name}-{seed}.jsonl")
    result["notes"]["unmeasured"] = tracer.unmeasured
    return result


def run_workload(
    spec: Workload, seed: int, seconds: float, trace: bool = False
) -> dict:
    """One benchmark run: set up, measure, check.  See module docs."""
    runner = run_serve if spec.kind == "serve" else run_store
    return runner(spec, seed, seconds, trace)
