"""Unified experiment CLI: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``repro list``
    Show every registered scenario (name, kind, paper artifact, grid
    size, description).
``repro run <name>``
    Execute one scenario through the generic runner, with the shared
    ``--seed/--repeats/--scale/--smoke/--cache-dir`` flags plus output
    sinks (``--csv/--jsonl/--markdown``) and ``--out`` for binary
    artifacts.
``repro run-all``
    Execute every registered scenario (optionally filtered by ``--tag``),
    writing per-scenario CSV/markdown into ``--results-dir``.
``repro detect``
    Deterministic replay of a (cached) fault-fleet through the online
    detection service (``repro.service``): alert JSONL to ``--alerts``
    or stdout, scored summary to stderr.  Byte-identical output across
    processes for the same flags.
``repro serve``
    The same fleet served *live*: bursts are ingested tick by tick and
    alert events stream to stdout the moment they fire.  Ctrl-C exits
    cleanly with status 130 after finishing the in-flight tick, flushing
    open alerts and (with ``--checkpoint``) writing a final checkpoint.
    With ``--listen HOST:PORT`` the feed instead arrives over TCP as
    ``repro-ticks/v1`` frames (plus an optional ``--ops`` HTTP API);
    adding ``--wal DIR --checkpoint F.npz`` makes serving crash-durable
    (kill -9, restart, byte-identical alert JSONL) and ``--supervise``
    wraps it in a crash-restart loop.
``repro loadgen``
    Drive a ``repro serve --listen`` server over the network with the
    exact deterministic feed ``repro detect`` would replay in-process —
    the two alert streams are byte-identical.  ``--resume`` makes the
    client crash-tolerant too: it follows per-tick acks and resends
    everything after the last acked tick across reconnects.
``repro netchaos``
    A seeded TCP chaos proxy to put between the two: latency, resets,
    partitions, corruption and truncation drawn deterministically from
    ``(seed, connection, byte offset)``.
``repro store``
    The columnar telemetry store (``repro-telestore/v1``): ``record`` a
    fleet's held-out feed into a time-partitioned on-disk store, then
    ``stat``/``verify``/``compact``/``prune`` it.  ``repro detect
    --from-store DIR`` replays a recorded window through the detector at
    max speed with byte-identical alert JSONL to live ingestion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.reporting import (
    CSVSink,
    MarkdownSink,
    print_table,
)
from repro.scenarios.options import (
    add_shared_options,
    options_from_args,
    sinks_from_args,
)
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.scenarios.runner import execute

__all__ = ["main", "console_main"]


def _status(message: str) -> None:
    """Progress/log output; stderr so stdout stays machine-consumable."""
    print(message, file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_scenarios(tag=args.tag)
    rows = [
        (
            s.name,
            s.kind,
            s.paper or "—",
            len(s.datasets),
            len(s.methods),
            s.description,
        )
        for s in specs
    ]
    print_table(
        ("Name", "Kind", "Paper artifact", "Datasets", "Methods", "Description"),
        rows,
        title="Registered scenarios",
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        _status(f"error: {exc.args[0]}")
        return 2
    options = options_from_args(args)
    result = execute(spec, options=options, sinks=sinks_from_args(args))
    stats = result.cache_stats
    cache_note = ""
    if options.cache_dir:
        cache_note = (
            f"  cache: {stats['segment_hits'] + stats['dataset_hits']} hits, "
            f"{stats['segment_misses'] + stats['dataset_misses']} misses"
        )
    _status(
        f"[{spec.name}] done in {result.wall_time_s:.2f}s "
        f"({len(result.rows)} rows){cache_note}"
    )
    for path in result.artifact_paths:
        _status(f"[{spec.name}] wrote {path}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    specs = list_scenarios(tag=args.tag)
    results_dir = Path(args.results_dir) if args.results_dir else None
    failures = []
    for spec in specs:
        _status(f"[{spec.name}] running ...")
        sinks = sinks_from_args(args, table=not args.quiet)
        if results_dir is not None:
            sinks.append(CSVSink(results_dir / f"{spec.name}.csv"))
            sinks.append(MarkdownSink(results_dir / f"{spec.name}.md"))
        try:
            result = execute(
                spec, options=options_from_args(args), sinks=sinks
            )
        except Exception as exc:  # surface every failure, run the rest
            failures.append((spec.name, exc))
            _status(f"[{spec.name}] FAILED: {exc}")
            continue
        _status(
            f"[{spec.name}] done in {result.wall_time_s:.2f}s "
            f"({len(result.rows)} rows)"
        )
    if failures:
        _status(f"{len(failures)}/{len(specs)} scenarios failed")
        return 1
    return 0


# ----------------------------------------------------------------------
# Online detection service (repro serve / repro detect / repro loadgen)
# ----------------------------------------------------------------------
def _service_defaults() -> dict[str, float | int]:
    """Full-size preset: field defaults of the one canonical
    ``repro.service.api.ServiceConfig`` (imported lazily so ``repro
    list``/``run`` don't pay the service imports)."""
    import dataclasses

    from repro.service.api import ServiceConfig

    return {
        f.name: f.default
        for f in dataclasses.fields(ServiceConfig)
        if f.default is not dataclasses.MISSING
    }


def _service_smoke() -> dict[str, float | int]:
    """The --smoke preset CI exercises (seconds-scale)."""
    return {
        **_service_defaults(),
        "nodes": 2,
        "t": 2500,
        "blocks": 8,
        "trees": 6,
        "chunk": 200,
    }


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    defaults = _service_defaults()
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="fleet size (independently seeded fault nodes; "
        f"default {defaults['nodes']})",
    )
    parser.add_argument(
        "--t", type=int, default=None,
        help="samples per node; the leading --train-frac trains the "
        f"fleet, the rest replays (default {defaults['t']})",
    )
    parser.add_argument(
        "--segment", default="fault",
        help="labeled segment generator behind every node (default: fault)",
    )
    parser.add_argument(
        "--noise-std", type=float, default=0.0,
        help="additive Gaussian sensor noise as a fraction of each "
        "sensor's std (default 0)",
    )
    parser.add_argument(
        "--blocks", type=int, default=None,
        help=f"signature length l (default {defaults['blocks']})",
    )
    parser.add_argument(
        "--trees", type=int, default=None,
        help="shared fault-classifier forest size "
        f"(default {defaults['trees']})",
    )
    parser.add_argument(
        "--train-frac", type=float, default=None,
        help="leading fraction of each node's history used for "
        f"training (default {defaults['train_frac']})",
    )
    parser.add_argument(
        "--chunk", type=int, default=None,
        help=f"samples per ingested burst (default {defaults['chunk']}; "
        "serve uses 30 unless set)",
    )
    parser.add_argument(
        "--open-after", type=int, default=None,
        help="consecutive faulty windows before an alert opens "
        f"(default {defaults['open_after']})",
    )
    parser.add_argument(
        "--close-after", type=int, default=None,
        help="consecutive healthy windows before an open alert closes "
        f"(default {defaults['close_after']})",
    )
    parser.add_argument(
        "--min-confidence", type=float, default=None,
        help="faulty predictions below this confidence are treated as "
        f"healthy (default {defaults['min_confidence']})",
    )
    parser.add_argument(
        "--top-blocks", type=int, default=None,
        help="deviating signature blocks attributed per opening alert "
        f"(default {defaults['top_blocks']})",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed: node i uses seed+i for generation, and the "
        f"classifier forest uses it directly "
        f"(default {defaults['seed']})",
    )
    parser.add_argument(
        "--healthy-label", type=int, default=None,
        help="integer class treated as 'no fault' "
        f"(default {defaults['healthy_label']}, the fault segment's "
        "healthy class; set explicitly for other --segment choices)",
    )
    parser.add_argument(
        "--mode", choices=("exact", "float32", "quantized"),
        default="exact",
        help="signature arithmetic (default exact = float64; "
        "float32/quantized trade accuracy for throughput/memory)",
    )
    parser.add_argument(
        "--model", default=None,
        help="fleet model .npz: loaded if present (skips retraining, "
        "validated against this run's geometry), written after "
        "training otherwise",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed artifact cache; re-runs replay the "
        "cached .npz segments instead of regenerating",
    )
    parser.add_argument(
        "--no-guard", action="store_true",
        help="disable the input-hardening guard (on by default: "
        "malformed/late/duplicate bursts degrade or quarantine the "
        "offending node instead of crashing, guard events join the "
        "stream and alerts carry the node health state)",
    )
    parser.add_argument(
        "--replicate", type=int, default=None, metavar="N",
        help="replicate the trained fleet to N nodes by reference "
        "(no retraining; how load tests reach thousands of nodes)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale preset (2 nodes, t=2500, 6 trees) used by CI",
    )


def _service_config(args: argparse.Namespace, *, chunk_default=None):
    """The :class:`repro.service.api.ServiceConfig` these flags describe.

    Explicit flags beat the preset (``--smoke`` or full-size);
    ``chunk_default`` overrides the preset chunk when the flag is unset
    (``repro serve``/``loadgen`` default to 30-sample live bursts).
    """
    from repro.service.api import ServiceConfig

    preset = _service_smoke() if args.smoke else _service_defaults()
    params = {}
    for name, fallback in preset.items():
        explicit = getattr(args, name, None)
        params[name] = fallback if explicit is None else explicit
    if args.chunk is None and chunk_default is not None:
        params["chunk"] = chunk_default
    params.update(
        segment=args.segment,
        noise_std=float(args.noise_std),
        mode=args.mode,
        guard=not args.no_guard,
        model_path=args.model,
        cache_dir=args.cache_dir,
        replicate=int(args.replicate or 0),
    )
    return ServiceConfig(**params)


def _build_service_setup(args: argparse.Namespace, *, chunk_default=None):
    from repro.service.api import build_context, build_setup

    config = _service_config(args, chunk_default=chunk_default)
    context = build_context(config)
    setup = build_setup(config, context=context)
    return setup, config, context


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table, save_csv
    from repro.scenarios.evaluations import FLEET_DETECT_HEADERS
    from repro.service.alerts import (
        JSONLAlertSink,
        MarkdownAlertSink,
        StreamAlertSink,
    )
    from repro.service.api import replay

    if args.from_store and (args.checkpoint or args.resume):
        _status("error: --from-store and --checkpoint/--resume are exclusive")
        return 2
    setup, config, context = _build_service_setup(args)
    sinks = []
    if args.alerts:
        sinks.append(JSONLAlertSink(args.alerts))
    else:
        sinks.append(StreamAlertSink(sys.stdout))
    if args.markdown:
        sinks.append(MarkdownAlertSink(args.markdown))
    if args.from_store:
        from repro.service.fastreplay import replay_from_store

        outcome = replay_from_store(
            setup,
            args.from_store,
            t0=args.t0,
            t1=args.t1,
            mode=config.mode,
            stamp_health=None if config.guard else False,
            sinks=sinks,
            **config.policy_kwargs(),
        )
    else:
        outcome = replay(
            config,
            setup,
            sinks=sinks,
            checkpoint_path=args.checkpoint,
            checkpoint_every=(
                int(args.checkpoint_every) if args.checkpoint else 0
            ),
            resume=args.resume,
            stop_after=args.stop_after,
        )
    row = outcome.row(f"{args.segment}-fleet-{setup.n_nodes}")
    _status(
        format_table(
            FLEET_DETECT_HEADERS, [row], title="Fleet detection replay"
        )
    )
    if args.csv:
        save_csv(args.csv, FLEET_DETECT_HEADERS, [row])
    if args.alerts:
        _status(f"[detect] wrote {outcome.n_alerts} alerts to {args.alerts}")
    if outcome.health is not None:
        states = outcome.health["states"]
        if (
            states.get("degraded")
            or states.get("quarantined")
            or outcome.health["unknown_nodes"]
        ):
            _status(f"[detect] fleet health: {states}")
    if args.checkpoint and args.stop_after is not None:
        _status(
            f"[detect] stopped before tick {args.stop_after}; resume "
            f"with --resume --checkpoint {args.checkpoint}"
        )
    if args.cache_dir:
        stats = context.stats
        _status(
            f"[detect] cache: {stats['segment_hits']} hits, "
            f"{stats['segment_misses']} misses"
        )
    return 0


def _serve_sinks(args: argparse.Namespace) -> list:
    from repro.service.alerts import JSONLAlertSink, StreamAlertSink

    if args.alerts:
        return [JSONLAlertSink(args.alerts)]
    return [StreamAlertSink(sys.stdout)]


#: ``repro serve`` flags consumed by the supervisor itself; stripped
#: from the child argv (value = flag takes an argument).
_SUPERVISOR_FLAGS = {
    "--supervise": False,
    "--max-restarts": True,
    "--restart-backoff": True,
    "--min-uptime": True,
}


def _child_argv(argv: list[str]) -> list[str]:
    """The original argv minus the supervisor-only flags (both
    ``--flag value`` and ``--flag=value`` spellings)."""
    out: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        flag = token.split("=", 1)[0]
        if flag in _SUPERVISOR_FLAGS:
            skip = _SUPERVISOR_FLAGS[flag] and "=" not in token
            continue
        out.append(token)
    return out


def _supervise_serve(args: argparse.Namespace) -> int:
    """Crash-restart loop around a child ``repro serve`` process.

    The child is this exact invocation minus the supervisor flags, so
    a respawn re-binds the same listeners, re-reads the same WAL and
    checkpoint, and recovers to the pre-crash state.  Clean exits and
    Ctrl-C pass through (0 / 130); flag errors (2) are fatal —
    restarting cannot fix them.  Anything else (including ``kill -9``)
    is a crash: respawn with exponential backoff, and trip the
    crash-loop breaker after ``--max-restarts`` consecutive exits
    faster than ``--min-uptime``.
    """
    import signal
    import subprocess
    import time

    cmd = [sys.executable, "-m", "repro", *_child_argv(args.argv)]
    backoff = float(args.restart_backoff)
    min_uptime = float(args.min_uptime)
    quick_crashes = 0
    restarts = 0
    while True:
        started = time.monotonic()
        proc = subprocess.Popen(cmd)
        _status(f"[supervise] child pid {proc.pid} (restarts: {restarts})")
        try:
            rc = proc.wait()
        except KeyboardInterrupt:
            # Pass the interrupt down and give the child its graceful
            # drain (finish the tick, flush alerts, final checkpoint).
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                proc.kill()
                proc.wait()
            return 130
        uptime = time.monotonic() - started
        if rc == 0:
            return 0
        if rc in (130, -signal.SIGINT):
            return 130
        if rc == 2:
            _status("[supervise] child rejected its flags; not restarting")
            return 2
        if uptime >= min_uptime:
            quick_crashes = 0
        else:
            quick_crashes += 1
            if quick_crashes > int(args.max_restarts):
                _status(
                    f"[supervise] crash loop: {quick_crashes} consecutive "
                    f"exits under {min_uptime:.0f}s; giving up"
                )
                return 1
        delay = min(backoff * (2.0 ** quick_crashes), 30.0)
        restarts += 1
        _status(
            f"[supervise] child exited rc={rc} after {uptime:.1f}s; "
            f"restarting in {delay:.2f}s"
        )
        time.sleep(delay)


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    if args.listen and args.interval:
        # Pacing only drives the in-process replay loop; silently
        # ignoring it would surprise an operator expecting throttling.
        _status(
            "error: --interval applies to in-process serving only and "
            "cannot be combined with --listen"
        )
        return 2
    if args.wal and not args.listen:
        _status(
            "error: --wal journals network ingestion and requires --listen "
            "(in-process serving is already deterministic; use "
            "--checkpoint alone)"
        )
        return 2
    if args.supervise:
        if not args.listen:
            _status("error: --supervise requires --listen")
            return 2
        return _supervise_serve(args)

    from repro.service.api import replay, serve

    pid_file = Path(args.pid_file) if args.pid_file else None
    if pid_file is not None:
        pid_file.parent.mkdir(parents=True, exist_ok=True)
        pid_file.write_text(f"{os.getpid()}\n", encoding="utf-8")
    try:
        return _run_serve(args, replay, serve)
    finally:
        if pid_file is not None:
            try:
                pid_file.unlink(missing_ok=True)
            except OSError:
                pass


def _run_serve(args: argparse.Namespace, replay, serve) -> int:
    setup, config, _ = _build_service_setup(args, chunk_default=30)
    sinks = _serve_sinks(args)
    if args.listen:
        from repro.service.net import BackpressureConfig

        durability = ""
        if args.wal:
            durability = f", wal={args.wal} (fsync={args.wal_fsync})"
        if args.checkpoint:
            durability += f", checkpoint={args.checkpoint}"
        _status(
            f"[serve] {setup.n_nodes} nodes, burst={config.chunk} "
            f"samples, listening on {args.listen} "
            f"(backpressure: {args.backpressure}, queue {args.queue_max}"
            f"{durability})"
        )
        stats = serve(
            config,
            setup,
            listen=args.listen,
            ops=args.ops,
            sinks=tuple(sinks),
            backpressure=BackpressureConfig(
                queue_max=int(args.queue_max), policy=args.backpressure
            ),
            tick_timeout=float(args.tick_timeout),
            exit_on_idle=args.exit_on_idle,
            port_file=args.port_file,
            wal_dir=args.wal,
            wal_fsync=args.wal_fsync,
            checkpoint_path=args.checkpoint,
            checkpoint_every=int(args.checkpoint_every),
        )
        bp = stats["backpressure"]
        wal_note = ""
        if args.wal:
            wal_note = (
                f"; wal {stats['wal_appended']} appended, "
                f"{stats['wal_replayed']} replayed, "
                f"{stats['checkpoints']} checkpoints"
            )
        _status(
            f"[serve] drained: {stats['ticks']} ticks, "
            f"{stats['frames']} frames, {stats['events']} alert events, "
            f"{stats['samples_per_s']:.0f} samples/s "
            f"(p50 {stats['tick_latency_p50_ms']:.2f} ms, "
            f"p99 {stats['tick_latency_p99_ms']:.2f} ms; "
            f"dropped {bp['dropped']}, coalesced {bp['coalesced']}, "
            f"late {bp['late_dropped']}{wal_note})"
        )
        return 0
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    _status(
        f"[serve] {setup.n_nodes} nodes, burst={config.chunk} samples, "
        f"{horizon} samples queued (Ctrl-C to stop)"
    )
    # Same loop as `repro detect`, with live pacing and bounded memory
    # (no prediction/alert history is retained unless checkpointing —
    # serving is about the event stream, not the replay score).
    outcome = replay(
        config,
        setup,
        sinks=sinks,
        interval=float(args.interval),
        record_history=bool(args.checkpoint),
        checkpoint_path=args.checkpoint,
        checkpoint_every=(
            int(args.checkpoint_every) if args.checkpoint else 0
        ),
    )
    # outcome.events is empty in serving mode (nothing is retained);
    # the counts are always populated.  n_events = opens + closes.
    closes = outcome.n_events - outcome.n_alerts
    _status(
        f"[serve] drained: {outcome.n_windows} windows classified, "
        f"{outcome.n_events} alert events, "
        f"{outcome.n_alerts - closes} alert(s) still open"
    )
    if outcome.interrupted:
        # The replay loop already finished the in-flight tick, flushed
        # every open alert into the sinks and wrote a final checkpoint;
        # exit with the conventional Ctrl-C status via console_main.
        if args.checkpoint:
            _status(f"[serve] interrupted; checkpoint at {args.checkpoint}")
        raise KeyboardInterrupt
    return 0


def _port_file_address(path: str | Path, host: str = "127.0.0.1"):
    """Address callable re-reading a ``--port-file`` on every connect
    attempt — a supervised server restart lands on a fresh ephemeral
    port, and the next reconnect follows it there.  A missing or
    still-empty file raises (``OSError``/``ValueError``), which the
    connect backoff treats as retryable."""
    path = Path(path)

    def resolve() -> tuple[str, int]:
        return (host, int(path.read_text(encoding="utf-8").strip()))

    return resolve


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.service.net import loadgen, parse_address

    if bool(args.connect) == bool(args.port_file):
        _status("error: exactly one of --connect/--port-file is required")
        return 2
    setup, config, _ = _build_service_setup(args, chunk_default=30)
    if args.port_file:
        address = _port_file_address(args.port_file)
        target = f"port-file {args.port_file}"
    else:
        address = parse_address(args.connect)
        target = args.connect
    _status(
        f"[loadgen] {setup.n_nodes} nodes -> {target} "
        f"({args.format} frames, burst={config.chunk}"
        f"{', resume' if args.resume else ''})"
    )
    stats = loadgen(
        setup,
        address,
        chunk=config.chunk,
        fmt=args.format,
        interval=float(args.interval),
        max_ticks=args.max_ticks,
        send_eof=not args.no_eof,
        resume=args.resume,
        connect_timeout=float(args.connect_timeout),
        ack_timeout=float(args.ack_timeout),
        total_timeout=args.total_timeout,
    )
    rate = stats["bytes"] / stats["seconds"] / 1e6 if stats["seconds"] else 0.0
    resume_note = ""
    if args.resume:
        resume_note = (
            f"; {stats['acked_ticks']} ticks acked, "
            f"{stats['reconnects']} reconnects, "
            f"{stats['resent_frames']} frames resent"
        )
    _status(
        f"[loadgen] sent {stats['frames']} frames / {stats['ticks']} ticks "
        f"({stats['bytes'] / 1e6:.1f} MB) in {stats['seconds']:.2f}s "
        f"({rate:.0f} MB/s{resume_note})"
    )
    return 0


def _cmd_netchaos(args: argparse.Namespace) -> int:
    import time

    from repro.service.net import parse_address
    from repro.service.netchaos import ChaosProxy, NetChaosConfig

    if bool(args.upstream) == bool(args.upstream_port_file):
        _status(
            "error: exactly one of --upstream/--upstream-port-file is "
            "required"
        )
        return 2
    if args.upstream:
        upstream = parse_address(args.upstream)
        origin = args.upstream
    else:
        upstream = _port_file_address(args.upstream_port_file)
        origin = f"port-file {args.upstream_port_file}"
    host, port = parse_address(args.listen)
    config = NetChaosConfig(
        seed=int(args.seed or 0),
        latency_ms=float(args.latency_ms),
        jitter_ms=float(args.jitter_ms),
        corrupt_per_mb=float(args.corrupt_per_mb),
        reset_per_mb=float(args.reset_per_mb),
        truncate_per_mb=float(args.truncate_per_mb),
        partition_per_mb=float(args.partition_per_mb),
        partition_ms=float(args.partition_ms),
    )
    proxy = ChaosProxy(
        upstream, config, host=host, port=port, port_file=args.port_file
    )
    proxy.start()
    _status(
        f"[netchaos] {host}:{proxy.port} -> {origin} "
        f"(seed {config.seed}; Ctrl-C to stop)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        stats = proxy.stop()
        _status(
            f"[netchaos] forwarded {stats['bytes_out']} of "
            f"{stats['bytes_in']} bytes over {stats['connections']} "
            f"connection(s): {stats['corrupted']} corrupted, "
            f"{stats['resets']} resets, {stats['truncated_bytes']} bytes "
            f"truncated, {stats['partitions']} partitions"
        )
        raise


# ----------------------------------------------------------------------
# Columnar telemetry store (repro store ...)
# ----------------------------------------------------------------------
def _cmd_store_record(args: argparse.Namespace) -> int:
    from repro.service.fastreplay import record_fleet

    setup, config, _ = _build_service_setup(args)
    store = record_fleet(
        setup,
        args.root,
        partition_ticks=int(args.partition_ticks),
        chunk=config.chunk,
        guarded=config.guard,
    )
    _status(
        f"[store] recorded {store.ticks} ticks x {len(store.paths)} nodes "
        f"into {len(store.partitions)} partition(s) at {store.root} "
        f"({store.nbytes / 1e6:.1f} MB)"
    )
    return 0


def _cmd_store_stat(args: argparse.Namespace) -> int:
    import json

    from repro.monitoring.telestore import TeleStore

    print(json.dumps(TeleStore(args.root).stat(), indent=2, sort_keys=True))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import TeleStore, TeleStoreError

    store = TeleStore(args.root)
    try:
        checked = store.verify()
    except TeleStoreError as exc:
        _status(f"error: {exc}")
        return 1
    _status(f"[store] verified {checked} partition(s): all content hashes ok")
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import TeleStore

    store = TeleStore(args.root)
    merged = store.compact(args.target_ticks)
    _status(
        f"[store] compacted {merged} partition(s) away; "
        f"{len(store.partitions)} remain"
    )
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    from repro.monitoring.telestore import RetentionError, TeleStore

    store = TeleStore(args.root)
    try:
        dropped = store.prune(
            keep_last=int(args.keep_last), checkpoints=args.checkpoint or ()
        )
    except RetentionError as exc:
        _status(f"error: {exc}")
        return 1
    _status(
        f"[store] pruned {dropped} partition(s); "
        f"[{store.t0}, {store.t1}) retained"
    )
    return 0


# ----------------------------------------------------------------------
# Benchmark runner (repro bench)
# ----------------------------------------------------------------------
#: The benchmark files that refresh ``results/*.csv`` + ``BENCH_*.json``.
BENCH_SUITES: dict[str, str] = {
    "engine": "test_engine_scaling.py",
    "ml": "test_ml_scaling.py",
    "scenarios": "test_scenario_cache.py",
    "service": "test_service_scaling.py",
    "datagen": "test_datagen_scaling.py",
    "tick": "test_tick_hotpath.py",
    "store": "test_store_scaling.py",
    "net": "test_net_serve.py",
}


def _repo_root() -> Path:
    """The checkout root (the parent of ``src/``); benchmarks live there."""
    return Path(__file__).resolve().parents[2]


def _bench_command(args: argparse.Namespace) -> list[str]:
    """The pytest invocation for the requested benchmark selection."""
    if args.all:
        targets = ["benchmarks"]
    else:
        suites = args.suite or sorted(BENCH_SUITES)
        targets = [str(Path("benchmarks") / BENCH_SUITES[s]) for s in suites]
    cmd = [sys.executable, "-m", "pytest", *targets, "-m", "slow", "-q"]
    if args.filter:
        cmd += ["-k", args.filter]
    return cmd


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the slow-marked benchmark suite, refreshing the recorded
    ``results/*.csv`` tables and ``BENCH_*.json`` summaries that
    ``tests/test_bench_guard.py`` enforces floors on.

    Runs in a subprocess so the ``REPRO_BENCH_SCALE``/``REPRO_BENCH_TREES``
    knobs are picked up at interpreter start, exactly as a manual
    ``pytest benchmarks -m slow`` run would.
    """
    import os
    import subprocess

    if args.all and args.suite:
        _status("error: --all and --suite are mutually exclusive")
        return 2
    root = _repo_root()
    if not (root / "benchmarks").is_dir():
        _status(
            "error: benchmarks/ not found next to src/ — `repro bench` "
            "runs from a source checkout"
        )
        return 2
    env = os.environ.copy()
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if args.scale is not None:
        env["REPRO_BENCH_SCALE"] = str(args.scale)
    if args.trees is not None:
        env["REPRO_BENCH_TREES"] = str(args.trees)
    cmd = _bench_command(args)
    _status(f"[bench] {' '.join(cmd)}")
    rc = subprocess.call(cmd, cwd=root, env=env)
    if rc == 0:
        _status(
            "[bench] refreshed results/*.csv + BENCH_*.json "
            "(guarded by tests/test_bench_guard.py)"
        )
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative scenario runner for the CS reproduction "
        "(paper figures/tables plus extended coverage).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show registered scenarios")
    p_list.add_argument("--tag", default=None, help="filter by tag")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("name", help="registered scenario name")
    add_shared_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every registered scenario")
    p_all.add_argument("--tag", default=None, help="filter by tag")
    p_all.add_argument(
        "--results-dir",
        default=None,
        help="write per-scenario CSV + markdown summaries here",
    )
    p_all.add_argument(
        "--quiet", action="store_true", help="suppress stdout tables"
    )
    add_shared_options(
        p_all, "--seed", "--repeats", "--scale", "--trees", "--smoke",
        "--cache-dir", "--out",
    )
    p_all.set_defaults(func=_cmd_run_all)

    p_detect = sub.add_parser(
        "detect",
        help="replay a (cached) fault fleet through the online "
        "detection service",
    )
    _add_service_options(p_detect)
    p_detect.add_argument(
        "--alerts", default=None,
        help="write the alert event stream as JSON lines here "
        "(default: stdout); byte-identical across processes",
    )
    p_detect.add_argument(
        "--csv", default=None,
        help="also write the scored summary row as CSV",
    )
    p_detect.add_argument(
        "--markdown", default=None,
        help="also write a markdown alert summary table",
    )
    p_detect.add_argument(
        "--checkpoint", default=None,
        help="checkpoint the full detector state to this .npz while "
        "replaying; with --resume, restore it and replay only the "
        "remaining ticks (byte-identical alert stream to an "
        "uninterrupted run)",
    )
    p_detect.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="ticks between checkpoints (default 1; needs --checkpoint)",
    )
    p_detect.add_argument(
        "--resume", action="store_true",
        help="restore --checkpoint before replaying (typed error on "
        "lineage/geometry/knob mismatch, never silent drift)",
    )
    p_detect.add_argument(
        "--stop-after", type=int, default=None,
        help="stop before processing this tick index (simulated crash "
        "for checkpoint drills)",
    )
    p_detect.add_argument(
        "--from-store", default=None, metavar="DIR",
        help="replay a recorded telemetry store (see `repro store "
        "record`) instead of the live feed: partition-sized blocks "
        "stream into the detector at max speed, alert JSONL "
        "byte-identical to live ingestion of the same window",
    )
    p_detect.add_argument(
        "--t0", type=int, default=None,
        help="first store tick to replay (default: store start; scored "
        "windows need --t0 aligned to the window stride)",
    )
    p_detect.add_argument(
        "--t1", type=int, default=None,
        help="replay up to this store tick, exclusive (default: store end)",
    )
    p_detect.set_defaults(func=_cmd_detect)

    p_serve = sub.add_parser(
        "serve",
        help="serve the fleet live: in-process feed by default, or a "
        "TCP ingestion server (+ HTTP ops API) with --listen",
    )
    _add_service_options(p_serve)
    p_serve.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to pause between ingested bursts (in-process "
        "mode; default 0 = as fast as possible)",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept repro-ticks/v1 frames (newline-JSON or binary) on "
        "this TCP address instead of generating the feed in-process "
        "(port 0 = ephemeral; see --port-file)",
    )
    p_serve.add_argument(
        "--ops", default=None, metavar="HOST:PORT",
        help="also serve the HTTP ops API here (/health /fleet /alerts "
        "/alerts/<id>/ack|suppress /stats; needs --listen)",
    )
    p_serve.add_argument(
        "--alerts", default=None,
        help="write alert events as JSON lines here instead of stdout "
        "(byte-identical to `repro detect` of the same flags)",
    )
    p_serve.add_argument(
        "--queue-max", type=int, default=1024,
        help="per-node ingress queue bound (default 1024 bursts)",
    )
    p_serve.add_argument(
        "--backpressure", choices=("drop-oldest", "coalesce"),
        default="drop-oldest",
        help="full-queue policy: drop-oldest evicts the stalest queued "
        "burst, coalesce replaces the newest (default drop-oldest)",
    )
    p_serve.add_argument(
        "--tick-timeout", type=float, default=5.0,
        help="seconds the tick barrier waits for a complete fleet "
        "before processing a partial burst (default 5)",
    )
    p_serve.add_argument(
        "--exit-on-idle", action="store_true",
        help="stop once every connection has closed and the queues "
        "drained (CI / load-test mode)",
    )
    p_serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound ingestion port here once listening "
        "(how scripts discover a --listen host:0 port; with --ops the "
        "bound ops port lands in PATH.ops)",
    )
    p_serve.add_argument(
        "--checkpoint", default=None,
        help="checkpoint detector state to this .npz; with --listen the "
        "snapshot also carries the server's routing state and WAL "
        "position, taken between ticks every --checkpoint-every ticks; "
        "Ctrl-C flushes open alerts and writes a final checkpoint "
        "before exiting 130",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="ticks between checkpoints (default 1; needs --checkpoint)",
    )
    p_serve.add_argument(
        "--wal", default=None, metavar="DIR",
        help="write-ahead repro-wal/v1 frame journal directory (needs "
        "--listen): every accepted frame is journaled before "
        "processing, and on restart the journal replays from the last "
        "checkpoint watermark — kill -9 mid-tick, restart, and the "
        "alert JSONL is byte-identical to an uninterrupted run",
    )
    p_serve.add_argument(
        "--wal-fsync", choices=("always", "tick", "off"), default="tick",
        help="journal durability: fsync per record (always), per "
        "processed tick (tick, default), or leave flushing to the OS "
        "(off — survives process crashes, not machine crashes)",
    )
    p_serve.add_argument(
        "--pid-file", default=None, metavar="PATH",
        help="write this process's pid here (rewritten by each "
        "supervised restart; removed on clean exit) so drills and "
        "scripts can target kill signals",
    )
    p_serve.add_argument(
        "--supervise", action="store_true",
        help="run serving in a child process and restart it on crash "
        "with exponential backoff; with --wal/--checkpoint each respawn "
        "recovers to the pre-crash state (clean exit and Ctrl-C pass "
        "through)",
    )
    p_serve.add_argument(
        "--max-restarts", type=int, default=5,
        help="crash-loop breaker: give up after this many consecutive "
        "child exits faster than --min-uptime (default 5)",
    )
    p_serve.add_argument(
        "--restart-backoff", type=float, default=0.5,
        help="base seconds between restarts, doubled per consecutive "
        "quick crash, capped at 30 (default 0.5)",
    )
    p_serve.add_argument(
        "--min-uptime", type=float, default=5.0,
        help="seconds a child must stay up to reset the crash-loop "
        "counter (default 5)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a `repro serve --listen` server with the exact "
        "deterministic feed `repro detect` would replay",
    )
    _add_service_options(p_loadgen)
    p_loadgen.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="ingestion address of the running server (or use "
        "--port-file)",
    )
    p_loadgen.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="read the server's bound port from this file (the serve "
        "--port-file path), re-read on every reconnect so a supervised "
        "restart's fresh ephemeral port is followed automatically",
    )
    p_loadgen.add_argument(
        "--format", choices=("binary", "json"), default="binary",
        help="frame encoding (default binary; json exercises the "
        "newline-JSON path)",
    )
    p_loadgen.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to pause between ticks (default 0 = full speed)",
    )
    p_loadgen.add_argument(
        "--max-ticks", type=int, default=None,
        help="stop after this many ticks (default: the full horizon)",
    )
    p_loadgen.add_argument(
        "--no-eof", action="store_true",
        help="skip the trailing {\"op\": \"eof\"} control frame",
    )
    p_loadgen.add_argument(
        "--resume", action="store_true",
        help="crash-tolerant mode: subscribe to per-tick acks and, on "
        "reset/refused/stall, reconnect with backoff and resend from "
        "the last acked tick (eof only after everything is acked)",
    )
    p_loadgen.add_argument(
        "--connect-timeout", type=float, default=30.0,
        help="seconds of capped-backoff connection retries before "
        "giving up (default 30; also covers the port-file race at "
        "server startup)",
    )
    p_loadgen.add_argument(
        "--ack-timeout", type=float, default=5.0,
        help="seconds without ack progress before --resume tears the "
        "connection down and resends (default 5)",
    )
    p_loadgen.add_argument(
        "--total-timeout", type=float, default=None,
        help="overall wall-clock budget; exceeded = TimeoutError "
        "(default: none)",
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_chaos = sub.add_parser(
        "netchaos",
        help="seeded TCP chaos proxy between loadgen and a serve "
        "--listen server (latency, resets, partitions, corruption, "
        "truncation — deterministic per seed)",
    )
    p_chaos.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="address clients connect to (port 0 = ephemeral; see "
        "--port-file)",
    )
    p_chaos.add_argument(
        "--upstream", default=None, metavar="HOST:PORT",
        help="the real server's ingestion address",
    )
    p_chaos.add_argument(
        "--upstream-port-file", default=None, metavar="PATH",
        help="read the upstream port from this file per connection "
        "(follows supervised server restarts; or use --upstream)",
    )
    p_chaos.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the proxy's bound port here once listening",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-schedule seed: plans are a pure function of "
        "(seed, connection, byte offset) (default 0)",
    )
    p_chaos.add_argument(
        "--latency-ms", type=float, default=0.0,
        help="fixed added latency per 4 KiB span (default 0)",
    )
    p_chaos.add_argument(
        "--jitter-ms", type=float, default=0.0,
        help="additional uniform random latency per span (default 0)",
    )
    p_chaos.add_argument(
        "--corrupt-per-mb", type=float, default=0.0,
        help="expected single-byte XOR corruptions per forwarded MB "
        "(default 0)",
    )
    p_chaos.add_argument(
        "--reset-per-mb", type=float, default=0.0,
        help="expected hard connection resets (RST) per forwarded MB "
        "(default 0)",
    )
    p_chaos.add_argument(
        "--truncate-per-mb", type=float, default=0.0,
        help="expected span truncations (silently dropped bytes) per "
        "forwarded MB (default 0)",
    )
    p_chaos.add_argument(
        "--partition-per-mb", type=float, default=0.0,
        help="expected short partitions (stalls) per forwarded MB "
        "(default 0)",
    )
    p_chaos.add_argument(
        "--partition-ms", type=float, default=50.0,
        help="stall length per partition event (default 50 ms)",
    )
    p_chaos.set_defaults(func=_cmd_netchaos)

    p_store = sub.add_parser(
        "store",
        help="record and manage the columnar telemetry store "
        "(repro-telestore/v1)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_record = store_sub.add_parser(
        "record",
        help="record a fleet's held-out feed into a new store directory",
    )
    p_record.add_argument("root", help="store directory to create")
    _add_service_options(p_record)
    p_record.add_argument(
        "--partition-ticks", type=int, default=1024,
        help="ticks per immutable partition file (default 1024)",
    )
    p_record.set_defaults(func=_cmd_store_record)

    p_stat = store_sub.add_parser(
        "stat", help="print the store manifest + partition index as JSON"
    )
    p_stat.add_argument("root", help="store directory")
    p_stat.set_defaults(func=_cmd_store_stat)

    p_verify = store_sub.add_parser(
        "verify",
        help="recompute every partition's SHA-256 content hash against "
        "the index (catches bit rot and truncation)",
    )
    p_verify.add_argument("root", help="store directory")
    p_verify.set_defaults(func=_cmd_store_verify)

    p_compact = store_sub.add_parser(
        "compact",
        help="merge adjacent small partitions (crash-safe: new files "
        "first, index flip second, unlink last)",
    )
    p_compact.add_argument("root", help="store directory")
    p_compact.add_argument(
        "--target-ticks", type=int, default=None,
        help="merged partition size (default: the store's partition_ticks)",
    )
    p_compact.set_defaults(func=_cmd_store_compact)

    p_prune = store_sub.add_parser(
        "prune",
        help="drop the oldest partitions; refuses (typed error) to drop "
        "data a detector checkpoint still references",
    )
    p_prune.add_argument("root", help="store directory")
    p_prune.add_argument(
        "--keep-last", type=int, required=True,
        help="number of newest partitions to retain",
    )
    p_prune.add_argument(
        "--checkpoint", action="append", default=None,
        help="detector checkpoint .npz whose resume point must stay "
        "replayable (repeatable; <root>/checkpoints/*.npz are always "
        "respected)",
    )
    p_prune.set_defaults(func=_cmd_store_prune)

    p_bench = sub.add_parser(
        "bench",
        help="run the slow-marked benchmark suite and refresh "
        "results/*.csv + BENCH_*.json",
    )
    p_bench.add_argument(
        "--suite", action="append", choices=sorted(BENCH_SUITES),
        help="benchmark suite(s) to run (repeatable; default: all of "
        f"{', '.join(sorted(BENCH_SUITES))})",
    )
    p_bench.add_argument(
        "--all", action="store_true",
        help="run every file under benchmarks/ (figure/table "
        "reproductions included), not just the recorded-speedup suites",
    )
    p_bench.add_argument(
        "--filter", "-k", default=None,
        help="pytest -k expression to select individual benchmarks",
    )
    p_bench.add_argument(
        "--scale", type=float, default=None,
        help="REPRO_BENCH_SCALE for the run (enlarges datasets toward "
        "paper sizes)",
    )
    p_bench.add_argument(
        "--trees", type=int, default=None,
        help="REPRO_BENCH_TREES for the run (forest size; paper uses 50)",
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(raw)
    # The supervisor respawns this exact invocation minus its own flags.
    args.argv = raw
    return args.func(args)


def console_main() -> None:  # pragma: no cover - setuptools entry point
    import os

    try:
        sys.exit(main())
    except KeyboardInterrupt:
        # Ctrl-C (e.g. stopping `repro serve`) is a normal way to leave;
        # exit with the conventional 128 + SIGINT status instead of a
        # traceback.
        sys.exit(130)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly with
        # the conventional 128 + SIGPIPE status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
