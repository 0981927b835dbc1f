"""Online fleet fault-detection service.

The paper's end goal is operational: signatures exist so a fleet can be
*monitored* online, faults classified and causes localized.  This
subpackage composes the existing layers into that one hot path:

* :mod:`~repro.service.classify` — training of the shared fault
  classifier plus lockstep batched classification of every signature the
  fleet emits in a tick (one stacked-forest predict call, not one per
  node);
* :mod:`~repro.service.alerts` — threshold + hysteresis alert policies
  and streaming JSONL / markdown alert sinks (reusing
  :mod:`repro.experiments.reporting`);
* :mod:`~repro.service.detector` — :class:`FleetFaultDetector`, the
  composed ingest → classify → alert hot path, one fused
  :class:`~repro.engine.hotpath.TickArena` pass per tick;
* :mod:`~repro.service.replay` — the deterministic replay driver that
  feeds cached ``.npz`` segments (``monitoring.storage`` via the
  ``repro.scenarios`` :class:`~repro.scenarios.cache.ArtifactCache`)
  through the service and scores the resulting alert stream against the
  injected ground truth;
* :mod:`~repro.service.guard` — the typed validation boundary in front
  of the detector: malformed/late/duplicate/unknown-node input degrades
  or quarantines the offending node instead of crashing the tick loop;
* :mod:`~repro.service.checkpoint` — versioned npz snapshots of full
  detector state with a crash → restore → replay-remaining byte-identity
  contract;
* :mod:`~repro.service.chaos` — the deterministic seeded fault injector
  and kill-and-restore drill that prove the two layers above;
* :mod:`~repro.service.api` — the one public facade: a frozen
  :class:`ServiceConfig` replaces the historical ~20-kwarg sprawl, with
  ``build_detector(config)`` / ``replay(config)`` / ``serve(config)``
  as the only entry points callers need;
* :mod:`~repro.service.protocol` / :mod:`~repro.service.net` /
  :mod:`~repro.service.ops` — the network front: the
  ``repro-ticks/v1`` wire protocol (newline-JSON + CRC-checked binary
  frames), the asyncio ingestion server with bounded per-node
  backpressure queues, and the HTTP ops surface (``/health`` +
  liveness/readiness probes, ``/fleet``, ``/alerts`` with
  ack/suppress, ``/stats``);
* :mod:`~repro.service.wal` / :mod:`~repro.service.netchaos` — crash
  durability for the network path: the ``repro-wal/v1`` write-ahead
  frame journal that (with networked checkpoints) makes kill -9 +
  restart byte-identical to an uninterrupted run, and the seeded TCP
  chaos proxy that proves it under resets, partitions, corruption and
  truncation.

Alert events cross every boundary — JSONL sinks, checkpoint archives,
HTTP ops responses — in one canonical ``repro-alerts/v1`` shape
(:func:`repro.service.alerts.to_payload`).

Replay is bit-deterministic: the same recipes, options and seeds produce
*byte-identical* alert JSONL across processes (guarded by tests), which
is what makes the alert stream diffable in CI — and what makes
checkpoint/restore testable at the byte level.
"""

from repro.service.alerts import (
    ALERTS_SCHEMA,
    Alert,
    AlertPolicy,
    AlertSink,
    JSONLAlertSink,
    MarkdownAlertSink,
    StreamAlertSink,
    event_line,
    to_payload,
)
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replicate_setup,
    serve,
)
from repro.service.api import replay as replay_config
from repro.service.chaos import ChaosConfig, ChaosInjector, run_with_kills
from repro.service.checkpoint import (
    CheckpointError,
    fleet_fingerprint,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.service.classify import FleetClassifier, TrainedFleet, train_fleet
from repro.service.detector import FleetFaultDetector
from repro.service.guard import GuardConfig, GuardedDetector
from repro.service.model_store import (
    ModelStoreError,
    load_fleet_npz,
    save_fleet_npz,
)
from repro.service.replay import (
    FleetReplaySetup,
    ReplayOutcome,
    fleet_recipes,
    node_path,
    prepare_fleet,
    replay,
)

from repro.service.net import (
    BackpressureConfig,
    FleetServer,
    ServerCheckpoint,
    ServerStats,
    loadgen,
    parse_address,
)
from repro.service.netchaos import ChaosProxy, NetChaosConfig
from repro.service.ops import AlertLog
from repro.service.protocol import (
    PROTOCOL,
    Frame,
    FrameDecoder,
    FrameError,
    encode_binary,
    encode_eof,
    encode_json,
)
from repro.service.wal import WAL_FORMAT, WalRecord, WalWriter, recover_wal

__all__ = [
    "ALERTS_SCHEMA",
    "Alert",
    "AlertLog",
    "AlertPolicy",
    "AlertSink",
    "BackpressureConfig",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosProxy",
    "CheckpointError",
    "FleetClassifier",
    "FleetFaultDetector",
    "FleetReplaySetup",
    "FleetServer",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "GuardConfig",
    "GuardedDetector",
    "JSONLAlertSink",
    "MarkdownAlertSink",
    "ModelStoreError",
    "NetChaosConfig",
    "PROTOCOL",
    "ReplayOutcome",
    "ServerCheckpoint",
    "ServerStats",
    "ServiceConfig",
    "StreamAlertSink",
    "TrainedFleet",
    "WAL_FORMAT",
    "WalRecord",
    "WalWriter",
    "build_detector",
    "build_setup",
    "encode_binary",
    "encode_eof",
    "encode_json",
    "event_line",
    "fleet_fingerprint",
    "fleet_recipes",
    "load_checkpoint",
    "load_fleet_npz",
    "loadgen",
    "node_path",
    "parse_address",
    "prepare_fleet",
    "recover_wal",
    "replay",
    "replay_config",
    "replicate_setup",
    "restore_checkpoint",
    "run_with_kills",
    "save_checkpoint",
    "save_fleet_npz",
    "serve",
    "to_payload",
    "train_fleet",
]
