"""Deterministic replay of cached segments through the detection service.

The replay driver is how the service is tested, benchmarked and CI-gated:
it materializes a fleet from dataset recipes (through an
:class:`~repro.scenarios.cache.ExecutionContext`, so repeated runs load
the cached ``.npz`` segments instead of regenerating), trains the fleet
on the leading ``train_frac`` of each node's history, then feeds the
remaining samples through :class:`~repro.service.detector.
FleetFaultDetector` in fixed-size bursts and scores the alert stream
against the injected ground truth.

Everything downstream of the recipes is a pure function of declarative
inputs, so two replays of the same setup — in the same process or across
processes — produce **byte-identical** alert JSONL.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.generators import ComponentData
from repro.datasets.recipes import DatasetRecipe, recipe
from repro.datasets.windows import window_majority_labels
from repro.scenarios.cache import ExecutionContext
from repro.service.alerts import AlertSink
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.checkpoint import (
    fleet_fingerprint,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.service.classify import TrainedFleet, train_fleet
from repro.service.detector import FleetFaultDetector
from repro.service.guard import GuardConfig, GuardedDetector
from repro.service.model_store import load_fleet_npz, save_fleet_npz

__all__ = [
    "SERVICE_DEFAULTS",
    "FleetReplaySetup",
    "ReplayOutcome",
    "fleet_recipes",
    "flush_open_alerts",
    "node_path",
    "prepare_fleet",
    "replay",
]

#: Canonical service knob defaults — the single source shared by the
#: :func:`prepare_fleet` / :func:`replay` signatures, the
#: ``fleet-detect`` evaluation kind and the ``repro serve`` /
#: ``repro detect`` CLI presets, so the "same" configuration cannot
#: silently drift between entry points (alert streams and cache keys
#: both depend on these values).
SERVICE_DEFAULTS: dict[str, int | float] = {
    "blocks": 20,
    "trees": 30,
    "train_frac": 0.5,
    "chunk": 256,
    "open_after": 2,
    "close_after": 2,
    "min_confidence": 0.0,
    "top_blocks": 3,
    "seed": 0,
    "healthy_label": 0,
}


def node_path(rack: int, node: int) -> str:
    """Sensor-tree style path of one monitored node (``rack0/node03``)."""
    return f"rack{rack}/node{node:02d}"


def fleet_recipes(
    nodes: int,
    *,
    segment: str = "fault",
    t: int = 6000,
    seed0: int = 0,
    noise_std: float = 0.0,
    drift: float = 0.0,
    noise_seed: int = 0,
) -> tuple[DatasetRecipe, ...]:
    """Recipes for an ``nodes``-strong fault fleet.

    Each node is one independently seeded segment (seeds ``seed0 ..
    seed0 + nodes - 1``): same fault models and sensor bank layout,
    different workload schedules and fault episodes — a homogeneous fleet
    under heterogeneous load, which is the realistic serving scenario.
    """
    if nodes < 1:
        raise ValueError("a fleet needs at least one node")
    return tuple(
        recipe(
            segment,
            t=int(t),
            seed=seed0 + i,
            noise_std=noise_std,
            drift=drift,
            noise_seed=noise_seed,
            label=f"{segment}#n{i}",
        )
        for i in range(nodes)
    )


@dataclass
class FleetReplaySetup:
    """A trained fleet plus the held-out data to replay through it."""

    trained: TrainedFleet
    eval_data: dict[str, np.ndarray]
    truth: dict[str, np.ndarray]
    wl: int
    ws: int

    @property
    def n_nodes(self) -> int:
        return len(self.eval_data)

    @property
    def n_windows(self) -> int:
        return sum(int(t.shape[0]) for t in self.truth.values())


def prepare_fleet(
    recipes: Sequence[DatasetRecipe],
    *,
    context: ExecutionContext | None = None,
    blocks: int = SERVICE_DEFAULTS["blocks"],
    trees: int = SERVICE_DEFAULTS["trees"],
    train_frac: float = SERVICE_DEFAULTS["train_frac"],
    seed: int = SERVICE_DEFAULTS["seed"],
    wl: int | None = None,
    ws: int | None = None,
    healthy_label: int = SERVICE_DEFAULTS["healthy_label"],
    model_path: str | Path | None = None,
) -> FleetReplaySetup:
    """Materialize, split and train a fleet from dataset recipes.

    Every component of every recipe's segment becomes one node
    (``rack<recipe>/node<component>``).  The leading ``train_frac`` of
    each node's history trains its CS model and the shared classifier;
    the remainder is the held-out period :func:`replay` feeds through
    the detector, with per-window majority labels as ground truth.

    ``healthy_label`` is the class meaning "no fault" — 0 for the fault
    segment's ``healthy`` class.  Pass the right class explicitly when
    replaying other labeled segments; otherwise class 0 (a real
    workload class there) would silently be treated as healthy.

    ``model_path`` makes fleet training skippable: when the file exists
    it is loaded (validated against this run's ``blocks``/``wl``/``ws``
    and node set — mismatches raise instead of silently mis-detecting),
    otherwise the freshly trained fleet is saved there for next time.
    Loaded fleets replay to byte-identical alert streams.
    """
    if not recipes:
        raise ValueError("prepare_fleet needs at least one recipe")
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    context = context or ExecutionContext()
    train: dict[str, ComponentData] = {}
    eval_data: dict[str, np.ndarray] = {}
    raw_eval_labels: dict[str, np.ndarray] = {}
    label_names: tuple[str, ...] = ()
    healthy_label = int(healthy_label)
    for rack, rcp in enumerate(recipes):
        segment = context.segment(rcp)
        seg_wl = segment.spec.wl if wl is None else int(wl)
        seg_ws = segment.spec.ws if ws is None else int(ws)
        if not label_names:
            label_names = segment.label_names
        for ci, comp in enumerate(segment.components):
            if comp.labels is None:
                raise ValueError(
                    f"recipe {rcp.display!r} component {comp.name!r} has no "
                    "labels; fleet detection needs a labeled segment"
                )
            path = node_path(rack, ci)
            cut = int(comp.t * train_frac)
            cut = max(seg_wl + seg_ws, min(cut, comp.t - seg_wl - seg_ws))
            train[path] = ComponentData(
                name=path,
                matrix=comp.matrix[:, :cut],
                sensor_names=comp.sensor_names,
                sensor_groups=comp.sensor_groups,
                labels=comp.labels[:cut],
                arch=comp.arch,
            )
            eval_data[path] = comp.matrix[:, cut:]
            raw_eval_labels[path] = comp.labels[cut:]
        wl, ws = seg_wl, seg_ws  # uniform across the fleet from here on
    model_file = Path(model_path) if model_path is not None else None
    if model_file is not None and model_file.exists():
        trained = load_fleet_npz(
            model_file,
            expect_blocks=blocks,
            expect_wl=wl,
            expect_ws=ws,
            expect_paths=sorted(eval_data),
        )
    else:
        trained = train_fleet(
            train,
            blocks=blocks,
            wl=wl,
            ws=ws,
            trees=trees,
            seed=seed,
            healthy_label=healthy_label,
            label_names=label_names,
        )
        if model_file is not None:
            save_fleet_npz(trained, model_file)
    truth = {
        p: window_majority_labels(raw_eval_labels[p], wl, ws).astype(np.intp)
        for p in sorted(eval_data)
    }
    return FleetReplaySetup(
        trained=trained, eval_data=eval_data, truth=truth, wl=wl, ws=ws
    )


@dataclass
class ReplayOutcome:
    """Scored result of one replay run.

    ``n_alerts``/``n_events`` are always populated; ``events`` holds the
    full stream only when the replay recorded history (serving mode
    streams events into sinks without retaining them).
    """

    events: list[dict]
    n_nodes: int
    n_windows: int
    n_alerts: int
    window_accuracy: float
    alert_precision: float
    episode_recall: float
    replay_time_s: float
    n_events: int = 0
    #: :meth:`~repro.service.guard.GuardedDetector.fleet_health` payload
    #: of the final tick, when the replay ran guarded.
    health: dict | None = None
    #: :class:`~repro.service.chaos.ChaosInjector` delivery statistics,
    #: when the replay ran under fault injection.
    chaos_stats: dict | None = None
    #: True when the replay was stopped by SIGINT at a tick boundary
    #: (open alerts were flushed into the sinks, and a final checkpoint
    #: was written when checkpointing was active).
    interrupted: bool = False

    @property
    def windows_per_s(self) -> float:
        if self.replay_time_s <= 0.0:
            return 0.0
        return self.n_windows / self.replay_time_s

    def row(self, fleet_label: str) -> tuple:
        """The summary row both ``repro detect`` and the ``fleet-detect``
        scenario kind report (column order of ``FLEET_DETECT_HEADERS``)."""
        return (
            fleet_label,
            self.n_nodes,
            self.n_windows,
            self.n_alerts,
            round(self.window_accuracy, 4),
            round(self.alert_precision, 4),
            round(self.episode_recall, 4),
            round(self.replay_time_s, 4),
            round(self.windows_per_s, 1),
        )


def flush_open_alerts(detector) -> list[dict]:
    """``repro-alerts/v1`` ``flush`` events for every still-open alert.

    Emitted into the sinks when a serving loop is interrupted (Ctrl-C)
    so an operator tailing the JSONL sees which episodes were live at
    shutdown — same shape as a ``close`` event, but the episode did not
    end.  Accepts a :class:`FleetFaultDetector` or a
    :class:`~repro.service.guard.GuardedDetector` (flushes then carry
    the node ``health`` state, like every guarded event).
    """
    guarded = detector if isinstance(detector, GuardedDetector) else None
    inner = guarded.inner if guarded is not None else detector
    events = []
    for path, alert in sorted(inner.open_alerts().items()):
        event = {
            "event": "flush",
            "node": path,
            "window": inner.windows_seen(path) - 1,
            "opened": alert.opened,
            "label": alert.label,
            "windows": alert.n_windows,
            "peak_confidence": alert.peak_confidence,
        }
        if guarded is not None:
            event["health"] = guarded.health(path).state
        events.append(event)
    return events


class _InterruptFlag:
    """SIGINT-to-flag bridge for graceful tick-boundary shutdown.

    Installed around the replay loop (main thread only — elsewhere the
    context is a no-op and Ctrl-C behaves as before): the *first*
    SIGINT raises this flag so the loop finishes the in-flight tick,
    flushes open alerts and writes a final checkpoint; a *second*
    SIGINT falls through to the previous handler (normally
    ``KeyboardInterrupt``) for operators who really mean it.
    """

    def __init__(self):
        self.triggered = False
        self._previous = None
        self._installed = False

    def _handle(self, signum, frame):
        if self.triggered and callable(self._previous):
            self._previous(signum, frame)
        self.triggered = True

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(signal.SIGINT, self._handle)
                self._installed = True
            except (ValueError, OSError):  # pragma: no cover - exotic host
                self._installed = False
        return self

    def __exit__(self, *exc):
        if self._installed:
            signal.signal(signal.SIGINT, self._previous)
        return False


def _episodes(truth: np.ndarray, healthy: int) -> list[tuple[int, int]]:
    """Contiguous faulty runs ``[start, stop)`` in window space."""
    faulty = np.asarray(truth) != healthy
    if faulty.size == 0:
        return []
    edges = np.flatnonzero(np.diff(faulty.astype(np.int8)))
    bounds = np.concatenate(([0], edges + 1, [faulty.size]))
    return [
        (int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if faulty[a]
    ]


def _alert_spans(
    events: Iterable[dict], path: str, n_windows: int
) -> list[tuple[int, int]]:
    """``[first_faulty, close)`` spans of one node's alerts."""
    spans = []
    open_start: int | None = None
    for event in events:
        if event.get("node") != path:
            continue
        if event["event"] == "open":
            open_start = int(event["first_faulty"])
        elif event["event"] == "close" and open_start is not None:
            spans.append((open_start, int(event["window"]) + 1))
            open_start = None
    if open_start is not None:  # still open at end of replay
        spans.append((open_start, n_windows))
    return spans


def score_events(
    events: list[dict],
    setup: FleetReplaySetup,
    detector: FleetFaultDetector,
) -> tuple[float, float, float]:
    """(window accuracy, alert precision, episode recall) of one replay.

    * window accuracy — per-window predicted class vs ground truth,
      pooled over all nodes;
    * alert precision — fraction of alert spans overlapping a true
      faulty episode (an alert on healthy windows is a false page);
    * episode recall — fraction of injected faulty episodes touched by
      at least one alert span.
    """
    healthy = setup.trained.healthy_label
    correct = 0
    total = 0
    true_positive_alerts = 0
    total_alerts = 0
    detected_episodes = 0
    total_episodes = 0
    for path in sorted(setup.eval_data):
        truth = setup.truth[path]
        predicted = np.asarray(detector.history[path][0], dtype=np.intp)
        n = min(truth.shape[0], predicted.shape[0])
        correct += int((predicted[:n] == truth[:n]).sum())
        total += n
        episodes = _episodes(truth[:n], healthy)
        spans = _alert_spans(events, path, n)
        total_alerts += len(spans)
        total_episodes += len(episodes)
        for a, b in spans:
            if any(a < e_stop and e_start < b for e_start, e_stop in episodes):
                true_positive_alerts += 1
        for e_start, e_stop in episodes:
            if any(a < e_stop and e_start < b for a, b in spans):
                detected_episodes += 1
    accuracy = correct / total if total else 0.0
    precision = (
        true_positive_alerts / total_alerts if total_alerts else 1.0
    )
    recall = detected_episodes / total_episodes if total_episodes else 1.0
    return accuracy, precision, recall


def replay(
    setup: FleetReplaySetup,
    *,
    chunk: int = SERVICE_DEFAULTS["chunk"],
    open_after: int = SERVICE_DEFAULTS["open_after"],
    close_after: int = SERVICE_DEFAULTS["close_after"],
    min_confidence: float = SERVICE_DEFAULTS["min_confidence"],
    top_blocks: int = SERVICE_DEFAULTS["top_blocks"],
    sinks: Sequence[AlertSink] = (),
    interval: float = 0.0,
    record_history: bool = True,
    mode: str = "exact",
    guard: bool | GuardConfig | None = None,
    chaos: ChaosConfig | None = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    stop_after: int | None = None,
) -> ReplayOutcome:
    """Feed the held-out period through the detector in ``chunk``-bursts.

    Every burst drives one :meth:`FleetFaultDetector.process_block`
    call; events stream into ``sinks`` as they fire (and are closed at
    the end), so ``repro serve`` and ``repro detect`` share this loop —
    serving passes ``interval`` for live pacing and
    ``record_history=False`` for bounded memory.  In that mode events
    still stream into the sinks but are *not* retained on the returned
    outcome (``events`` stays empty and only counts are kept), and the
    ground-truth scores — which need the prediction history — are
    reported as 0.0.

    ``mode`` selects the detector's signature arithmetic (see
    :class:`FleetFaultDetector`).

    Robustness knobs:

    * ``guard`` — ``True`` (or a :class:`~repro.service.guard.
      GuardConfig`) wraps the detector in a
      :class:`~repro.service.guard.GuardedDetector`: malformed bursts
      are quarantined per node instead of crashing the loop, guard
      events join the stream and every alert event carries the node's
      ``health`` state.
    * ``chaos`` — a :class:`~repro.service.chaos.ChaosConfig` perturbs
      each tick's burst (drop/duplicate/reorder/corrupt) through the
      deterministic injector; requires the guard (an unguarded detector
      would crash on the injected faults, which is the point).
    * ``checkpoint_path``/``checkpoint_every`` — snapshot the full
      detector state every N ticks (see :mod:`repro.service.checkpoint`).
      ``resume`` restores the snapshot first and replays only the
      remaining ticks — byte-identical alert JSONL to an uninterrupted
      run, with the checkpointed event prefix re-emitted into the fresh
      sinks.  ``stop_after=k`` breaks out before processing tick ``k``
      (the test harness's simulated crash).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if chaos is not None and not guard:
        raise ValueError(
            "chaos injection requires guard=True (an unguarded detector "
            "crashes on injected faults)"
        )
    if (checkpoint_every or resume) and checkpoint_path is None:
        raise ValueError(
            "checkpoint_every/resume require a checkpoint_path"
        )
    if checkpoint_path is not None and not record_history:
        raise ValueError(
            "checkpointing requires record_history=True (the event "
            "prefix is part of the snapshot)"
        )
    detector = FleetFaultDetector(
        setup.trained,
        open_after=open_after,
        close_after=close_after,
        min_confidence=min_confidence,
        top_blocks=top_blocks,
        record_history=record_history,
        mode=mode,
        max_chunk=chunk,
    )
    guarded: GuardedDetector | None = None
    if guard:
        guarded = GuardedDetector(
            detector,
            config=guard if isinstance(guard, GuardConfig) else None,
        )
    injector = ChaosInjector(chaos) if chaos is not None else None
    fingerprint = (
        fleet_fingerprint(setup.trained)
        if checkpoint_path is not None
        else None
    )
    events: list[dict] = []
    n_open = 0
    n_events = 0
    start_lo = 0
    if resume:
        ckpt = load_checkpoint(checkpoint_path)
        events, start_lo, n_events, n_open = restore_checkpoint(
            ckpt,
            detector,
            fingerprint=fingerprint,
            chunk=chunk,
            guard=guarded,
        )
        for sink in sinks:  # replayed prefix → byte-identical sinks
            for event in events:
                sink.emit(event)
    horizon = max(m.shape[1] for m in setup.eval_data.values())
    interrupted = False
    next_lo = start_lo
    start = time.perf_counter()
    try:
        with _InterruptFlag() as stop_flag:
            for lo in range(start_lo, horizon, chunk):
                ti = lo // chunk
                if stop_after is not None and ti >= stop_after:
                    break
                if stop_flag.triggered:
                    # Ctrl-C lands *between* ticks: the in-flight tick
                    # has fully committed (events emitted, state
                    # consistent), so the flush + final checkpoint
                    # below cannot drop it.
                    interrupted = True
                    break
                burst = {
                    p: m[:, lo : lo + chunk]
                    for p, m in setup.eval_data.items()
                    if lo < m.shape[1]
                }
                deliveries = (
                    injector.deliveries(ti, burst)
                    if injector is not None
                    else ((ti, burst),)
                )
                tick_events: list[dict] = []
                for tick_id, delivered in deliveries:
                    if guarded is not None:
                        tick_events.extend(
                            guarded.process_block(delivered, tick=tick_id)
                        )
                    else:
                        tick_events.extend(detector.process_block(delivered))
                for event in tick_events:
                    n_events += 1
                    n_open += event["event"] == "open"
                    if record_history:
                        events.append(event)
                    for sink in sinks:
                        sink.emit(event)
                if (
                    checkpoint_every
                    and checkpoint_path is not None
                    and (ti + 1) % checkpoint_every == 0
                ):
                    save_checkpoint(
                        checkpoint_path,
                        detector,
                        fingerprint=fingerprint,
                        chunk=chunk,
                        next_lo=lo + chunk,
                        events=events,
                        n_events=n_events,
                        n_alerts=n_open,
                        guard_state=(
                            guarded.state_dict()
                            if guarded is not None
                            else None
                        ),
                    )
                next_lo = lo + chunk
                if interval > 0.0:
                    time.sleep(interval)
            else:
                next_lo = horizon
            if stop_flag.triggered:
                interrupted = True
        replay_time = time.perf_counter() - start
        if interrupted:
            # Flush still-open alerts into the sinks (events list and
            # checkpoint stay flush-free: a later --resume must stitch
            # onto the uninterrupted event sequence), then snapshot so
            # the operator can resume from exactly here.
            for event in flush_open_alerts(
                guarded if guarded is not None else detector
            ):
                for sink in sinks:
                    sink.emit(event)
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path,
                    detector,
                    fingerprint=fingerprint,
                    chunk=chunk,
                    next_lo=next_lo,
                    events=events,
                    n_events=n_events,
                    n_alerts=n_open,
                    guard_state=(
                        guarded.state_dict() if guarded is not None else None
                    ),
                )
    finally:
        for sink in sinks:
            sink.close()
    if record_history:
        accuracy, precision, recall = score_events(events, setup, detector)
    else:
        accuracy = precision = recall = 0.0
    return ReplayOutcome(
        events=events,
        n_nodes=setup.n_nodes,
        n_windows=sum(
            detector.windows_seen(p) for p in detector.paths
        ),
        n_alerts=n_open,
        n_events=n_events,
        window_accuracy=accuracy,
        alert_precision=precision,
        episode_recall=recall,
        replay_time_s=replay_time,
        health=guarded.fleet_health() if guarded is not None else None,
        chaos_stats=dict(injector.stats) if injector is not None else None,
        interrupted=interrupted,
    )
