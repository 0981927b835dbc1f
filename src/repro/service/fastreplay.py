"""Faster-than-real-time fleet replay from the columnar telemetry store.

The live service (:func:`repro.service.replay.replay`) drives the
detector one ``chunk``-sized tick at a time — correct, but the per-tick
Python loop and guard validation are pure overhead when the input is an
already-validated recording.  This module closes the loop the ROADMAP
names: :func:`record_fleet` writes a fleet's held-out feed into a
``repro-telestore/v1`` store (:mod:`repro.monitoring.telestore`), and
:func:`replay_from_store` re-drives any recorded ``[t0, t1)`` window
through :class:`~repro.service.detector.FleetFaultDetector` at maximum
speed: partition-sized blocks stream zero-copy out of the memory-mapped
store straight into the fused :class:`~repro.engine.hotpath.TickArena`
(one fused pass per partition, no per-tick loop, no guard re-validation).

**Byte-identity contract.**  The alert JSONL of a store replay is
byte-identical to live ingestion of the same window — across processes
and ``PYTHONHASHSEED`` values, like the live-replay contracts.  Two
mechanisms make that hold:

* block-fed event *content* is already identical (the arena's block
  kernel is bit-exact vs the per-tick path); only the event *grouping*
  differs.  :func:`replay_from_store` restores live order with a stable
  sort by ``(live tick of the event's window, node)`` — window ``w``
  completes at sample ``wl - 1 + w*ws``, so its live tick under chunk
  ``c`` is ``(wl - 1 + w*ws) // c``, and within a tick the live loop
  emits nodes in sorted order;
* a recording made from a guarded clean feed replays with
  ``health: "healthy"`` stamped onto every alert event (the guard's
  last-key position), exactly what the live guard appends — validated
  recordings need no guard re-validation to reproduce its output.

Replay lineage is checked, not assumed: :func:`record_fleet` stamps the
store's ``meta`` with the trained fleet's
:func:`~repro.service.checkpoint.fleet_fingerprint`, and
:func:`replay_from_store` refuses (typed :class:`FastReplayError`) to
replay a store through a different fleet.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.service.alerts import AlertSink
from repro.service.checkpoint import fleet_fingerprint
from repro.service.detector import FleetFaultDetector, check_pinned_knobs
from repro.service.replay import (
    SERVICE_DEFAULTS,
    FleetReplaySetup,
    ReplayOutcome,
    score_events,
)
from repro.monitoring.telestore import TelemetryRecorder, TeleStore

__all__ = [
    "FastReplayError",
    "record_fleet",
    "slice_setup",
    "replay_from_store",
]


class FastReplayError(ValueError):
    """A store/fleet mismatch or invalid replay window."""


def record_fleet(
    setup: FleetReplaySetup,
    root: str | Path,
    *,
    partition_ticks: int = 1024,
    chunk: int = SERVICE_DEFAULTS["chunk"],
    guarded: bool = True,
    extra_meta: dict | None = None,
) -> TeleStore:
    """Record a fleet's held-out feed into a new telemetry store.

    Store tick ``s`` is eval sample column ``s`` of every node, so
    store windows map 1:1 onto live replay windows.  ``meta`` captures
    everything a later replay needs to reproduce the live run:

    * ``fingerprint`` — :func:`fleet_fingerprint` of the trained fleet
      (checked on replay unless explicitly skipped);
    * ``chunk`` — the live tick size this recording stands in for
      (drives the replayer's live-order event sort);
    * ``guarded`` — whether the equivalent live run is guarded (a clean
      recording replays with ``health: "healthy"`` stamped);
    * ``wl``/``ws`` — the fleet's window geometry.
    """
    horizons = {m.shape[1] for m in setup.eval_data.values()}
    if len(horizons) != 1:
        raise FastReplayError(
            f"fleet eval horizons differ across nodes ({sorted(horizons)}); "
            "a telemetry store needs a time-aligned fleet"
        )
    meta = {
        "fingerprint": fleet_fingerprint(setup.trained),
        "chunk": int(chunk),
        "guarded": bool(guarded),
        "wl": int(setup.wl),
        "ws": int(setup.ws),
        **(extra_meta or {}),
    }
    nodes = {
        p: (m.shape[0], m.dtype) for p, m in sorted(setup.eval_data.items())
    }
    horizon = horizons.pop()
    with TelemetryRecorder.create(
        root, nodes, partition_ticks=partition_ticks, meta=meta
    ) as rec:
        for lo in range(0, horizon, partition_ticks):
            rec.append(
                {
                    p: m[:, lo : lo + partition_ticks]
                    for p, m in setup.eval_data.items()
                }
            )
    return TeleStore(root)


def slice_setup(
    setup: FleetReplaySetup, t0: int, t1: int | None = None
) -> FleetReplaySetup:
    """The live-equivalent setup for replaying the sub-window ``[t0, t1)``.

    Live ingestion of a sub-window means a *fresh* detector over the
    sliced feed, so slice window ``w`` covers samples ``[t0 + w*ws,
    t0 + w*ws + wl)`` — which lines up with full-feed window
    ``t0//ws + w`` only when ``t0`` is a window-stride multiple.  Ground
    truth is per full-feed window, so scored sub-window replays require
    that alignment (:class:`FastReplayError` otherwise; replay itself
    has no such restriction).
    """
    if t0 % setup.ws != 0:
        raise FastReplayError(
            f"scored sub-window replay needs t0 aligned to the window "
            f"stride (t0={t0}, ws={setup.ws}); ground truth is per "
            "full-feed window"
        )
    shift = t0 // setup.ws
    eval_data = {}
    truth = {}
    for p, m in setup.eval_data.items():
        hi = m.shape[1] if t1 is None else min(int(t1), m.shape[1])
        sliced = m[:, t0:hi]
        eval_data[p] = sliced
        span = sliced.shape[1]
        n_win = max(0, (span - setup.wl) // setup.ws + 1) if span >= setup.wl else 0
        truth[p] = setup.truth[p][shift : shift + n_win]
    return FleetReplaySetup(
        trained=setup.trained,
        eval_data=eval_data,
        truth=truth,
        wl=setup.wl,
        ws=setup.ws,
    )


def _live_order(events: list[dict], wl: int, ws: int, chunk: int) -> list[dict]:
    """Stable-resort block-fed events into live per-tick emission order.

    Window ``w`` is classified on the live tick that ingests sample
    ``wl - 1 + w*ws``; within a tick the live loop walks nodes in sorted
    order, and within a node the block feed already emitted events in
    window order (which the stable sort preserves)."""
    def tick_of(event: dict) -> int:
        return (wl - 1 + int(event["window"]) * ws) // chunk

    return sorted(events, key=lambda ev: (tick_of(ev), ev["node"]))


def replay_from_store(
    setup: FleetReplaySetup,
    store: TeleStore | str | Path,
    *,
    t0: int | None = None,
    t1: int | None = None,
    live_chunk: int | None = None,
    open_after: int = SERVICE_DEFAULTS["open_after"],
    close_after: int = SERVICE_DEFAULTS["close_after"],
    min_confidence: float = SERVICE_DEFAULTS["min_confidence"],
    top_blocks: int = SERVICE_DEFAULTS["top_blocks"],
    shards: int | None = None,
    backend: str = "fused",
    mode: str = "exact",
    stamp_health: bool | None = None,
    verify_fingerprint: bool = True,
    sinks: Sequence[AlertSink] = (),
) -> ReplayOutcome:
    """Re-drive a recorded ``[t0, t1)`` window at maximum speed.

    Partition-sized blocks stream out of the memory-mapped store into
    :meth:`FleetFaultDetector.process_blocks`, with the detector's
    ``max_chunk`` sized to the largest block so the fused arena absorbs
    each whole partition in one pass.  Events are then re-sorted into
    live emission order under ``live_chunk`` (default: the recorded
    ``meta["chunk"]``) and — for recordings of guarded clean feeds —
    stamped with the guard's ``health: "healthy"`` field, making the
    resulting JSONL byte-identical to live ingestion of the same window.

    ``backend``/``shards`` are retired pass-through keywords: only
    ``"fused"`` and ``None``/``1`` are accepted.
    ``stamp_health`` overrides the recording's ``guarded`` flag;
    ``verify_fingerprint=False`` skips the model-lineage check (only for
    stores recorded without one).  Scores are computed against sliced
    ground truth when ``t0`` is window-stride aligned; otherwise the
    replay still runs but scores report 0.0 (no truth to compare).
    """
    check_pinned_knobs(backend, shards)
    if not isinstance(store, TeleStore):
        store = TeleStore(store)
    expected = sorted(setup.eval_data)
    if store.paths != expected:
        raise FastReplayError(
            f"store node set {store.paths!r} does not match the fleet "
            f"{expected!r}"
        )
    if verify_fingerprint:
        recorded = store.meta.get("fingerprint")
        actual = fleet_fingerprint(setup.trained)
        if recorded is None:
            raise FastReplayError(
                "store has no recorded fleet fingerprint; pass "
                "verify_fingerprint=False to replay it anyway"
            )
        if recorded != actual:
            raise FastReplayError(
                f"fleet fingerprint mismatch: store recorded {recorded}, "
                f"this fleet is {actual} — replaying a recording through "
                "a different model would silently mis-detect"
            )
    lo = store.t0 if t0 is None else int(t0)
    hi = store.t1 if t1 is None else int(t1)
    aligned = lo % setup.ws == 0
    work = (
        slice_setup(setup, lo, hi)
        if aligned
        else FleetReplaySetup(
            trained=setup.trained,
            eval_data={
                p: m[:, lo:hi] for p, m in setup.eval_data.items()
            },
            truth={
                p: np.empty(0, dtype=np.intp) for p in setup.eval_data
            },
            wl=setup.wl,
            ws=setup.ws,
        )
    )
    max_block = max(
        (
            min(hi, p.t1) - max(lo, p.t0)
            for p in store.partitions
            if p.t1 > lo and p.t0 < hi
        ),
        default=1,
    )
    detector = FleetFaultDetector(
        setup.trained,
        open_after=open_after,
        close_after=close_after,
        min_confidence=min_confidence,
        top_blocks=top_blocks,
        record_history=True,
        mode=mode,
        max_chunk=max(1, max_block),
    )
    chunk = (
        int(store.meta.get("chunk", SERVICE_DEFAULTS["chunk"]))
        if live_chunk is None
        else int(live_chunk)
    )
    if chunk < 1:
        raise FastReplayError("live_chunk must be >= 1")
    start = time.perf_counter()
    events = detector.process_blocks(
        planes for _, planes in store.scan(lo, hi)
    )
    replay_time = time.perf_counter() - start
    events = _live_order(events, setup.wl, setup.ws, chunk)
    stamp = (
        bool(store.meta.get("guarded", False))
        if stamp_health is None
        else bool(stamp_health)
    )
    if stamp:
        for event in events:
            event["health"] = "healthy"
    for sink in sinks:
        for event in events:
            sink.emit(event)
        sink.close()
    if aligned:
        accuracy, precision, recall = score_events(events, work, detector)
    else:
        accuracy = precision = recall = 0.0
    return ReplayOutcome(
        events=events,
        n_nodes=work.n_nodes,
        n_windows=sum(detector.windows_seen(p) for p in detector.paths),
        n_alerts=sum(e["event"] == "open" for e in events),
        n_events=len(events),
        window_accuracy=accuracy,
        alert_precision=precision,
        episode_recall=recall,
        replay_time_s=replay_time,
    )
