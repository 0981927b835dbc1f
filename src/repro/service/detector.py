"""The composed online hot path: ingest → classify → alert.

:class:`FleetFaultDetector` is the service's per-tick work unit.  One
``process_block`` call takes a burst of raw samples per node and runs
the whole tick inside a preallocated
:class:`~repro.engine.hotpath.TickArena` (stream update, feature layout
and one lockstep forest pass over every signature the fleet emitted),
drives each node's threshold + hysteresis
:class:`~repro.service.alerts.AlertPolicy`, and attributes every opening
alert back to raw sensors via
:func:`repro.analysis.rootcause.explain_difference` against the node's
healthy reference signature.

The tests check this path bit for bit against two slower oracles, the
staged pipeline (per-node streams, stacked features, one forest
classify) and the naive per-node loop, kept test-only in
:mod:`repro.service._staged_reference`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.analysis.rootcause import explain_difference, findings_payload
from repro.engine.hotpath import SIGNATURE_MODES, TickArena
from repro.service.alerts import Alert, AlertPolicy
from repro.service.classify import TrainedFleet

__all__ = ["FleetFaultDetector", "check_pinned_knobs"]


def check_pinned_knobs(backend: str, shards: int | None) -> None:
    """Reject every value of the retired ``backend``/``shards`` knobs
    but the one the service runs.

    Only the fused tick path and one shard exist; the names survive as
    pass-through keywords of :class:`~repro.service.api.ServiceConfig`
    and :func:`~repro.service.fastreplay.replay_from_store` so older
    callers keep working, and nothing reads them past this check.
    """
    if backend != "fused":
        raise ValueError(f"backend must be 'fused', got {backend!r}")
    if shards not in (None, 1):
        raise ValueError(f"shards must be None or 1, got {shards!r}")


def _alert_event(
    trained: TrainedFleet,
    kind: str,
    path: str,
    alert: Alert,
    window: int,
    confidence: float,
    signature: np.ndarray,
    top_blocks: int,
) -> dict:
    """Serializable alert event (fixed key order, rounded floats)."""
    name_of = trained.classifier.name_of
    if kind == "open":
        findings = explain_difference(
            trained.engine.model(path),
            trained.references[path],
            signature,
            top=top_blocks,
        )
        return {
            "event": "open",
            "node": path,
            "window": window,
            "first_faulty": alert.first_faulty,
            "label": name_of(alert.label),
            "confidence": round(confidence, 6),
            "attribution": findings_payload(findings, ndigits=6),
        }
    return {
        "event": "close",
        "node": path,
        "window": window,
        "opened": alert.opened,
        "label": name_of(alert.dominant_label()),
        "windows": alert.n_windows,
        "peak_confidence": round(alert.peak_confidence, 6),
    }


class FleetFaultDetector:
    """Online fleet fault detection over a trained fleet.

    Parameters
    ----------
    trained:
        Output of :func:`repro.service.classify.train_fleet`.
    open_after, close_after, min_confidence:
        Per-node :class:`~repro.service.alerts.AlertPolicy` parameters.
    top_blocks:
        Deviating blocks attributed per opening alert.
    record_history:
        When true (the default, used by replay scoring), every window's
        prediction is kept on :attr:`history` and closed alerts on each
        policy's ``history``.  Long-running serving loops pass ``False``
        so memory stays bounded regardless of uptime.
    mode:
        Signature arithmetic: ``"exact"`` (float64, default),
        ``"float32"``, or ``"quantized"`` (uint8-binned features).
    max_chunk:
        Largest per-tick burst the arena sizes its scratch for
        (bigger bursts are processed in slices; never changes results).
        Scratch scales with it — the store replayer passes its block
        size so whole recorded partitions absorb in one fused pass.
    """

    def __init__(
        self,
        trained: TrainedFleet,
        *,
        open_after: int = 2,
        close_after: int = 2,
        min_confidence: float = 0.0,
        top_blocks: int = 3,
        record_history: bool = True,
        mode: str = "exact",
        max_chunk: int = 256,
    ):
        if mode not in SIGNATURE_MODES:
            raise ValueError(
                f"unknown signature mode {mode!r}; expected one of {SIGNATURE_MODES}"
            )
        self.trained = trained
        self.mode = mode
        self.arena = TickArena(
            trained.engine,
            trained.classifier.forest,
            mode=mode,
            max_chunk=max_chunk,
        )
        self._paths = list(self.arena.paths)
        self.top_blocks = int(top_blocks)
        self.record_history = bool(record_history)
        self._policies = {
            p: AlertPolicy(
                healthy_label=trained.healthy_label,
                open_after=open_after,
                close_after=close_after,
                min_confidence=min_confidence,
                keep_history=self.record_history,
            )
            for p in self._paths
        }
        self._windows = {p: 0 for p in self._paths}
        #: Per-node prediction history: path -> (label ids, confidences).
        #: Empty when ``record_history`` is false.
        self.history: dict[str, tuple[list[int], list[float]]] = {
            p: ([], []) for p in self._paths
        }

    # ------------------------------------------------------------------
    @property
    def paths(self) -> list[str]:
        return self._paths

    def memory_report(self) -> dict:
        """Bytes retained per node by the tick path."""
        return self.arena.memory_report()

    def policy(self, path: str) -> AlertPolicy:
        return self._policies[path]

    def n_sensors(self, path: str) -> int:
        """Sensor count (block row count) one node's bursts must have."""
        return self.trained.engine.model(path).n_sensors

    def node_stream_state(self, path: str) -> dict:
        """One node's retained streaming state, in the
        :meth:`~repro.engine.streaming.IncrementalSignatureCore.state_dict`
        layout (the arena's per-node ring row is the core's ring)."""
        return self.arena.node_state(path)

    def restore_stream_states(self, states: Mapping[str, dict]) -> None:
        """Restore :meth:`node_stream_state` snapshots for every node."""
        self.arena.restore_states(states)

    def windows_seen(self, path: str) -> int:
        """Windows classified so far for one node."""
        return self._windows[path]

    def open_alerts(self) -> dict[str, Alert]:
        """Currently open alert per node (nodes without one omitted)."""
        return {
            p: pol.alert
            for p, pol in self._policies.items()
            if pol.alert is not None
        }

    # ------------------------------------------------------------------
    def _advance(self, path, labels, confidence, sig_at, events):
        """Advance one node's alert policy over its tick's predictions.

        ``sig_at(j)`` lazily materializes the j-th emitted signature —
        only opening alerts need one (for root-cause attribution), so
        quiet ticks pay nothing for it.
        """
        history_l, history_c = self.history[path]
        policy = self._policies[path]
        k = len(labels)
        # Fast path: no open alert and an all-healthy burst — the policy
        # outcome is fully determined (no events, streaks reset), so the
        # per-window Python loop is skipped.  Most ticks of most nodes
        # land here; faulty episodes take the exact per-window path.
        if k and policy.alert is None:
            faulty = np.not_equal(labels, policy.healthy_label)
            if policy.min_confidence > 0.0:
                faulty &= np.greater_equal(
                    confidence, policy.min_confidence
                )
            if not faulty.any():
                policy.skip_healthy(k)
                self._windows[path] += k
                if self.record_history:
                    history_l.extend(np.asarray(labels).tolist())
                    history_c.extend(np.asarray(confidence).tolist())
                return
        for j in range(len(labels)):
            window = self._windows[path]
            self._windows[path] = window + 1
            label = int(labels[j])
            conf = float(confidence[j])
            if self.record_history:
                history_l.append(label)
                history_c.append(conf)
            for kind, alert in policy.update(window, label, conf):
                events.append(
                    _alert_event(
                        self.trained,
                        kind,
                        path,
                        alert,
                        window,
                        conf,
                        sig_at(j),
                        self.top_blocks,
                    )
                )

    def process_block(self, data: Mapping[str, np.ndarray]) -> list[dict]:
        """Ingest one burst per node; return the alert events it caused.

        The hot path: one fused arena pass updates every node's stream
        and classifies all emitted signatures in **one** lockstep forest
        walk, then the per-node alert policies advance window by window.
        Events are ordered by (sorted node path, window).
        """
        events: list[dict] = []
        for path, labels, confidence, row0 in self.arena.tick(data):
            self._advance(
                path,
                labels,
                confidence,
                lambda j, r0=row0: self.arena.signature(r0 + j),
                events,
            )
        return events

    def process_blocks(self, blocks) -> list[dict]:
        """Block-feed entry point: drain an iterable of bursts.

        ``blocks`` yields ``{path: (n, m) matrix}`` mappings — e.g. the
        telemetry store's partition scan — each of which is processed
        like one :meth:`process_block` tick; the concatenated event list
        is returned.  With ``max_chunk`` sized to the block length, each
        whole block runs as a single fused arena pass (no per-tick
        Python loop), which is what
        :func:`repro.service.fastreplay.replay_from_store` feeds.  Event
        *content* is identical to any other chunking of the same samples;
        only the grouping differs (see ``fastreplay`` for the live-order
        shuffle).
        """
        events: list[dict] = []
        for data in blocks:
            events.extend(self.process_block(data))
        return events
