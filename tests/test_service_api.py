"""Facade tests: ServiceConfig, fleet replication, the repro-alerts/v1
canonical payload, and the graceful SIGINT path (finish the in-flight
tick, flush open alerts, write a final checkpoint, exit 130)."""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service.alerts import (
    ALERTS_SCHEMA,
    event_line,
    to_payload,
)
from repro.service.api import (
    ServiceConfig,
    build_detector,
    build_setup,
    replay,
    replicate_setup,
)
from repro.service.net import ListAlertSink
from repro.service.replay import SERVICE_DEFAULTS, flush_open_alerts

SRC = Path(__file__).resolve().parent.parent / "src"
CFG = ServiceConfig.smoke()


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


class TestServiceConfig:
    def test_defaults_match_service_defaults(self):
        config = ServiceConfig()
        for knob, value in SERVICE_DEFAULTS.items():
            assert getattr(config, knob) == value
        assert config.guard is True
        assert config.backend == "fused"
        assert config.shards is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().chunk = 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"nodes": 0},
            {"t": 0},
            {"train_frac": 1.0},
            {"chunk": 0},
            {"open_after": 0},
            {"min_confidence": 1.5},
            {"backend": "gpu"},
            {"mode": "approximate"},
            {"replicate": -1},
            {"top_blocks": 0},
            {"trees": 0},
            {"backend": "staged"},
            {"shards": 2},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)

    @pytest.mark.parametrize("flag", ["--top-blocks", "--trees"])
    def test_cli_rejects_zero_before_training(self, tmp_path, flag):
        """A zero attribution depth or forest size fails at config time:
        no fleet is generated or trained and no alerts file is left."""
        from repro import cli

        alerts = tmp_path / "alerts.jsonl"
        with pytest.raises(ValueError, match=flag[2:].replace("-", "_")):
            cli.main(["detect", "--smoke", flag, "0",
                      "--alerts", str(alerts),
                      "--cache-dir", str(tmp_path / "cache")])
        assert not alerts.exists()
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("flag", ["--backend", "--shards"])
    def test_cli_has_no_retired_tick_path_flags(self, flag):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["detect", "--smoke", flag, "1"])

    def test_smoke_preset_matches_cli(self):
        smoke = ServiceConfig.smoke()
        assert (smoke.nodes, smoke.t, smoke.blocks, smoke.trees,
                smoke.chunk) == (2, 2500, 8, 6, 200)

    def test_replace_revalidates(self):
        config = ServiceConfig().replace(chunk=64)
        assert config.chunk == 64
        with pytest.raises(ValueError):
            config.replace(chunk=0)

    def test_from_evaluation_ignores_kind_extras(self):
        ev = {"blocks": 8, "trees": 6, "chunk": 200,
              "fleet_sizes": (2, 4), "kills": (3,), "formats": ("json",)}
        config = ServiceConfig.from_evaluation(ev, guard=False)
        assert config.blocks == 8 and config.chunk == 200
        assert config.guard is False

    def test_noise_seed_convention(self):
        assert ServiceConfig().noise_seed == 0
        assert ServiceConfig(noise_std=0.05).noise_seed == 11


class TestReplicateSetup:
    def test_replicas_share_arrays_by_reference(self, setup):
        big = replicate_setup(setup, 10)
        assert len(big.eval_data) == 10
        bases = sorted(setup.eval_data)
        reps = sorted(big.eval_data)
        for i, rep in enumerate(
            sorted(reps, key=lambda p: int(p.split("/")[0][4:]))
        ):
            base = bases[i % len(bases)]
            assert big.eval_data[rep] is setup.eval_data[base]
            assert big.trained.references[rep] is (
                setup.trained.references[base]
            )
        assert big.trained.classifier is setup.trained.classifier

    def test_replicated_fleet_replays(self, setup):
        big = replicate_setup(setup, 6)
        config = CFG.replace(nodes=6)
        sink = ListAlertSink()
        outcome = replay(config, big, sinks=(sink,))
        assert outcome.n_nodes == 6
        nodes_seen = {json.loads(line)["node"] for line in sink.lines}
        assert nodes_seen <= set(big.eval_data)
        # Replicas of the same base must alert identically (same data,
        # same model): group events by base index.
        by_node: dict[str, list] = {}
        for line in sink.lines:
            e = json.loads(line)
            by_node.setdefault(e.pop("node"), []).append(e)
        for i in range(6):
            base_like = f"rack{i % 2}/node00"
            rep = f"rack{i}/node00"
            if rep in by_node or base_like in by_node:
                assert by_node.get(rep) == by_node.get(base_like)

    def test_build_setup_applies_replicate(self):
        config = CFG.replace(replicate=5)
        setup = build_setup(config)
        assert len(setup.eval_data) == 5


class TestAlertSchema:
    def test_canonical_key_orders(self):
        open_event = {
            "health": "healthy", "attribution": [], "confidence": 0.9,
            "label": 2, "first_faulty": 3, "window": 4,
            "node": "a", "event": "open",
        }
        assert list(to_payload(open_event)) == [
            "event", "node", "window", "first_faulty", "label",
            "confidence", "attribution", "health",
        ]
        guard_event = {
            "until": 9, "state": "quarantined", "fault": "shape-mismatch",
            "severity": "critical", "action": "quarantine",
            "tick": 2, "node": "a", "event": "guard",
        }
        assert list(to_payload(guard_event)) == [
            "event", "node", "tick", "action", "severity", "fault",
            "state", "until",
        ]

    def test_unknown_keys_appended_not_dropped(self):
        event = {"event": "open", "node": "a", "custom": 1}
        payload = to_payload(event)
        assert payload["custom"] == 1

    def test_event_line_is_canonical_compact_json(self):
        event = {"node": "a", "event": "open", "window": 1}
        assert event_line(event) == (
            '{"event":"open","node":"a","window":1}'
        )

    def test_checkpoint_manifest_stamps_schema(self, setup, tmp_path):
        from repro.service.checkpoint import load_checkpoint

        ckpt = tmp_path / "stamp.npz"
        replay(
            CFG, setup, record_history=True,
            checkpoint_path=ckpt, checkpoint_every=1, stop_after=2,
        )
        manifest = load_checkpoint(ckpt).manifest
        assert manifest["alerts_schema"] == ALERTS_SCHEMA


class TestGracefulInterrupt:
    def test_flush_open_alerts_emits_canonical_flush_events(self, setup):
        detector = build_detector(CFG, setup, record_history=True)
        horizon = max(m.shape[1] for m in setup.eval_data.values())
        opened = False
        for ti in range(-(-horizon // CFG.chunk)):
            lo = ti * CFG.chunk
            burst = {
                p: m[:, lo : lo + CFG.chunk]
                for p, m in setup.eval_data.items()
                if lo < m.shape[1]
            }
            detector.process_block(burst, tick=ti)
            if detector.open_alerts():
                opened = True
                break
        assert opened, "smoke fleet must open an alert at some tick"
        events = flush_open_alerts(detector)
        assert events
        for event in events:
            assert event["event"] == "flush"
            assert list(to_payload(event)) == [
                "event", "node", "window", "opened", "label",
                "windows", "peak_confidence", "health",
            ]

    def test_sigint_finishes_tick_flushes_and_checkpoints(
        self, setup, tmp_path
    ):
        ckpt = tmp_path / "interrupt.npz"
        sink = ListAlertSink()
        timer = threading.Timer(
            0.4, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            outcome = replay(
                CFG, setup, interval=0.2, record_history=True,
                checkpoint_path=ckpt, checkpoint_every=1, sinks=(sink,),
            )
        finally:
            timer.cancel()
        assert outcome.interrupted
        assert ckpt.exists()
        # Resume replays the remaining ticks; the resumed sink stream
        # must be byte-identical to an uninterrupted run (flush events
        # are sink-only and excluded from the checkpoint).
        resumed_sink = ListAlertSink()
        replay(
            CFG, setup, record_history=True,
            checkpoint_path=ckpt, resume=True, sinks=(resumed_sink,),
        )
        full_sink = ListAlertSink()
        replay(CFG, setup, sinks=(full_sink,))
        assert resumed_sink.text() == full_sink.text()

    def test_cli_serve_ctrl_c_exits_130_with_flush_and_checkpoint(
        self, tmp_path
    ):
        """The satellite contract end to end: SIGINT to a live `repro
        serve` exits 130, the alert JSONL ends cleanly (flushed open
        alerts included) and a final checkpoint exists."""
        alerts = tmp_path / "serve_alerts.jsonl"
        ckpt = tmp_path / "serve_ckpt.npz"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--smoke",
                "--interval", "0.3", "--alerts", str(alerts),
                "--checkpoint", str(ckpt),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        import time

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not ckpt.exists():
            time.sleep(0.1)  # wait for the first tick's checkpoint
        assert ckpt.exists(), "server never processed a tick"
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130, stderr.decode()
        assert ckpt.exists()
        # Every emitted line parses and any open alert was flushed.
        lines = [
            json.loads(line)
            for line in alerts.read_text().splitlines()
            if line
        ]
        opens = sum(e["event"] == "open" for e in lines)
        closes = sum(e["event"] in ("close", "flush") for e in lines)
        assert opens == closes, "open alerts must be flushed on Ctrl-C"