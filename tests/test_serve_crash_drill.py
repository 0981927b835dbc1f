"""kill -9 drill against the real CLI server process.

The strongest durability claim in the PR: a ``repro serve --listen``
process with a WAL and networked checkpoints is SIGKILLed mid-stream
— no atexit, no flush, no warning — restarted with the same flags, fed
by a resuming client, and its final alert JSONL is byte-identical to
an uninterrupted in-process replay.  Parametrized across
``PYTHONHASHSEED`` values and across the fused tick path and the staged
reference pipeline (``python -m repro.service._staged_reference`` runs
the same CLI on it), because hash randomization and the fused arena are
exactly where hidden iteration-order or buffering nondeterminism would
surface.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.api import ServiceConfig, build_setup, replay
from repro.service.alerts import JSONLAlertSink
from repro.service.net import loadgen

ROOT = Path(__file__).resolve().parent.parent
CFG = ServiceConfig.smoke()
KILL_AFTER_TICKS = 3
#: The CLI entry module per tick path.
ENTRY = {"fused": "repro", "staged": "repro.service._staged_reference"}


@pytest.fixture(scope="module")
def setup():
    return build_setup(CFG)


@pytest.fixture(scope="module")
def ref_bytes(setup, tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    replay(CFG, setup, sinks=(JSONLAlertSink(path),))
    return path.read_bytes()


def _wait_for(pred, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout:.0f}s waiting for {what}")


def _serve_cmd(tmp: Path, backend: str, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        ENTRY[backend],
        "serve",
        "--smoke",
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        str(tmp / "serve.port"),
        "--wal",
        str(tmp / "wal"),
        "--checkpoint",
        str(tmp / "ckpt.npz"),
        "--checkpoint-every",
        "1",
        "--alerts",
        str(tmp / "alerts.jsonl"),
        "--model",
        str(tmp / "fleet.npz"),
        "--cache-dir",
        str(tmp / "cache"),
        *extra,
    ]


def _spawn(cmd: list, hashseed: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = hashseed
    return subprocess.Popen(
        cmd,
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _port(port_file: Path) -> int:
    return int(port_file.read_text().strip())


@pytest.mark.parametrize(
    "hashseed,backend", [("0", "staged"), ("1", "fused")]
)
def test_sigkill_restart_is_byte_identical(
    setup, ref_bytes, tmp_path, hashseed, backend
):
    port_file = tmp_path / "serve.port"
    alerts = tmp_path / "alerts.jsonl"
    ckpt = tmp_path / "ckpt.npz"

    # -- first life: serve, ingest a few ticks, die by SIGKILL -------
    proc = _spawn(_serve_cmd(tmp_path, backend), hashseed)
    try:
        # First start trains the smoke fleet before binding.
        _wait_for(port_file.exists, 120, "first server to bind")
        loadgen(
            setup,
            ("127.0.0.1", _port(port_file)),
            chunk=CFG.chunk,
            max_ticks=KILL_AFTER_TICKS,
            send_eof=False,
        )
        # A checkpoint on disk proves at least one tick is durable;
        # beyond that the kill point is deliberately uncontrolled.
        _wait_for(ckpt.exists, 30, "a checkpoint to land")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL
    # kill -9 leaves the stale port file behind; clear it so the
    # restart's bind is unambiguous.
    port_file.unlink()

    # -- second life: recover, resume the feed, drain, exit 0 --------
    proc = _spawn(
        _serve_cmd(tmp_path, backend, "--exit-on-idle"), hashseed
    )
    try:
        _wait_for(port_file.exists, 120, "restarted server to bind")
        stats = loadgen(
            setup,
            ("127.0.0.1", _port(port_file)),
            chunk=CFG.chunk,
            resume=True,
            total_timeout=120.0,
        )
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert stats["acked_ticks"] == stats["ticks"]
    assert alerts.read_bytes() == ref_bytes
    # Clean shutdown removed the port file again.
    assert not port_file.exists()
