"""Out-of-process load generator for the serving workloads.

Run by ``perfbench/run.py`` as one subprocess, so the generator's CPU
never lands on the server process it measures.  It connects once,
subscribes to per-tick acks and streams ``repro-ticks/v1`` binary
frames, one per (node, tick), in one of two modes:

* closed loop (no ``--interval``) — at most ``WINDOW`` ticks are in
  flight (sent, not yet acked);
* open loop — tick ``i`` is due at ``start + i * --interval`` and is
  sent then whatever the server is doing; lateness against that
  schedule is recorded.

Either way it sends exactly ``--ticks`` ticks, however fast the server
is, and then awaits every ack, so runs of a slower and a faster program
process the same input.

Memory stays bounded by one tick: each distinct base-node burst is
encoded once per tick and only the short node-path prefix is stamped
per node.  Sends are non-blocking so ack arrivals are timestamped while
a large tick is still being written.  All times are
``time.monotonic()``, which the server process shares.

The report is one JSON object on the last stdout line: per tick its
due, send and ack times, plus the generator's CPU seconds.
"""

from __future__ import annotations

import argparse
import json
import select
import socket
import struct
import sys
import time
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service.protocol import (  # noqa: E402
    MAGIC,
    FrameDecoder,
    encode_acks_subscribe,
    encode_binary,
    encode_eof,
)

#: Binary frame header (version 2): version u8, path_len u16, tick u64,
#: n_sensors u16, m u32, crc32(path, crc32(values)) u32.
_HEADER = struct.Struct("<BHQHII")
_VERSION = 2
#: Closed loop: unacked ticks kept in flight.
WINDOW = 4
#: Longest wait for the server's port file, and for the last acks.
TIMEOUT_S = 120.0


class Feed:
    """The fleet's held-out feed: base matrices, path -> base map and
    the samples per node per tick."""

    def __init__(self, path: Path):
        with np.load(path) as z:
            self.paths = [str(p) for p in z["paths"]]
            self.base_of = z["base_of"].astype(int)
            self.bases = [z[f"base{i}"] for i in range(int(z["n_bases"]))]
            self.chunk = int(z["chunk"])
        self.horizon = min(b.shape[1] for b in self.bases)
        self.n_ticks = self.horizon // self.chunk
        self._encoded = [p.encode("utf-8") for p in self.paths]

    def tick_bytes(self, tick: int) -> bytes:
        """Every node's frame for ``tick``, base payloads encoded once."""
        lo = tick * self.chunk
        payloads = []
        for base in self.bases:
            block = np.ascontiguousarray(
                base[:, lo : lo + self.chunk], dtype="<f8"
            )
            data = block.tobytes()
            payloads.append((data, zlib.crc32(data), block.shape))
        parts = []
        for enc, b in zip(self._encoded, self.base_of):
            data, vcrc, (n, m) = payloads[b]
            header = _HEADER.pack(
                _VERSION, len(enc), tick, n, m, zlib.crc32(enc, vcrc)
            )
            parts += (
                MAGIC,
                struct.pack("<I", len(header) + len(enc) + len(data)),
                header,
                enc,
                data,
            )
        return b"".join(parts)

    def check_encoding(self) -> None:
        """Fail loudly if the stamped frames drift from the protocol."""
        block = self.bases[self.base_of[0]][:, : self.chunk]
        expect = encode_binary(self.paths[0], 0, block)
        got = self.tick_bytes(0)[: len(expect)]
        if got != expect:
            raise SystemExit(
                "loadgen: stamped frame differs from encode_binary; the "
                "repro-ticks/v1 binary layout changed"
            )


def wait_for_port(port_file: Path, timeout: float) -> tuple[int, float]:
    """Poll for the server's port file; return (port, time seen)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            text = port_file.read_text(encoding="utf-8")
            if text.endswith("\n"):
                return int(text), time.monotonic()
        except (FileNotFoundError, ValueError):
            pass
        if time.monotonic() > deadline:
            raise SystemExit(f"loadgen: no port file within {timeout:.0f}s")
        time.sleep(0.0005)


class Session:
    """One connection: a non-blocking writer plus an ack reader."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(encode_acks_subscribe())
        self.sock.setblocking(False)
        self.decoder = FrameDecoder()
        self.out = memoryview(b"")
        self.ack_at: dict[int, float] = {}

    def queue(self, data: bytes) -> None:
        self.out = memoryview(data)

    def step(self, timeout: float | None) -> None:
        """Wait up to ``timeout`` for the socket; write and read acks."""
        want_write = [self.sock] if self.out.nbytes else []
        readable, writable, _ = select.select(
            [self.sock], want_write, [], timeout
        )
        if writable:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                sent = 0
            self.out = self.out[sent:]
        if readable:
            data = self.sock.recv(1 << 16)
            now = time.monotonic()
            if not data:
                raise SystemExit("loadgen: server closed the connection")
            frames, _ = self.decoder.feed(data)
            for frame in frames:
                if frame.control == "ack":
                    self.ack_at.setdefault(frame.tick, now)

    def flush(self) -> None:
        while self.out.nbytes:
            self.step(None)

    def close(self) -> None:
        self.sock.setblocking(True)
        self.sock.sendall(encode_eof())
        self.sock.close()


def run(args) -> dict:
    feed = Feed(Path(args.feed))
    feed.check_encoding()
    if not 1 <= args.ticks <= feed.n_ticks:
        raise SystemExit(
            f"loadgen: --ticks {args.ticks} outside the feed's "
            f"1..{feed.n_ticks}"
        )
    n_ticks = args.ticks
    port_file = Path(args.port_file)
    port_file.with_name("ready").touch()
    port, listen_seen = wait_for_port(port_file, TIMEOUT_S)
    cpu0 = time.process_time()
    session = Session(port)
    sent_at: list[float] = []
    due_at: list[float] = []
    start = time.monotonic()
    tick = 0
    while tick < n_ticks:
        if session.out.nbytes:
            session.step(None)  # the previous tick is still being written
            continue
        now = time.monotonic()
        if args.interval is not None:
            due = start + tick * args.interval
            if now < due:
                session.step(due - now)
                continue
        else:
            if tick - len(session.ack_at) >= WINDOW:
                session.step(None)
                continue
            due = now
        due_at.append(due)
        sent_at.append(time.monotonic())
        session.queue(feed.tick_bytes(tick))
        tick += 1
    session.flush()
    deadline = time.monotonic() + TIMEOUT_S
    while len(session.ack_at) < tick and time.monotonic() < deadline:
        session.step(0.05)
    session.close()
    acks = [session.ack_at.get(i) for i in range(tick)]
    return {
        "listen_seen": listen_seen,
        "ticks": tick,
        "nodes": len(feed.paths),
        "frames": tick * len(feed.paths),
        "acked": sum(a is not None for a in acks),
        "due_at": due_at,
        "sent_at": sent_at,
        "ack_at": acks,
        "cpu_s": time.process_time() - cpu0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--feed", required=True)
    ap.add_argument("--port-file", required=True)
    ap.add_argument("--ticks", type=int, required=True)
    ap.add_argument("--interval", type=float, help="open loop: seconds per tick")
    report = run(ap.parse_args(argv))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
