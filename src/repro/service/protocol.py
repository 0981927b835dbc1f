"""The ``repro-ticks/v1`` ingestion wire protocol.

One *frame* carries one node's burst for one tick.  Two encodings share
a stream (auto-detected per frame by the first byte):

* **newline-JSON** — one object per line::

      {"node": "rack0/node00", "tick": 7, "values": [[...], ...]}

  ``values`` is the ``(n_sensors, m)`` burst as nested lists.  A line
  whose object carries ``"op"`` instead is a control frame; the only
  defined op is ``{"op": "eof"}`` (the sender is done).

* **binary** — compact length-prefixed frames for load-generator /
  agent traffic::

      MAGIC(4) | body_len u32 | body

  with ``body`` = ``version u8 | path_len u16 | tick u64 |
  n_sensors u16 | m u32 | crc u32 | path utf-8 | values
  float64[n*m]`` (all little-endian, values C-order).  ``crc`` is
  version 2's payload checksum, ``crc32(path, crc32(values))`` —
  values first so a load generator can cache one burst's checksum and
  re-stamp only the cheap path prefix per node.  A checksum mismatch
  is transport corruption, **not** a node fault: the decoder reports
  it without a node attribution so the server drops (and counts) the
  frame instead of poisoning whatever path the damaged bytes happen
  to spell, and the sender's ack-driven retransmit re-delivers it.
  Version 1 frames (no ``crc`` field) still decode.  ``MAGIC``'s
  first byte can never start a JSON line, which is what makes
  per-frame autodetection safe.

:class:`FrameDecoder` is an incremental parser over arbitrary byte
chunks: it yields decoded :class:`Frame`\\ s plus typed
:class:`FrameError`\\ s for garbage, truncated or malformed input — and
*resynchronizes* after garbage instead of dying, so one corrupt sender
cannot take the ingestion loop down.  Errors that can be attributed to
a node keep its path, which lets the server route the fault into the
guard's quarantine machinery as a poison block.

**One copy per frame.**  :meth:`FrameDecoder.feed` takes any contiguous
bytes-like chunk — ``bytes`` from a CLI client, or a ``memoryview``
slice of a receive buffer the server reuses for the next read — and
parses it in place with a moving offset: headers are unpacked, the
checksum computed and lines and resync targets found over views of the
caller's buffer.  A binary frame that passes every check is copied out
exactly once, whole, into ``bytes`` the :class:`Frame` owns
(:attr:`Frame.wire`, which the journal appends verbatim); ``values`` is
a read-only ``np.frombuffer`` view of those bytes.  No frame ever
aliases the caller's buffer, so the caller may overwrite it as soon as
``feed`` returns.  Only a trailing partial frame is kept between calls,
in the decoder's own buffer.
"""

from __future__ import annotations

import json
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "MAGIC",
    "PROTOCOL",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "encode_ack",
    "encode_acks_subscribe",
    "encode_binary",
    "encode_eof",
    "encode_json",
]

PROTOCOL = "repro-ticks/v1"

#: Binary frame magic.  0x93 cannot begin UTF-8 JSON text, so the
#: decoder distinguishes the two encodings from one byte.
MAGIC = b"\x93RT1"

_HEADER = struct.Struct("<BHQHI")  # v1: version, path_len, tick, n, m
_HEADER2 = struct.Struct("<BHQHII")  # v2: ... + crc32
_VERSION = 2
_BODY_LEN = struct.Struct("<I")  # after MAGIC
_PREFIX = len(MAGIC) + _BODY_LEN.size

#: Searched straight over the caller's buffer (``re`` accepts any
#: bytes-like object, memoryviews included, without copying).
_NEWLINE = re.compile(rb"\n")
#: Where resync may land: a binary magic, a JSON line start, or just
#: past a line end.
_RESYNC = re.compile(re.escape(MAGIC) + rb"|\{|\n")

#: Upper bound on one frame body / JSON line; anything larger is
#: treated as garbage (a desynchronized or malicious length prefix must
#: not make the decoder buffer gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Frame:
    """One decoded tick frame (``control`` set for ``{"op": ...}``)."""

    node: str
    tick: int
    #: ``(n_sensors, m)`` float64 array for binary frames; the raw JSON
    #: ``values`` payload (nested lists, or anything else the sender
    #: put there) for JSON frames — the guard boundary conforms it.
    values: Any
    control: str | None = None
    #: The complete binary frame as received (magic, length prefix and
    #: body): the one copy the decoder makes, which ``values`` views.
    #: ``None`` for JSON and control frames.
    wire: bytes | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FrameError:
    """One undecodable stretch of input, with the best-known context."""

    #: "garbage" | "bad-json" | "bad-frame" | "bad-crc" | "truncated"
    reason: str
    detail: str = ""
    #: The node path when the broken frame still named one (lets the
    #: server poison that node's queue so the guard quarantines it).
    node: str | None = None


def encode_json(node: str, tick: int, values) -> bytes:
    """One newline-JSON frame (values via ``tolist()`` for arrays)."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return (
        json.dumps(
            {"node": node, "tick": int(tick), "values": values},
            separators=(",", ":"),
        )
        + "\n"
    ).encode("utf-8")


def encode_eof() -> bytes:
    """The end-of-stream control frame."""
    return b'{"op":"eof"}\n'


def encode_acks_subscribe() -> bytes:
    """Control frame a client sends to opt into per-tick acks."""
    return b'{"op":"acks"}\n'


def encode_ack(tick: int) -> bytes:
    """Per-tick ack the server sends to subscribed connections."""
    return (
        json.dumps(
            {"op": "ack", "tick": int(tick)}, separators=(",", ":")
        )
        + "\n"
    ).encode("utf-8")


def encode_binary(node: str, tick: int, values) -> bytes:
    """One binary (version 2, checksummed) frame for a burst."""
    B = np.ascontiguousarray(values, dtype="<f8")
    if B.ndim != 2:
        raise ValueError(
            f"binary frames carry (n_sensors, m) bursts, got shape {B.shape}"
        )
    path = node.encode("utf-8")
    payload = B.tobytes()
    crc = zlib.crc32(path, zlib.crc32(payload))
    header = _HEADER2.pack(
        _VERSION, len(path), int(tick), B.shape[0], B.shape[1], crc
    )
    body = header + path + payload
    return MAGIC + struct.pack("<I", len(body)) + body


def _decode_binary(
    view: memoryview, start: int, stop: int
) -> Frame | FrameError:
    """Decode the binary frame at ``view[start:stop]`` (prefix included).

    Every check runs over the view; only a frame that passes them all
    is copied, once, into the ``bytes`` its :class:`Frame` owns.
    """
    body = start + _PREFIX
    size = stop - body
    if size < _HEADER.size:
        return FrameError("bad-frame", detail="short header")
    version = view[body]
    if version == 1:
        header, crc = _HEADER, None
        _, path_len, tick, n, m = _HEADER.unpack_from(view, body)
    elif version == _VERSION:
        if size < _HEADER2.size:
            return FrameError("bad-frame", detail="short header")
        header = _HEADER2
        _, path_len, tick, n, m, crc = _HEADER2.unpack_from(view, body)
    else:
        return FrameError("bad-frame", detail=f"unknown version {version}")
    expected = header.size + path_len + 8 * n * m
    if size != expected:
        return FrameError(
            "bad-frame",
            detail=f"body is {size} bytes, header implies {expected}",
        )
    path_at = body + header.size
    values_at = path_at + path_len
    raw_path = view[path_at:values_at]
    if crc is not None:
        actual = zlib.crc32(raw_path, zlib.crc32(view[values_at:stop]))
        if actual != crc:
            # Transport corruption: the path bytes themselves are
            # untrustworthy, so no node attribution — the server must
            # drop this frame, not poison whatever the bytes spell.
            return FrameError(
                "bad-crc",
                detail=f"checksum {actual:#010x} != header {crc:#010x}",
            )
    try:
        path = str(raw_path, "utf-8")
    except UnicodeDecodeError:
        return FrameError("bad-frame", detail="undecodable path")
    wire = bytes(view[start:stop])
    values = np.frombuffer(
        wire, dtype="<f8", count=n * m, offset=values_at - start
    ).reshape(n, m)
    return Frame(node=path, tick=int(tick), values=values, wire=wire)


def _decode_line(line: bytes) -> Frame | FrameError:
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        return FrameError("bad-json", detail=str(exc))
    if not isinstance(obj, dict):
        return FrameError("bad-json", detail="frame is not an object")
    if "op" in obj:
        # Control frames keep a tick when they carry one (acks do);
        # -1 otherwise, preserving the historical sentinel.
        try:
            tick = int(obj.get("tick", -1))
        except (TypeError, ValueError):
            tick = -1
        return Frame(
            node="", tick=tick, values=None, control=str(obj["op"])
        )
    node = obj.get("node")
    if not isinstance(node, str) or not node:
        return FrameError("bad-json", detail="missing node path")
    try:
        tick = int(obj["tick"])
    except (KeyError, TypeError, ValueError):
        return FrameError("bad-json", detail="missing tick", node=node)
    # values stay raw: the guard boundary conforms (or rejects) them,
    # so a malformed payload degrades the node instead of the decoder.
    return Frame(node=node, tick=tick, values=obj.get("values"))


class FrameDecoder:
    """Incremental ``repro-ticks/v1`` decoder with garbage resync.

    Parses each fed chunk in place; only a trailing partial frame is
    carried over, in :attr:`_buf`, and completed from the head of the
    next chunk.
    """

    def __init__(self):
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet decodable."""
        return len(self._buf)

    def feed(self, data) -> tuple[list[Frame], list[FrameError]]:
        """Consume one chunk; return every frame/error it completed.

        ``data`` is any contiguous bytes-like object; ``len(data)``
        bytes are consumed.  Nothing returned refers to ``data``.
        """
        frames: list[Frame] = []
        errors: list[FrameError] = []
        view = memoryview(data)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        if self._buf:
            view = self._complete(view, frames, errors)
        off = _parse(view, frames, errors)
        if off < len(view):
            self._buf += view[off:]
        return frames, errors

    def _complete(
        self,
        view: memoryview,
        frames: list[Frame],
        errors: list[FrameError],
    ) -> memoryview:
        """Finish the carried partial frame from the head of ``view``;
        return the part of ``view`` still to parse.

        The carried bytes always start a frame (resync never stops on
        anything else), so usually exactly the bytes that frame still
        lacks are appended.  When :func:`_frame_end` rejects the carried
        frame start (a bad magic, a length over the cap) or the carried
        bytes grow past the cap, the whole chunk is appended and the
        joined buffer parsed — the rare path, where copying does not
        matter.
        """
        buf = self._buf
        if buf[0] == MAGIC[0]:
            # A binary frame's length prefix tells where it ends.
            take = _PREFIX - len(buf)
            if take > 0:
                buf += view[:take]
                view = view[take:]
            end = _frame_end(buf, 0)
        else:
            # A line: the carried bytes hold no line end (or they would
            # have been parsed), so the chunk's first one ends it.
            match = _NEWLINE.search(view)
            end = len(buf) + match.end() if match else None
        if end is None or end == 0 or end - len(buf) > len(view):
            buf += view
            if end == 0 or len(buf) > MAX_FRAME_BYTES:
                # The framing rules reject the carried frame start, or
                # the carried frame outgrew the cap: let _parse apply
                # them to the joined bytes.
                self._parse_buffer(frames, errors)
            return view[len(view) :]
        need = end - len(buf)
        buf += view[:need]
        self._parse_buffer(frames, errors)
        return view[need:]

    def _parse_buffer(
        self, frames: list[Frame], errors: list[FrameError]
    ) -> None:
        """Parse the carried buffer, keeping only what stays partial."""
        with memoryview(self._buf) as view:
            off = _parse(view, frames, errors)
        del self._buf[:off]

    def eof(self) -> list[FrameError]:
        """Flush at end of stream; leftover bytes are a truncated frame."""
        if not self._buf:
            return []
        detail = f"{len(self._buf)} bytes after last complete frame"
        self._buf.clear()
        return [FrameError("truncated", detail=detail)]


def _frame_end(view: memoryview, off: int) -> int | None:
    """Where the frame that starts at ``view[off]`` ends: the framing
    rules in one place.

    Returns the offset one past the frame's last byte — for a binary
    frame as soon as its length prefix is in, even when that lies
    beyond the view — or ``None`` while the view does not show it yet
    (a short length prefix, a line with no line end).  Returns ``off``
    itself when no frame can start there: a bad magic, a length prefix
    over :data:`MAX_FRAME_BYTES`, an unterminated line already longer
    than that, or any other first byte (:func:`_reject` says why).
    """
    first = view[off]
    if first == MAGIC[0]:
        if len(view) - off < _PREFIX:
            return None
        if view[off : off + len(MAGIC)] != MAGIC:
            return off
        (body_len,) = _BODY_LEN.unpack_from(view, off + len(MAGIC))
        if body_len > MAX_FRAME_BYTES:
            return off
        return off + _PREFIX + body_len
    if first == 0x7B:  # "{"
        match = _NEWLINE.search(view, off)
        if match is not None:
            return match.end()
        return off if len(view) - off > MAX_FRAME_BYTES else None
    return off


def _reject(view: memoryview, off: int, errors: list[FrameError]) -> int:
    """Report why :func:`_frame_end` found no frame at ``view[off]``;
    return the offset where parsing resumes."""
    if view[off] == 0x7B:
        errors.append(FrameError("garbage", detail="unterminated line"))
        return len(view)
    if view[off : off + len(MAGIC)] == MAGIC:
        (body_len,) = _BODY_LEN.unpack_from(view, off + len(MAGIC))
        errors.append(
            FrameError(
                "garbage", detail=f"frame length {body_len} exceeds cap"
            )
        )
        return off + len(MAGIC)  # skip the magic, resync after
    return _resync(view, off, errors)


def _parse(
    view: memoryview, frames: list[Frame], errors: list[FrameError]
) -> int:
    """Decode every complete frame in ``view``; return the offset of the
    first byte not consumed (the start of a trailing partial frame)."""
    end = len(view)
    off = 0
    while off < end:
        stop = _frame_end(view, off)
        if stop is None or stop > end:
            break  # a trailing partial frame
        if stop == off:
            off = _reject(view, off, errors)
            continue
        if view[off] == MAGIC[0]:
            result = _decode_binary(view, off, stop)
        else:
            result = _decode_line(bytes(view[off : stop - 1]))
        off = stop
        if isinstance(result, Frame):
            frames.append(result)
        else:
            errors.append(result)
    return off


def _resync(view: memoryview, off: int, errors: list[FrameError]) -> int:
    """Skip garbage at ``off`` up to the next plausible frame start.

    With no frame start in sight, a trailing partial magic is kept: the
    rest of it may arrive with the next chunk, and skipping it would
    lose the frame it starts.
    """
    match = _RESYNC.search(view, off + 1)
    if match is None:
        target = len(view)
        for k in range(len(MAGIC) - 1, 0, -1):
            if target - k > off and view[target - k :] == MAGIC[:k]:
                target -= k
                break
    elif view[match.start()] == 0x0A:  # resume after the line end
        target = match.end()
    else:
        target = match.start()
    errors.append(
        FrameError("garbage", detail=f"skipped {target - off} bytes")
    )
    return target
