"""Decoding over caller-owned buffers (repro.service.protocol).

The server hands :meth:`FrameDecoder.feed` ``memoryview`` slices of one
receive buffer it reuses for every read.  The contract under test:

* any interleaving of v1/v2 binary frames, JSON lines, control frames
  and junk decodes to the same frames however it is cut into chunks,
  and whether the chunks arrive as ``bytes`` or as views of one reused
  buffer;
* no decoded frame aliases the caller's buffer: overwriting it after
  ``feed`` returns changes nothing already decoded, and ``values`` is
  read-only;
* each binary frame owns its received bytes (``Frame.wire``).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    MAGIC,
    FrameDecoder,
    encode_ack,
    encode_acks_subscribe,
    encode_binary,
    encode_eof,
    encode_json,
)


def encode_v1(node: str, tick: int, values) -> bytes:
    """A version 1 binary frame (no checksum field)."""
    block = np.ascontiguousarray(values, dtype="<f8")
    path = node.encode("utf-8")
    body = (
        struct.pack("<BHQHI", 1, len(path), tick, *block.shape)
        + path
        + block.tobytes()
    )
    return MAGIC + struct.pack("<I", len(body)) + body


def _key(frame):
    values = frame.values
    if isinstance(values, np.ndarray):
        values = (values.shape, values.tobytes())
    return (frame.node, frame.tick, frame.control, frame.wire, repr(values))


def _feed_bytes(data: bytes, cuts: list[int]):
    decoder = FrameDecoder()
    frames = []
    for lo, hi in zip([0] + cuts, cuts + [len(data)]):
        got, _ = decoder.feed(data[lo:hi])
        frames.extend(got)
    return frames, decoder


def _feed_reused(data: bytes, cuts: list[int]):
    """Feed through one reused buffer, scribbled over after each feed."""
    bounds = list(zip([0] + cuts, cuts + [len(data)]))
    rbuf = bytearray(max((hi - lo for lo, hi in bounds), default=0) or 1)
    view = memoryview(rbuf)
    decoder = FrameDecoder()
    frames = []
    for lo, hi in bounds:
        rbuf[: hi - lo] = data[lo:hi]
        got, _ = decoder.feed(view[: hi - lo])
        frames.extend(got)
        rbuf[:] = b"\xa5" * len(rbuf)
    return frames, decoder


_nodes = st.sampled_from(["rack0/node00", "r1/n7", "ü/ß", "x"])


@st.composite
def _items(draw):
    """One stream element: ``(bytes, expected frame key or None)``."""
    kind = draw(
        st.sampled_from(["v2", "v1", "json", "eof", "acks", "ack", "junk"])
    )
    if kind == "junk":
        return draw(st.binary(min_size=1, max_size=40)), None
    if kind == "eof":
        return encode_eof(), ("", -1, "eof")
    if kind == "acks":
        return encode_acks_subscribe(), ("", -1, "acks")
    tick = draw(st.integers(0, 2**40))
    if kind == "ack":
        return encode_ack(tick), ("", tick, "ack")
    node = draw(_nodes)
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).standard_normal((n, m))
    encode = {"v2": encode_binary, "v1": encode_v1, "json": encode_json}
    return encode[kind](node, tick, values), (node, tick, None)


class TestChunkInvariance:
    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(_items(), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_any_cuts_bytes_or_reused_views_match_contiguous(
        self, items, data
    ):
        """Property: every cut of the stream, fed as ``bytes`` or as
        views of one reused buffer, yields the frames of one contiguous
        feed — and, without junk, exactly the frames that were sent."""
        stream = b"".join(raw for raw, _ in items)
        # Cuts anywhere, and cuts just around item boundaries — where a
        # magic, a length prefix or a header straddles two reads.
        starts = np.cumsum([0] + [len(raw) for raw, _ in items]).tolist()
        near_start = st.tuples(
            st.sampled_from(starts), st.integers(-2, 10)
        ).map(sum)
        cuts = sorted(
            set(
                data.draw(
                    st.lists(
                        st.one_of(
                            st.integers(1, max(len(stream) - 1, 1)),
                            near_start,
                        ),
                        max_size=20,
                    )
                )
            )
        )
        cuts = [c for c in cuts if 0 < c < len(stream)]
        whole, whole_decoder = _feed_bytes(stream, [])
        expected = [_key(f) for f in whole]
        for feed in (_feed_bytes, _feed_reused):
            frames, decoder = feed(stream, cuts)
            assert [_key(f) for f in frames] == expected
            assert decoder.pending == whole_decoder.pending
        if all(want is not None for _, want in items):
            assert [(f.node, f.tick, f.control) for f in whole] == [
                want for _, want in items
            ]
            assert whole_decoder.pending == 0

    def test_magic_split_after_junk_is_not_lost(self):
        """Junk followed by a frame whose magic straddles the read
        boundary: resync keeps the partial magic, the frame decodes."""
        frame = encode_binary("n0", 3, np.ones((2, 3)))
        stream = b"junk!" + frame
        for cut in range(len(b"junk!") + 1, len(b"junk!") + len(MAGIC)):
            frames, decoder = _feed_bytes(stream, [cut])
            assert [(f.node, f.tick) for f in frames] == [("n0", 3)]
            assert decoder.pending == 0


class TestOwnership:
    def test_overwriting_the_receive_buffer_leaves_frames_intact(self):
        rng = np.random.default_rng(1)
        bursts = [rng.standard_normal((3, 5)) for _ in range(4)]
        stream = b"".join(
            encode_binary(f"n{i}", i, b) for i, b in enumerate(bursts)
        )
        rbuf = bytearray(64)
        view = memoryview(rbuf)
        backing = np.frombuffer(rbuf, dtype=np.uint8)
        decoder = FrameDecoder()
        frames = []
        for lo in range(0, len(stream), len(rbuf)):
            chunk = stream[lo : lo + len(rbuf)]
            rbuf[: len(chunk)] = chunk
            got, errors = decoder.feed(view[: len(chunk)])
            assert errors == []
            frames.extend(got)
            for frame in frames:
                assert not np.shares_memory(frame.values, backing)
            rbuf[:] = b"\xff" * len(rbuf)
        assert [f.node for f in frames] == ["n0", "n1", "n2", "n3"]
        for frame, burst in zip(frames, bursts):
            np.testing.assert_array_equal(frame.values, burst)

    def test_values_are_read_only(self):
        (frame,), _ = FrameDecoder().feed(
            bytearray(encode_binary("n", 0, np.zeros((2, 2))))
        )
        assert not frame.values.flags.writeable
        with pytest.raises(ValueError):
            frame.values[0, 0] = 1.0

    @pytest.mark.parametrize("encode", [encode_binary, encode_v1])
    def test_frame_owns_its_received_bytes(self, encode):
        raw = encode("rack0/node01", 9, np.arange(6.0).reshape(2, 3))
        (frame,), _ = FrameDecoder().feed(memoryview(raw))
        assert frame.wire == raw
        assert np.shares_memory(
            frame.values, np.frombuffer(frame.wire, dtype=np.uint8)
        )

    def test_json_frames_carry_no_wire_bytes(self):
        (frame,), _ = FrameDecoder().feed(encode_json("n", 1, [[1.0]]))
        assert frame.wire is None

    def test_fed_length_is_consumed(self):
        """``len(data)`` bytes are consumed per call, whatever the
        input type (the benchmark counts decoded bytes this way)."""
        raw = encode_binary("n", 0, np.ones((2, 2)))
        decoder = FrameDecoder()
        half = len(raw) // 2
        decoder.feed(memoryview(raw)[:half])
        assert decoder.pending == half
        (frame,), errors = decoder.feed(memoryview(raw)[half:])
        assert errors == [] and decoder.pending == 0
        assert frame.wire == raw
