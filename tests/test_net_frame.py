"""Property tests for the wire frame codec.

The codec is the trust boundary of the TCP front end: every byte a peer
sends flows through :class:`~repro.net.frame.FrameDecoder` before any
other code sees it.  These tests establish, over randomized frames and
chunkings, that (a) encode∘decode is the identity, (b) truncation at
*every* byte boundary is a clean wait-for-more, never an error, (c) any
single-byte corruption either raises a typed error or yields a frame
that visibly differs (the CRC covers the payload; header fields are
validated structurally), and (d) oversized frames are refused from the
header alone.
"""

from __future__ import annotations

import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FrameCorrupt,
    FrameError,
    FrameTooLarge,
    NetError,
    ProtocolError,
    ReproError,
)
from repro.net import frame
from repro.net.frame import (
    HEADER,
    HEADER_SIZE,
    MAGIC,
    T_ERROR,
    T_GOODBYE,
    T_HELLO,
    T_REQUEST,
    TYPE_NAMES,
    WIRE_VERSION,
    Frame,
    FrameDecoder,
    encode_frame,
)

frame_types = st.sampled_from(sorted(TYPE_NAMES))
request_ids = st.integers(min_value=0, max_value=(1 << 64) - 1)
payloads = st.binary(max_size=512)


@st.composite
def frames(draw):
    return (
        draw(frame_types),
        draw(request_ids),
        draw(payloads),
    )


class TestRoundTrip:
    @given(frames())
    def test_single_frame_round_trips(self, spec):
        type_, request_id, payload = spec
        decoded = FrameDecoder().feed(encode_frame(type_, request_id, payload))
        assert decoded == [Frame(type_, request_id, payload)]

    @given(st.lists(frames(), min_size=1, max_size=6), st.randoms())
    def test_stream_round_trips_under_any_chunking(self, specs, rng):
        """A concatenated stream decodes identically however it is cut."""
        stream = b"".join(encode_frame(*spec) for spec in specs)
        decoder = FrameDecoder()
        decoded = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, max(1, len(stream) // 3))
            decoded.extend(decoder.feed(stream[i:i + step]))
            i += step
        assert [(f.type, f.request_id, f.payload) for f in decoded] == specs
        assert decoder.pending == 0

    @given(frames())
    def test_header_layout_is_stable(self, spec):
        """The documented 20-byte layout is the actual layout."""
        type_, request_id, payload = spec
        data = encode_frame(type_, request_id, payload)
        magic, version, t, rid, length, crc = HEADER.unpack(data[:HEADER_SIZE])
        assert (magic, version, t, rid) == (MAGIC, WIRE_VERSION, type_, request_id)
        assert length == len(payload)
        assert crc == zlib.crc32(payload) & 0xFFFFFFFF


class TestTruncation:
    @given(frames())
    @settings(max_examples=25)
    def test_every_prefix_is_a_clean_wait(self, spec):
        """A partial frame is never an error at any byte boundary."""
        data = encode_frame(*spec)
        for cut in range(len(data)):
            decoder = FrameDecoder()
            assert decoder.feed(data[:cut]) == []
            assert decoder.pending == cut
            # The remainder completes the frame: truncation lost nothing.
            frames_ = decoder.feed(data[cut:])
            assert [(f.type, f.request_id, f.payload) for f in frames_] == [spec]

    def test_pending_distinguishes_boundary_from_midframe(self):
        decoder = FrameDecoder()
        data = encode_frame(T_REQUEST, 7, b"hello")
        decoder.feed(data)
        assert decoder.pending == 0  # clean boundary
        decoder.feed(data[:HEADER_SIZE + 2])
        assert decoder.pending == HEADER_SIZE + 2  # died mid-frame


class TestCorruption:
    @given(frames())
    @settings(max_examples=25)
    def test_any_single_byte_flip_is_typed_or_visible(self, spec):
        """Flipping any byte raises a typed error or changes the frame.

        Header bytes covering magic/version/length/CRC raise; flips in
        the type/request-id fields can produce a *different* valid frame
        (they are correlation metadata, validated at the protocol layer)
        — what is never allowed is an unhandled non-repro exception or a
        silently identical decode.
        """
        type_, request_id, payload = spec
        data = bytearray(encode_frame(type_, request_id, payload))
        for i in range(len(data)):
            mutated = bytearray(data)
            mutated[i] ^= 0xFF
            decoder = FrameDecoder()
            try:
                frames_ = decoder.feed(bytes(mutated))
            except ReproError:
                continue  # typed rejection: FrameCorrupt/TooLarge/Protocol
            if not frames_:
                assert decoder.pending > 0  # length flip: waiting for more
                continue
            assert frames_ != [Frame(type_, request_id, payload)]

    def test_payload_corruption_is_crc_caught(self):
        data = bytearray(encode_frame(T_REQUEST, 1, b"x" * 64))
        data[HEADER_SIZE + 10] ^= 0x01
        with pytest.raises(FrameCorrupt, match="CRC"):
            FrameDecoder().feed(bytes(data))

    def test_bad_magic_is_stream_desync(self):
        with pytest.raises(FrameCorrupt, match="magic"):
            FrameDecoder().feed(b"XX" + b"\x00" * 30)

    def test_unknown_version_is_protocol_error(self):
        data = bytearray(encode_frame(T_HELLO, 1, b""))
        data[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(bytes(data))

    def test_errors_poison_the_decoder(self):
        """After a framing error, every further feed re-raises: the
        stream has lost sync and must not be reinterpreted."""
        decoder = FrameDecoder()
        with pytest.raises(FrameCorrupt):
            decoder.feed(b"XX" + b"\x00" * 30)
        good = encode_frame(T_REQUEST, 1, b"ok")
        with pytest.raises(FrameCorrupt):
            decoder.feed(good)

    def test_all_frame_errors_are_net_errors(self):
        assert issubclass(FrameError, ProtocolError)
        assert issubclass(FrameCorrupt, FrameError)
        assert issubclass(FrameTooLarge, FrameError)
        assert issubclass(ProtocolError, NetError)


class TestOversize:
    """The cap is :data:`repro.net.frame.MAX_FRAME_BYTES`, read per frame."""

    @staticmethod
    def small_cap():
        return mock.patch.object(frame, "MAX_FRAME_BYTES", 64)

    def test_encoder_refuses_oversized_payloads(self):
        with self.small_cap():
            with pytest.raises(FrameTooLarge):
                encode_frame(T_REQUEST, 1, b"x" * 100)
            assert len(encode_frame(T_REQUEST, 1, b"x" * 64)) == HEADER_SIZE + 64

    def test_decoder_refuses_from_header_alone(self):
        """The cap trips before any payload is buffered — a hostile
        length cannot balloon memory."""
        decoder = FrameDecoder()
        header = HEADER.pack(MAGIC, WIRE_VERSION, T_REQUEST, 1, 1 << 30, 0)
        with pytest.raises(FrameTooLarge):
            decoder.feed(header)  # note: no payload bytes at all
        assert decoder.pending <= HEADER_SIZE

    @given(st.integers(min_value=65, max_value=1 << 31))
    @settings(max_examples=20)
    def test_any_over_cap_length_is_refused(self, declared):
        decoder = FrameDecoder()
        header = HEADER.pack(
            MAGIC, WIRE_VERSION, T_GOODBYE, 0, declared & 0xFFFFFFFF, 0
        )
        with self.small_cap(), pytest.raises(FrameTooLarge):
            decoder.feed(header)


class TestEncoderValidation:
    def test_unknown_type_refused(self):
        with pytest.raises(ProtocolError, match="type"):
            encode_frame(42, 1, b"")

    @given(st.integers(min_value=1 << 64, max_value=1 << 70))
    @settings(max_examples=10)
    def test_request_id_over_u64_refused(self, rid):
        with pytest.raises(ProtocolError, match="u64"):
            encode_frame(T_ERROR, rid, b"")

    def test_negative_request_id_refused(self):
        with pytest.raises(ProtocolError, match="u64"):
            encode_frame(T_ERROR, -1, b"")
