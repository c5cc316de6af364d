"""Length-prefixed binary framing with a versioned header and per-frame CRC.

The TCP front end multiplexes pipelined requests over one byte stream, so
the stream must be sliceable into self-validating frames.  Wire format
(big-endian, 20-byte header)::

    offset  size  field
    0       2     magic   b"LX"
    2       1     version (WIRE_VERSION)
    3       1     type    (message type, see T_* constants)
    4       8     request id (u64; correlates a response to its request)
    12      4     payload length (u32, bytes)
    16      4     CRC32 of the payload
    20      n     payload (JSON, UTF-8)

Design rules, all load-bearing for robustness:

- **Validate before buffering.**  The length field is checked against
  :data:`MAX_FRAME_BYTES` as soon as the header is readable, so an
  adversarial length cannot make the server buffer gigabytes before noticing
  (:class:`~repro.errors.FrameTooLarge`).
- **Corruption is typed, never an unhandled exception.**  Bad magic and
  CRC mismatches raise :class:`~repro.errors.FrameCorrupt`; an
  unsupported version raises :class:`~repro.errors.ProtocolError`.  A
  framing error poisons the :class:`FrameDecoder` (stream sync is lost —
  there is no way to find the next boundary), and the connection must be
  closed; the process never dies.
- **Truncation is not an error.**  A partial frame simply waits for more
  bytes; :attr:`FrameDecoder.pending` reports how many are buffered so a
  server can tell "clean close at a frame boundary" from "connection died
  mid-frame".
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.errors import FrameCorrupt, FrameTooLarge, ProtocolError

__all__ = [
    "Frame",
    "FrameDecoder",
    "encode_frame",
    "HEADER",
    "HEADER_SIZE",
    "MAGIC",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "T_HELLO",
    "T_WELCOME",
    "T_REQUEST",
    "T_RESPONSE",
    "T_ERROR",
    "T_GOODBYE",
    "TYPE_NAMES",
]

MAGIC = b"LX"
WIRE_VERSION = 1

#: Header layout: magic, version, type, request id, payload length, CRC32.
HEADER = struct.Struct(">2sBBQII")
HEADER_SIZE = HEADER.size  # 20 bytes

#: Cap on one frame's payload, both directions (read when a frame is
#: encoded or decoded).
MAX_FRAME_BYTES = 1 << 20

# Message types.  HELLO/WELCOME is the version handshake; REQUEST carries
# a command, RESPONSE its success payload, ERROR a typed failure;
# GOODBYE announces an orderly close (drain or client sign-off).
T_HELLO = 1
T_WELCOME = 2
T_REQUEST = 3
T_RESPONSE = 4
T_ERROR = 5
T_GOODBYE = 6

TYPE_NAMES = {
    T_HELLO: "hello",
    T_WELCOME: "welcome",
    T_REQUEST: "request",
    T_RESPONSE: "response",
    T_ERROR: "error",
    T_GOODBYE: "goodbye",
}


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw payload bytes."""

    type: int
    request_id: int
    payload: bytes

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.type, f"type-{self.type}")


def encode_frame(type: int, request_id: int, payload: bytes) -> bytes:
    """Serialize one frame; refuses oversized payloads before sending.

    The sender-side cap means a client cannot even *construct* a frame
    its peer would reject.
    """
    if type not in TYPE_NAMES:
        raise ProtocolError(f"unknown frame type {type}")
    if not 0 <= request_id < 1 << 64:
        raise ProtocolError(f"request id {request_id} out of u64 range")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"payload is {len(payload)} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    header = HEADER.pack(
        MAGIC, WIRE_VERSION, type, request_id, len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


class FrameDecoder:
    """Incremental frame decoder over an arbitrary chunking of the stream.

    ``feed(data)`` returns every frame completed by ``data`` (zero or
    more); partial frames stay buffered.  All validation errors are typed
    (:class:`~repro.errors.FrameError` subclasses) and poison the
    decoder: once the stream loses sync, every further ``feed`` raises
    the same error, so a server cannot accidentally keep parsing garbage.
    """

    __slots__ = ("_buffer", "_error")

    def __init__(self):
        self._buffer = bytearray()
        self._error: Exception | None = None

    @property
    def pending(self) -> int:
        """Bytes buffered towards an incomplete frame (0 at a boundary)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Frame]:
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        frames: list[Frame] = []
        try:
            while True:
                frame = self._next_frame()
                if frame is None:
                    return frames
                frames.append(frame)
        except Exception as exc:
            self._error = exc
            raise

    def _next_frame(self) -> Frame | None:
        buffer = self._buffer
        if len(buffer) < HEADER_SIZE:
            return None
        magic, version, type_, request_id, length, crc = HEADER.unpack_from(
            buffer
        )
        if magic != MAGIC:
            raise FrameCorrupt(
                f"bad frame magic {bytes(magic)!r} (stream out of sync)"
            )
        if version != WIRE_VERSION:
            raise ProtocolError(
                f"unsupported wire version {version} (speaking {WIRE_VERSION})"
            )
        # Cap check happens on the header alone — before the payload is
        # buffered — so a hostile length field cannot balloon memory.
        if length > MAX_FRAME_BYTES:
            raise FrameTooLarge(
                f"frame declares {length} payload bytes, over the "
                f"{MAX_FRAME_BYTES}-byte cap"
            )
        if len(buffer) < HEADER_SIZE + length:
            return None
        payload = bytes(buffer[HEADER_SIZE:HEADER_SIZE + length])
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise FrameCorrupt(
                f"payload CRC mismatch on {TYPE_NAMES.get(type_, type_)} "
                f"frame (id {request_id})"
            )
        del buffer[:HEADER_SIZE + length]
        return Frame(type_, request_id, payload)
