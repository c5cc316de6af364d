"""The network front end: a framed TCP protocol over the database service.

Layering (each importable and testable alone):

- :mod:`repro.net.frame` — length-prefixed binary framing, versioned
  header, per-frame CRC; typed rejection of truncation/corruption/bloat.
- :mod:`repro.net.protocol` — JSON request/response model, typed-error
  round-tripping, per-session state (pinned epochs, in-flight budgets).
- :mod:`repro.net.server` — the asyncio TCP server: pipelining,
  backpressure, load shedding, deadlines, graceful drain.
- :mod:`repro.net.client` — pipelined asyncio client.

The fault-injection harness of the drill matrix (truncated/corrupt frames,
resets, half-closes, stalls) lives in ``tests/net_harness.py``.
"""

from repro.net.client import NetClient, connect
from repro.net.frame import (
    Frame,
    FrameDecoder,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    encode_frame,
)
from repro.net.protocol import (
    SessionState,
    decode_payload,
    encode_payload,
    error_payload,
    execute_request,
    raise_error_payload,
)
from repro.net.server import NetServerConfig, TcpServer

__all__ = [
    "Frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "encode_frame",
    "SessionState",
    "decode_payload",
    "encode_payload",
    "error_payload",
    "execute_request",
    "raise_error_payload",
    "NetServerConfig",
    "TcpServer",
    "NetClient",
    "connect",
]
