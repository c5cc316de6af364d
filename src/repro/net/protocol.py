"""Wire codec and typed-error mapping of the framed TCP protocol.

Payloads inside :mod:`repro.net.frame` frames are JSON objects
(dependency-free, schema-light).  A request is ``{"cmd": <verb>,
...fields}``; what a verb's fields are, what it does and what it replies
is the verb table's business (:mod:`repro.service.commands`, shared with
the line shell and re-exported here), so this module is only what is
particular to the wire: bytes <-> dict, and errors.  A failure travels as
``{"error": <type name>, "message": ...}`` where the type name is the
:mod:`repro.errors` class, so the client can re-raise the *same* typed
exception the server caught (:func:`error_payload` /
:func:`raise_error_payload`).

:func:`execute_request` is deliberately synchronous: the database service
is thread-safe and blocking, so the asyncio server chooses where each
request runs — a request alone in flight whose verb can stop before it
changes anything (a read, an in-memory write) on its event loop under a
budget, everything else on a bounded worker pool (:mod:`repro.net.server`)
— and the protocol layer stays testable without an event loop.
"""

from __future__ import annotations

import json

from repro.errors import NetError, ProtocolError, error_class
from repro.service.commands import (
    COMMANDS,
    SessionState,
    execute_request,
    request_context,
)

__all__ = [
    "SessionState",
    "decode_payload",
    "encode_payload",
    "error_payload",
    "raise_error_payload",
    "request_context",
    "execute_request",
    "COMMANDS",
]


def encode_payload(obj: dict) -> bytes:
    """JSON-encode a payload dict to wire bytes (compact separators)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_payload(data: bytes) -> dict:
    """Decode wire bytes; malformed JSON is a typed protocol error."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# typed errors over the wire


def error_payload(exc: Exception) -> dict:
    """Serialize an exception as a typed error payload."""
    return {"error": type(exc).__name__, "message": str(exc)}


def raise_error_payload(payload: dict) -> None:
    """Re-raise a typed error payload as its original exception class.

    Unknown names degrade to :class:`~repro.errors.NetError` — a newer
    server never crashes an older client with an unmappable type.
    """
    name = payload.get("error", "NetError")
    message = payload.get("message", "server reported an error")
    cls = error_class(name)
    if cls is None:
        raise NetError(f"{name}: {message}")
    raise cls(message)
