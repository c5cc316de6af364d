"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch a single class to handle any library failure.  More specific
subclasses separate the three broad failure domains: malformed XML input,
invalid update requests against the super document, and misuse of the index
structures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "XMLSyntaxError",
    "UpdateError",
    "SegmentNotFoundError",
    "InvalidSegmentError",
    "IndexError_",
    "KeyNotFoundError",
    "QueryError",
    "PathSyntaxError",
    "LabelingError",
    "DurabilityError",
    "JournalError",
    "CheckpointError",
    "RecoveryError",
    "ServiceError",
    "QueryCancelled",
    "DeadlineExceeded",
    "ResourceExhausted",
    "Busy",
    "ServiceClosed",
    "ShardError",
    "WorkerLost",
    "Draining",
    "NetError",
    "ProtocolError",
    "FrameError",
    "FrameTooLarge",
    "FrameCorrupt",
    "Overloaded",
    "ConnectionLost",
    "error_class",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class XMLSyntaxError(ReproError):
    """Raised when XML text cannot be tokenized or parsed.

    Carries the character ``offset`` at which the problem was detected so
    callers working with the text-editing model of the paper can point at the
    offending location in the super document.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class UpdateError(ReproError):
    """Raised when an insert/remove request against the super document is invalid."""


class SegmentNotFoundError(UpdateError):
    """Raised when a segment id is not present in the SB-tree."""

    def __init__(self, sid: int):
        super().__init__(f"segment {sid} not found in the update log")
        self.sid = sid


class InvalidSegmentError(UpdateError):
    """Raised when a segment's (global position, length) pair is inconsistent.

    Examples: negative length, a position outside the super document, or an
    insertion that would split an existing segment's boundary tags.
    """


class IndexError_(ReproError):
    """Base class for element-index and B+-tree misuse errors.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class KeyNotFoundError(IndexError_):
    """Raised when a key expected to be present in a B+-tree is missing."""

    def __init__(self, key: object):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class QueryError(ReproError):
    """Raised when a structural-join query is malformed or unsupported."""


class PathSyntaxError(QueryError):
    """Raised when a path/twig expression cannot be parsed.

    Unlike the bare :class:`QueryError` it always names the offending
    ``token`` and its character ``position`` in the original expression,
    so callers (CLI, shell, TCP protocol) can point at the exact spot —
    and so "unsupported in this surface, supported in that one" reads as
    a precise diagnostic instead of a generic failure.
    """

    def __init__(
        self,
        message: str,
        *,
        token: str | None = None,
        position: int | None = None,
    ):
        detail = message
        if token is not None:
            detail = f"{detail}: {token!r}"
        if position is not None:
            detail = f"{detail} at position {position}"
        super().__init__(detail)
        self.token = token
        self.position = position


class LabelingError(ReproError):
    """Raised by labeling schemes (interval, prime) on invalid operations."""


class DurabilityError(ReproError):
    """Base class for errors in the durability subsystem (journal/checkpoint)."""


class JournalError(DurabilityError):
    """Raised when the write-ahead journal cannot be written or is unusable.

    A :class:`~repro.durability.database.DurableDatabase` whose journal
    append failed refuses further updates with this error: the in-memory
    state can no longer be proven durable, so the caller must reopen the
    directory (running recovery) to continue.
    """


class CheckpointError(DurabilityError):
    """Raised when a checkpoint file is missing required structure or fails
    its embedded checksum."""


class RecoveryError(DurabilityError):
    """Raised when crash recovery cannot reconstruct a consistent database.

    A torn *final* journal record is not a recovery error (it is the
    expected signature of a crash mid-append and is silently discarded);
    this error covers genuinely unrecoverable states such as a corrupt
    checkpoint or a journal record whose operation type is unknown.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the concurrent access layer
    (:mod:`repro.service`)."""


class QueryCancelled(ServiceError):
    """Base class for cooperative query aborts (deadline / resource limits).

    Raised only at cancellation checkpoints inside read-only query code, so
    an aborted query never leaves partial mutations behind — the next query
    against the same snapshot succeeds.
    """


class DeadlineExceeded(QueryCancelled):
    """Raised when a query runs past its :class:`QueryContext` deadline."""


class ResourceExhausted(QueryCancelled):
    """Raised when a query exceeds a resource budget (result rows, stack
    depth) configured on its :class:`QueryContext`."""


class Busy(ServiceError):
    """Transient admission-control rejection: the request class is at its
    concurrency/queue limit.  Safe to retry after backing off."""


class ServiceClosed(ServiceError):
    """Raised when a request reaches a service that has been shut down."""


class ShardError(ServiceError):
    """Base class for errors raised by the sharded execution layer
    (:mod:`repro.shard`)."""


class WorkerLost(ShardError):
    """Raised when a shard worker process dies (or its pipe breaks) while a
    query is in flight.  The query fails fast with this typed error; the
    executor marks the worker dead and later queries run degraded
    (in-process on the coordinator's authoritative shard) until respawn."""


class Draining(ServiceError):
    """Raised when a request reaches a service that is draining for
    shutdown: in-flight work is being finished or aborted, no new work is
    accepted.  Unlike :class:`Busy` this is not transient on this endpoint
    — clients should reconnect elsewhere (or wait for a restart)."""


class NetError(ServiceError):
    """Base class for errors raised by the network front end
    (:mod:`repro.net`)."""


class ProtocolError(NetError):
    """Raised on a wire-protocol violation that is not a framing defect:
    unsupported protocol version, a message type that is invalid in the
    current connection state (e.g. a request before the handshake), or a
    semantically malformed request payload."""


class FrameError(ProtocolError):
    """Base class for framing defects (the byte stream cannot be sliced
    into frames).  Framing errors are fatal to the *connection* — once the
    stream loses sync there is no way to find the next frame boundary —
    but never to the server process."""


class FrameTooLarge(FrameError):
    """Raised when a frame header declares a payload longer than the
    configured cap; the frame is rejected before any payload is buffered,
    so an adversarial length field cannot balloon server memory."""


class FrameCorrupt(FrameError):
    """Raised when frame bytes fail validation: bad magic, or a payload
    whose CRC32 does not match the header checksum."""


class Overloaded(NetError):
    """Typed load-shed response: the server is at a connection or
    in-flight cap and refuses the request *immediately* instead of
    queueing it unboundedly.  Safe to retry with backoff."""


class ConnectionLost(NetError):
    """Raised by the client library when the transport drops with
    requests still in flight; each unanswered request fails with this
    error.  Whether a lost write actually committed is unknown to the
    client — exactly-once is the caller's concern (idempotent ops are
    safe to retry)."""


def error_class(name: str) -> type | None:
    """The :class:`ReproError` subclass called ``name``, or ``None``.

    How a typed error is rebuilt on the far side of a boundary that
    carries only its class name and message (the TCP wire, a shard
    worker's pipe); the caller decides what an unknown name degrades to.
    """
    cls = globals().get(name)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls
    return None
