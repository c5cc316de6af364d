"""Asyncio client for the :mod:`repro.net` TCP front end.

:class:`NetClient` speaks the framed wire protocol with full pipelining:
many requests can be outstanding on one connection, each correlated back
to its awaiting coroutine by request id.  It is an
:class:`asyncio.Protocol`: ``data_received`` resolves each reply's future
as its frame completes, so a request costs a write and an await — no
task, lock or timeout of its own.  Server failures re-raise as the
*same* typed :mod:`repro.errors` exception the server caught
(:func:`~repro.net.protocol.raise_error_payload`), so a caller handles
:class:`~repro.errors.Overloaded` from a remote service exactly like a
local :class:`~repro.errors.Busy`.  The client never retries: a write
whose ack was lost may already be durable, and replaying it is a semantic
decision the caller must make.
"""

from __future__ import annotations

import asyncio
from itertools import count

from repro.errors import (
    ConnectionLost,
    DeadlineExceeded,
    FrameError,
    NetError,
    ProtocolError,
    ReproError,
)
from repro.net import frame as wire
from repro.net.frame import FrameDecoder, encode_frame
from repro.net.protocol import (
    COMMANDS,
    decode_payload,
    encode_payload,
    raise_error_payload,
)

__all__ = ["NetClient", "connect"]

#: Seconds the TCP connect and the HELLO/WELCOME handshake may each take.
_CONNECT_TIMEOUT = 5.0


class NetClient(asyncio.Protocol):
    """One pipelined connection to a :class:`~repro.net.server.TcpServer`.

    Usage::

        async with await connect("127.0.0.1", port) as client:
            await client.request("insert", fragment="<a>hi</a>")
            result = await client.request("query", expr="//a")

    Not task-safe for ``connect``/``close``, but ``request`` may be
    called concurrently from many tasks (that is the point of
    pipelining).
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._transport: asyncio.Transport | None = None
        self._decoder: FrameDecoder | None = None
        self._ids = count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._conn_error: Exception | None = None
        # Per connection: the WELCOME, the end of the transport, and —
        # while the transport is paused — the moment it can take more.
        self._welcome: asyncio.Future | None = None
        self._lost: asyncio.Future | None = None
        self._writable: asyncio.Future | None = None
        self.session_id: int | None = None
        self.server_limits: dict = {}
        self.goodbye: dict | None = None

    # ------------------------------------------------------------------
    # lifecycle

    async def connect(self) -> "NetClient":
        """Open the connection and complete the HELLO/WELCOME handshake.

        Any failure closes the socket and leaves the client unconnected;
        it raises typed: :class:`~repro.errors.ConnectionLost` for a
        refused, closed or silent server, else what the server sent.
        """
        if self._transport is not None:
            raise NetError("client already connected")
        loop = asyncio.get_running_loop()
        self._decoder = FrameDecoder()
        self._conn_error = None
        self._welcome = loop.create_future()
        self._lost = loop.create_future()
        where = f"{self.host}:{self.port}"
        try:
            await asyncio.wait_for(
                loop.create_connection(lambda: self, self.host, self.port),
                _CONNECT_TIMEOUT,
            )
            self._transport.write(encode_frame(
                wire.T_HELLO, next(self._ids),
                encode_payload({
                    "version": wire.WIRE_VERSION, "client": "repro-net-client",
                }),
            ))
            greeting = await asyncio.wait_for(self._welcome, _CONNECT_TIMEOUT)
        except asyncio.TimeoutError:
            await self._drop()
            raise ConnectionLost(f"connect to {where} timed out") from None
        except ReproError:
            await self._drop()
            raise
        except OSError as exc:
            await self._drop()
            raise ConnectionLost(f"connect to {where} failed: {exc}") from None
        self.session_id = greeting.get("session")
        self.server_limits = {
            k: v for k, v in greeting.items()
            if k in ("max_frame_bytes", "max_inflight")
        }
        return self

    async def close(self, *, goodbye: bool = True) -> None:
        """Orderly shutdown: GOODBYE, wait for sign-off, close, clean up.

        With ``goodbye=False`` the socket is just closed (tests use this
        to simulate an impolite client).  Idempotent.
        """
        if self._transport is None:
            return
        if goodbye and self._conn_error is None:
            self._transport.write(
                encode_frame(wire.T_GOODBYE, next(self._ids), b"")
            )
            # The server answers GOODBYE after in-flight work lands, then
            # closes the connection.
            await asyncio.wait([self._lost], timeout=5.0)
        await self._drop()

    async def _drop(self) -> None:
        """Close the transport now, fail what is pending, and wait until
        it is gone — so a later ``connect`` starts clean."""
        transport, self._transport = self._transport, None
        if transport is None:
            return
        self._conn_error = self._conn_error or ConnectionLost(
            "connection closed with requests outstanding"
        )
        transport.abort()
        await self._lost

    async def __aenter__(self) -> "NetClient":
        if self._transport is None:
            await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close(goodbye=exc_info[0] is None)

    # ------------------------------------------------------------------
    # requests

    async def request(
        self, cmd: str, *, timeout: float | None = None, **args
    ) -> dict:
        """Send one request and await its typed response.

        ``timeout`` is the *client-side* wall-clock budget; pass
        ``timeout_ms`` in ``args`` to bound the server-side execution too
        (the two compose: server deadline for the work, client deadline
        for the round trip).  A reply that arrives after the client-side
        deadline is dropped.
        """
        if self._transport is None:
            raise ConnectionLost("client is not connected")
        if self._conn_error is not None:
            raise self._conn_error
        request_id = next(self._ids)
        payload = {"cmd": cmd, **args}
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._transport.write(
            encode_frame(wire.T_REQUEST, request_id, encode_payload(payload))
        )
        timer = None
        if timeout is not None:
            timer = asyncio.get_running_loop().call_later(
                timeout, self._expire, request_id, cmd, timeout
            )
        try:
            if self._writable is not None:
                await asyncio.shield(self._writable)
            return await future
        finally:
            if timer is not None:
                timer.cancel()

    def _expire(self, request_id: int, cmd: str, timeout: float) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_exception(DeadlineExceeded(
                f"client-side timeout ({timeout}s) awaiting {cmd!r} "
                f"response (request {request_id})"
            ))

    def __getattr__(self, verb: str):
        """Every table verb as a method (the dict protocol is the real
        API): ``await client.join("a", "b", axis="child")``.  Positional
        values fill the verb's required fields, then its optional ones, in
        table order; a verb only a newer server knows goes through
        :meth:`request`.  Like any write, a lost ack leaves a write (a
        whole ``batch``) possibly durable — retry only when re-applying
        is acceptable.
        """
        entry = COMMANDS.get(verb)
        if entry is None:
            raise AttributeError(verb)
        ordered = sorted(entry.fields, key=lambda field: not field.required)
        names = [field.name for field in ordered]
        return lambda *values, **fields: self.request(
            verb, **dict(zip(names, values)), **fields
        )

    # ------------------------------------------------------------------
    # asyncio callbacks: response demultiplexing

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            frames = self._decoder.feed(data)
        except (FrameError, ProtocolError) as exc:
            self._conn_error = exc
            self._transport.abort()
            return
        for frame in frames:
            if self._welcome.done():
                self._handle_frame(frame)
            else:
                self._greeted(frame)

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if not writable.done():
            writable.set_result(None)

    def connection_lost(self, exc) -> None:
        error = self._conn_error = self._conn_error or ConnectionLost(
            f"connection lost: {exc}" if exc else "server closed the connection"
        )
        if not self._welcome.done():
            self._welcome.set_exception(error)
        if self._writable is not None:
            self.resume_writing()
        self._fail_pending(error)
        if not self._lost.done():
            self._lost.set_result(None)

    def _greeted(self, frame) -> None:
        """The handshake's answer: WELCOME, or a typed refusal."""
        try:
            if frame.type == wire.T_ERROR:
                raise_error_payload(decode_payload(frame.payload))
            if frame.type != wire.T_WELCOME:
                raise ProtocolError(f"expected welcome, got {frame.type_name}")
            self._welcome.set_result(decode_payload(frame.payload))
        except ReproError as exc:  # Overloaded/Draining/...
            self._welcome.set_exception(exc)

    def _handle_frame(self, frame) -> None:
        if frame.type == wire.T_GOODBYE:
            # Server-initiated drain or sign-off acknowledgement.  Any
            # still-pending request will be failed by the EOF that
            # follows (the server answers in-flight work *before* the
            # goodbye, so normally nothing is pending here).
            try:
                self.goodbye = (
                    decode_payload(frame.payload) if frame.payload else {}
                )
            except ProtocolError:
                self.goodbye = {}
            return
        future = self._pending.pop(frame.request_id, None)
        if frame.type == wire.T_RESPONSE:
            if future is not None and not future.done():
                try:
                    future.set_result(decode_payload(frame.payload))
                except ProtocolError as exc:
                    future.set_exception(exc)
            return
        if frame.type == wire.T_ERROR:
            try:
                payload = decode_payload(frame.payload)
            except ProtocolError:
                payload = {"error": "NetError", "message": "garbled error"}
            try:
                raise_error_payload(payload)
            except ReproError as exc:
                if frame.request_id == 0:
                    # Connection-scoped error (bad frame, shed at the
                    # door): poisons the whole connection.
                    self._conn_error = exc
                    self._fail_pending(exc)
                elif future is not None and not future.done():
                    future.set_exception(exc)
            return
        # Unknown frame type from a newer server: fail just this request.
        if future is not None and not future.done():
            future.set_exception(ProtocolError(
                f"unexpected {frame.type_name} frame in response stream"
            ))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)


async def connect(host: str, port: int) -> NetClient:
    """Dial a server and return a connected :class:`NetClient`."""
    return await NetClient(host, port).connect()
