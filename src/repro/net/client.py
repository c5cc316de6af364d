"""Asyncio client for the :mod:`repro.net` TCP front end.

:class:`NetClient` speaks the framed wire protocol with full pipelining:
many requests can be outstanding on one connection, each correlated back
to its awaiting coroutine by request id.  Server failures re-raise as the
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


class NetClient:
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
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._decoder: FrameDecoder | None = None
        self._ids = count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._conn_error: Exception | None = None
        self.session_id: int | None = None
        self.server_limits: dict = {}
        self.goodbye: dict | None = None

    # ------------------------------------------------------------------
    # lifecycle

    async def connect(self) -> "NetClient":
        """Open the connection and complete the HELLO/WELCOME handshake."""
        if self._writer is not None:
            raise NetError("client already connected")
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                _CONNECT_TIMEOUT,
            )
        except asyncio.TimeoutError:
            raise ConnectionLost(
                f"connect to {self.host}:{self.port} timed out"
            ) from None
        except OSError as exc:
            raise ConnectionLost(
                f"connect to {self.host}:{self.port} failed: {exc}"
            ) from None
        self._decoder = FrameDecoder()
        self._conn_error = None
        hello_id = next(self._ids)
        self._writer.write(encode_frame(
            wire.T_HELLO, hello_id,
            encode_payload({
                "version": wire.WIRE_VERSION, "client": "repro-net-client",
            }),
        ))
        await self._writer.drain()
        welcome = await asyncio.wait_for(
            self._read_one_frame(), _CONNECT_TIMEOUT
        )
        if welcome.type == wire.T_ERROR:
            payload = decode_payload(welcome.payload)
            await self._shutdown_transport()
            raise_error_payload(payload)  # typed: Overloaded/Draining/...
        if welcome.type != wire.T_WELCOME:
            await self._shutdown_transport()
            raise ProtocolError(
                f"expected welcome, got {welcome.type_name}"
            )
        greeting = decode_payload(welcome.payload)
        self.session_id = greeting.get("session")
        self.server_limits = {
            k: v for k, v in greeting.items()
            if k in ("max_frame_bytes", "max_inflight")
        }
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        return self

    async def _read_one_frame(self):
        """Synchronously pull the next frame (handshake only)."""
        while True:
            frames = []
            data = await self._reader.read(64 * 1024)
            if not data:
                raise ConnectionLost(
                    "server closed the connection during handshake"
                )
            frames = self._decoder.feed(data)
            if frames:
                if len(frames) > 1:  # pragma: no cover - server pipelining
                    raise ProtocolError("unexpected frames before welcome")
                return frames[0]

    async def close(self, *, goodbye: bool = True) -> None:
        """Orderly shutdown: GOODBYE, wait for sign-off, close, clean up.

        With ``goodbye=False`` the socket is just closed (tests use this
        to simulate an impolite client).  Idempotent.
        """
        writer = self._writer
        if writer is None:
            return
        if goodbye and self._conn_error is None:
            try:
                async with self._write_lock:
                    writer.write(
                        encode_frame(wire.T_GOODBYE, next(self._ids), b"")
                    )
                    await writer.drain()
                # The server answers GOODBYE after in-flight work lands;
                # the reader task consumes it and exits on EOF.
                if self._reader_task is not None:
                    await asyncio.wait_for(
                        asyncio.shield(self._reader_task), 5.0
                    )
            except (ReproError, ConnectionError, asyncio.TimeoutError):
                pass
        await self._shutdown_transport()

    async def _shutdown_transport(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
            self._writer = None
            self._reader = None
        self._fail_pending(
            self._conn_error
            or ConnectionLost("connection closed with requests outstanding")
        )

    async def __aenter__(self) -> "NetClient":
        if self._writer is None:
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
        for the round trip).
        """
        if self._writer is None:
            raise ConnectionLost("client is not connected")
        if self._conn_error is not None:
            raise self._conn_error
        request_id = next(self._ids)
        payload = {"cmd": cmd, **args}
        data = encode_frame(wire.T_REQUEST, request_id, encode_payload(payload))
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._pending.pop(request_id, None)
            raise ConnectionLost(f"send failed: {exc}") from None
        try:
            if timeout is not None:
                return await asyncio.wait_for(future, timeout)
            return await future
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise DeadlineExceeded(
                f"client-side timeout ({timeout}s) awaiting {cmd!r} "
                f"response (request {request_id})"
            ) from None

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
    # response demultiplexing

    async def _read_loop(self) -> None:
        reader = self._reader
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    self._conn_error = self._conn_error or ConnectionLost(
                        "server closed the connection"
                    )
                    break
                try:
                    frames = self._decoder.feed(data)
                except (FrameError, ProtocolError) as exc:
                    self._conn_error = exc
                    break
                for frame in frames:
                    self._handle_frame(frame)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError) as exc:
            self._conn_error = ConnectionLost(f"read failed: {exc}")
        finally:
            self._fail_pending(
                self._conn_error or ConnectionLost("connection closed")
            )

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
