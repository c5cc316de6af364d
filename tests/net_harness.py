"""Fault-injection helpers for drilling the TCP front end.

Two tools, both dependency-free:

- :class:`ServerHarness` runs a :class:`~repro.net.server.TcpServer` on
  its own event loop in a daemon thread, so synchronous tests (and the
  blocking :class:`FaultyClient`) can talk to a live server without
  being async themselves.  ``submit`` runs any coroutine — including
  :class:`~repro.net.client.NetClient` calls — on the server's loop.
- :class:`FaultyClient` is a raw blocking socket that speaks just enough
  of the wire protocol to then *violate* it on purpose: truncated
  frames, corrupted bytes, half-closes, hard resets, stalls — every
  connection fault the drill matrix needs, at any byte boundary.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time

from repro.errors import ConnectionLost, NetError, ProtocolError
from repro.net import frame as wire
from repro.net.frame import Frame, FrameDecoder, encode_frame
from repro.net.protocol import (
    decode_payload,
    encode_payload,
    raise_error_payload,
)
from repro.net.server import NetServerConfig, TcpServer


class ServerHarness:
    """A live :class:`TcpServer` on a background event loop.

    Usage::

        with ServerHarness(service) as harness:
            client = FaultyClient("127.0.0.1", harness.port)
            ...
            harness.submit(some_async_client_coroutine())

    ``stop()`` drains the server; the caller still owns
    ``service.close()``.
    """

    def __init__(self, service, config: NetServerConfig | None = None):
        self.service = service
        self.config = config or NetServerConfig()
        self.server: TcpServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: Exception | None = None

    def start(self) -> "ServerHarness":
        if self._thread is not None:
            raise NetError("harness already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-net-harness", daemon=True
        )
        self._thread.start()
        if not self._started.wait(10.0):
            raise NetError("harness failed to start within 10s")
        if self._start_error is not None:
            raise self._start_error
        return self

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.server = TcpServer(self.service, self.config)
        try:
            self.loop.run_until_complete(self.server.start())
        except Exception as exc:  # pragma: no cover - bind failure
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def submit(self, coro, timeout: float = 30.0):
        """Run a coroutine on the server's loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def drain(self, grace: float | None = None) -> dict:
        return self.submit(self.server.drain(grace), timeout=60.0)

    def status(self) -> dict:
        return self.submit(self._status())

    async def _status(self) -> dict:
        return self.server.status()

    def stop(self) -> None:
        """Drain, stop the loop, join the thread.  Idempotent."""
        if self._thread is None:
            return
        try:
            if self.server is not None and not self.status()["draining"]:
                self.drain()
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(10.0)
            self._thread = None

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class FaultyClient:
    """A blocking wire-protocol client built to misbehave.

    Every method maps to one drill from the fault matrix; the honest
    path (``request``) exists so a drill can interleave good and bad
    traffic on the same connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        handshake: bool = True,
        timeout: float = 10.0,
        rcvbuf: int | None = None,
    ):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            # Shrink the receive window *before* connecting, so a
            # slow-reader drill fills kernel buffers in kilobytes, not
            # megabytes.
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect((host, port))
        except OSError:
            self.sock.close()
            raise
        self.decoder = FrameDecoder()
        self._ids = iter(range(1, 1 << 30))
        self._frames: list[Frame] = []
        self.welcome: dict | None = None
        if handshake:
            self.send_frame(
                wire.T_HELLO, next(self._ids),
                encode_payload({"version": wire.WIRE_VERSION,
                                "client": "faulty"}),
            )
            reply = self.recv_frame()
            if reply.type == wire.T_ERROR:
                raise_error_payload(decode_payload(reply.payload))
            if reply.type != wire.T_WELCOME:
                raise ProtocolError(f"expected welcome, got {reply.type_name}")
            self.welcome = decode_payload(reply.payload)

    # -- honest traffic -------------------------------------------------

    def send_frame(self, type_: int, request_id: int, payload: bytes) -> None:
        self.send_bytes(encode_frame(type_, request_id, payload))

    def send_request(self, cmd: str, **args) -> int:
        """Fire one request frame; returns its id (no waiting)."""
        request_id = next(self._ids)
        self.send_frame(
            wire.T_REQUEST, request_id,
            encode_payload({"cmd": cmd, **args}),
        )
        return request_id

    def recv_frame(self) -> Frame:
        """Block for the next frame (typed errors on stream problems)."""
        while not self._frames:
            try:
                data = self.sock.recv(64 * 1024)
            except socket.timeout:
                raise ConnectionLost("timed out waiting for a frame") from None
            except OSError as exc:
                raise ConnectionLost(f"recv failed: {exc}") from None
            if not data:
                raise ConnectionLost("server closed the connection")
            self._frames.extend(self.decoder.feed(data))
        return self._frames.pop(0)

    def request(self, cmd: str, **args) -> dict:
        """One request, one response; typed errors re-raise."""
        request_id = self.send_request(cmd, **args)
        while True:
            reply = self.recv_frame()
            if reply.request_id != request_id:
                continue  # a pipelined sibling's answer; drills skip it
            if reply.type == wire.T_ERROR:
                raise_error_payload(decode_payload(reply.payload))
            return decode_payload(reply.payload)

    # -- faults ---------------------------------------------------------

    def send_bytes(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send_truncated(
        self, type_: int, request_id: int, payload: bytes, cut: int
    ) -> None:
        """Send only the first ``cut`` bytes of a valid frame."""
        self.send_bytes(encode_frame(type_, request_id, payload)[:cut])

    def send_corrupted(
        self, type_: int, request_id: int, payload: bytes, flip: int
    ) -> None:
        """Send a valid frame with one byte XOR-flipped at ``flip``."""
        data = bytearray(encode_frame(type_, request_id, payload))
        data[flip % len(data)] ^= 0xFF
        self.send_bytes(bytes(data))

    def send_oversized_header(self, declared: int = 1 << 31) -> None:
        """Declare an absurd payload length (no payload follows)."""
        self.send_bytes(wire.HEADER.pack(
            wire.MAGIC, wire.WIRE_VERSION, wire.T_REQUEST,
            next(self._ids), declared & 0xFFFFFFFF, 0,
        ))

    def send_garbage(self, data: bytes = b"\x00" * 64) -> None:
        """Bytes that are not a frame at all."""
        self.send_bytes(data)

    def half_close(self) -> None:
        """Shut down the write side only (FIN); keep reading."""
        self.sock.shutdown(socket.SHUT_WR)

    def reset(self) -> None:
        """Hard RST: SO_LINGER 0 then close — the rudest disconnect."""
        self.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
        self.sock.close()

    def stall(self, seconds: float) -> None:
        """Go silent mid-conversation (tests idle/stall handling)."""
        time.sleep(seconds)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FaultyClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
