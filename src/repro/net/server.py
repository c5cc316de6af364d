"""The asyncio TCP front end: many connections, one database service.

`TcpServer` multiplexes pipelined, length-prefixed requests
(:mod:`repro.net.frame` / :mod:`repro.net.protocol`) from many concurrent
connections onto one thread-safe
:class:`~repro.service.server.DatabaseService`.  The asyncio event loop
owns all connection state (single-threaded, no locks on the bookkeeping).
A read verb alone in flight on a service with an epoch store runs on the
loop itself (the thread hop costs more than the read) and moves to the
pool if it outlives :data:`LOOP_BUDGET`; every other request body runs
on a bounded worker pool sized to the global in-flight cap, so the
blocking database layer never holds the loop past the budget and the
loop never queues unbounded work behind it.

Robustness contract (each clause is drilled by ``tests/test_net_faults``):

- **Backpressure, not buffering.**  Responses are written under a
  per-connection lock with the transport's write-buffer high-water mark
  set to ``write_buffer_cap``; when a slow client's buffer is over the
  cap the read loop *stops reading* (counted in
  ``net.backpressure.pauses``) until the buffer drains, so a client that
  never reads can never balloon server memory — its TCP window fills
  instead.  A client whose buffer does not drain within ``write_timeout``
  is declared dead and aborted, returning its in-flight slots to the
  pool rather than parking them behind an unbounded drain wait.
- **Shedding, not queueing.**  A connection over ``max_conns``, or a
  request over the per-connection / global in-flight caps, is refused
  immediately with a typed :class:`~repro.errors.Overloaded` response
  (``net.sheds``) — the open-loop load generator verifies overload
  degrades into typed sheds, never an unbounded queue.
- **Deadlines propagate.**  A request's ``timeout_ms`` becomes the
  :class:`~repro.service.context.QueryContext` deadline inside the join
  loops; a dead connection cooperatively cancels its in-flight contexts.
- **Faults are connection-scoped.**  Malformed, corrupt, or oversized
  frames earn a typed error frame and a connection close — never a
  process death, never a wedged session.  Sessions release their epoch
  pins on every exit path.
- **Drain is graceful.**  SIGTERM or a ``shutdown`` request stops
  accepting, lets in-flight work finish for ``drain_grace`` seconds,
  cancels stragglers with typed responses, flushes, and closes
  (``net.drain.seconds``).
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import count

from repro.errors import (
    Draining,
    FrameError,
    NetError,
    Overloaded,
    ProtocolError,
    ReproError,
)
from repro.net import frame as wire
from repro.net.frame import Frame, FrameDecoder, encode_frame
from repro.net.protocol import (
    COMMANDS,
    SessionState,
    decode_payload,
    encode_payload,
    error_payload,
    execute_request,
    request_context,
)
from repro.obs.metrics import METRICS
from repro.service.context import OverBudget

__all__ = ["NetServerConfig", "TcpServer"]

#: Seconds a read may hold the event loop before it moves to the pool: no
#: longer than a pool thread holds the GIL from the loop anyway
#: (``sys.getswitchinterval()``, 5 ms by default).
LOOP_BUDGET = 0.002

# `net.requests` and `net.sheds` repeat the per-server `_counters` twins
# (which tests and health read per server) because the end-to-end
# benchmark reads them by name from the process-wide `stats` reply.
_M_REQUESTS = METRICS.counter(
    "net.requests", unit="requests", site="TcpServer._run_request"
)
_M_SHEDS = METRICS.counter(
    "net.sheds", unit="requests", site="TcpServer._dispatch_frame"
)
_H_REQUEST_SECONDS = METRICS.histogram(
    "net.request.seconds", unit="seconds", site="TcpServer._run_request"
)
_H_DRAIN_SECONDS = METRICS.histogram(
    "net.drain.seconds", unit="seconds", site="TcpServer.drain"
)


@dataclass(frozen=True)
class NetServerConfig:
    """Operational knobs for a :class:`TcpServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (tests); the bound port is `.port`
    #: Concurrent connections; excess connects are shed with `Overloaded`.
    max_conns: int = 128
    #: Concurrent executing requests across all connections (also sizes
    #: the worker pool, so nothing queues behind a full pool).
    max_inflight: int = 64
    #: Concurrent executing requests per connection (pipelining budget).
    max_inflight_per_conn: int = 8
    #: Per-frame payload cap (both directions).
    max_frame_bytes: int = wire.MAX_FRAME_BYTES
    #: Write-buffer high-water mark per connection; reads pause above it.
    write_buffer_cap: int = 256 * 1024
    #: Optional SO_SNDBUF for accepted sockets.  Backpressure is only as
    #: tight as kernel buffering allows; shrinking the socket send buffer
    #: makes the app-level cap bind sooner (tests use this to drill
    #: slow-reader behavior deterministically).
    so_sndbuf: int | None = None
    #: Seconds a write may wait for a slow client's buffer to drain
    #: before the connection is declared dead and aborted.  Without this
    #: bound, a client that stops reading would park its in-flight
    #: requests (and their global slots) behind an unbounded drain wait.
    write_timeout: float = 30.0
    #: Seconds a new connection may take to send its HELLO.
    handshake_timeout: float = 5.0
    #: Seconds a connection may sit idle (no frames, nothing in flight).
    idle_timeout: float = 300.0
    #: Seconds drain waits for in-flight requests before cancelling them.
    drain_grace: float = 5.0
    #: Socket read chunk size.
    read_chunk: int = 64 * 1024


class _ReservedSlot:
    """Placeholder registered in ``session.inflight`` at dispatch time,
    before the request's real :class:`QueryContext` exists.

    The in-flight caps are enforced against state mutated *synchronously*
    in ``_dispatch_frame``: a pipelined burst decoded from one read chunk
    dispatches every frame without yielding to the event loop, so a
    reservation taken inside the spawned task would let the whole burst
    bypass the caps and queue in the worker pool.  The placeholder
    remembers a cancellation that lands in the dispatch-to-execute window
    so it can be transferred onto the real context.
    """

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled: str | None = None

    def cancel(self, reason: str) -> None:
        self.cancelled = reason


class _Connection:
    """Loop-side state for one live connection."""

    __slots__ = (
        "reader", "writer", "session", "write_lock", "tasks", "closed",
        "peer",
    )

    def __init__(self, reader, writer, session: SessionState):
        self.reader = reader
        self.writer = writer
        self.session = session
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        self.closed = False
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport quirk
            self.peer = None


class TcpServer:
    """Serve a :class:`~repro.service.server.DatabaseService` over TCP.

    Create, then either ``await start()`` + ``await serve_forever()``
    (production: installs SIGTERM/SIGINT drain handlers) or drive
    ``start``/``drain`` directly from tests.  The server does not own the
    service: the caller closes it after ``drain`` completes.
    """

    def __init__(self, service, config: NetServerConfig | None = None):
        self.service = service
        self.config = config or NetServerConfig()
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conns: dict[int, _Connection] = {}
        # Per-connection decoders live here (not on SessionState) so the
        # read loop can continue from bytes buffered during the handshake.
        self._decoders: dict[int, FrameDecoder] = {}
        self._session_ids = count(1)
        self._inflight = 0
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._drain_task: asyncio.Task | None = None
        self._counters = {
            "connections_total": 0,
            "connections_shed": 0,
            "requests": 0,
            "loop_reads": 0,
            "moved_reads": 0,
            "sheds": 0,
            "errors": 0,
            "frames_rejected": 0,
            "backpressure_pauses": 0,
            "timeouts": 0,
            "drains": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind and start accepting; returns once listening."""
        if self._server is not None:
            raise NetError("server already started")
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-net",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            raise NetError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until SIGTERM/SIGINT (or a ``shutdown`` request) drains.

        Returns after the drain completes; the caller still owns
        ``service.close()``.
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, self.request_drain)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix loop: rely on shutdown command / caller
        try:
            await self._stopped.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    def request_drain(self) -> None:
        """Schedule a drain on the event loop (signal/command safe)."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def drain(self, grace: float | None = None) -> dict:
        """Graceful shutdown: stop accepting, finish or abort in-flight,
        flush, close.  Returns a summary dict; idempotent.

        Sequence: (1) close the listener — new connects are refused by
        the OS; (2) refuse new frames with typed
        :class:`~repro.errors.Draining` responses; (3) wait up to
        ``grace`` for in-flight requests to finish; (4) cooperatively
        cancel stragglers (they answer with typed cancellation errors);
        (5) mark the service draining, send GOODBYE frames, flush every
        write buffer, close every connection.
        """
        if self._draining:
            await self._wait_conns_closed()
            return {"drained": True, "already": True}
        self._draining = True
        self._counters["drains"] += 1
        grace = self.config.drain_grace if grace is None else grace
        started = time.perf_counter()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # (3) grace period for in-flight work.
        deadline = started + grace
        while self._inflight_total() and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        # (4) cancel stragglers at their next cooperative checkpoint.
        aborted = 0
        for conn in list(self._conns.values()):
            if conn.session.inflight:
                aborted += len(conn.session.inflight)
                conn.session.cancel_inflight(
                    "server draining: request aborted after grace period"
                )
        # Cancellation is cooperative; give it one more grace window but
        # never hang the drain on a request that refuses to die.
        cancel_deadline = time.perf_counter() + max(grace, 1.0)
        while self._inflight_total() and time.perf_counter() < cancel_deadline:
            await asyncio.sleep(0.005)
        stragglers = self._inflight_total()
        # (5) no new work can start now; drain the service too, then
        # say goodbye and flush.
        try:
            self.service.begin_drain()
        except Exception:  # pragma: no cover - already closed
            pass
        for conn in list(self._conns.values()):
            await self._send(
                conn,
                wire.T_GOODBYE,
                0,
                {"reason": "draining", "aborted_in_flight": aborted},
            )
            await self._close_connection(conn)
        await self._wait_conns_closed(timeout=max(grace, 1.0))
        if self._executor is not None:
            # A straggler that ignored cancellation must not hang the
            # drain; abandon its worker thread (daemonized by interpreter
            # exit) rather than block forever.
            self._executor.shutdown(wait=(stragglers == 0), cancel_futures=True)
        elapsed = time.perf_counter() - started
        if METRICS.enabled:
            _H_DRAIN_SECONDS.observe(elapsed)
        if self._stopped is not None:
            self._stopped.set()
        return {"drained": True, "aborted": aborted, "seconds": elapsed}

    async def _wait_conns_closed(self, timeout: float = 5.0) -> None:
        deadline = time.perf_counter() + timeout
        while self._conns and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)

    def _inflight_total(self) -> int:
        return self._inflight

    def status(self) -> dict:
        """Loop-side operational snapshot (merged into health/stats)."""
        return {
            "listening": self._server is not None
            and bool(self._server.sockets),
            "draining": self._draining,
            "connections_open": len(self._conns),
            "inflight": self._inflight,
            "limits": {
                "max_conns": self.config.max_conns,
                "max_inflight": self.config.max_inflight,
                "max_inflight_per_conn": self.config.max_inflight_per_conn,
                "max_frame_bytes": self.config.max_frame_bytes,
                "write_buffer_cap": self.config.write_buffer_cap,
            },
            "counters": dict(self._counters),
        }

    # ------------------------------------------------------------------
    # connection handling

    async def _on_connection(self, reader, writer) -> None:
        session = SessionState(next(self._session_ids))
        conn = _Connection(reader, writer, session)
        if self._draining or len(self._conns) >= self.config.max_conns:
            # Shed at the door: typed response, then close.  (A draining
            # listener is already closed; this covers the race window.)
            self._counters["connections_shed"] += 1
            exc = (
                Draining("server is draining; connection refused")
                if self._draining
                else Overloaded(
                    f"connection limit reached "
                    f"({len(self._conns)}/{self.config.max_conns})"
                )
            )
            await self._send(conn, wire.T_ERROR, 0, error_payload(exc))
            await self._close_connection(conn)
            return
        self._conns[session.session_id] = conn
        self._counters["connections_total"] += 1
        try:
            writer.transport.set_write_buffer_limits(
                high=self.config.write_buffer_cap,
                low=self.config.write_buffer_cap // 4,
            )
            if self.config.so_sndbuf is not None:
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF,
                        self.config.so_sndbuf,
                    )
            if await self._handshake(conn):
                await self._read_loop(conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer died; cleanup below is the contract
        finally:
            await self._teardown(conn)

    async def _handshake(self, conn: _Connection) -> bool:
        """Require a HELLO within ``handshake_timeout``; reply WELCOME."""
        decoder = FrameDecoder(max_frame_bytes=self.config.max_frame_bytes)
        deadline = time.monotonic() + self.config.handshake_timeout
        hello: Frame | None = None
        leftover: list[Frame] = []
        while hello is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._counters["timeouts"] += 1
                return False
            try:
                data = await asyncio.wait_for(
                    conn.reader.read(self.config.read_chunk), remaining
                )
            except asyncio.TimeoutError:
                self._counters["timeouts"] += 1
                return False
            if not data:
                return False  # EOF before HELLO
            try:
                frames = decoder.feed(data)
            except (FrameError, ProtocolError) as exc:
                await self._reject_stream(conn, exc)
                return False
            if frames:
                hello, leftover = frames[0], frames[1:]
        if hello.type != wire.T_HELLO:
            await self._reject_stream(
                conn,
                ProtocolError(
                    f"expected hello, got {hello.type_name} "
                    "(handshake violation)"
                ),
            )
            return False
        try:
            greeting = decode_payload(hello.payload) if hello.payload else {}
        except ProtocolError as exc:
            await self._reject_stream(conn, exc)
            return False
        peer_version = greeting.get("version", wire.WIRE_VERSION)
        if peer_version != wire.WIRE_VERSION:
            await self._reject_stream(
                conn,
                ProtocolError(
                    f"unsupported wire version {peer_version} "
                    f"(speaking {wire.WIRE_VERSION})"
                ),
            )
            return False
        await self._send(
            conn,
            wire.T_WELCOME,
            hello.request_id,
            {
                "server": "repro",
                "version": wire.WIRE_VERSION,
                "session": conn.session.session_id,
                "max_frame_bytes": self.config.max_frame_bytes,
                "max_inflight": self.config.max_inflight_per_conn,
            },
        )
        # Frames pipelined behind the HELLO are valid immediately.
        for frame in leftover:
            if not await self._dispatch_frame(conn, frame):
                return False
        self._decoders[conn.session.session_id] = decoder
        return True

    async def _read_loop(self, conn: _Connection) -> None:
        decoder = self._decoders[conn.session.session_id]
        cap = self.config.write_buffer_cap
        while not conn.closed:
            # Backpressure: a slow client whose responses are piling up
            # past the cap pauses its own request intake.
            if conn.writer.transport.get_write_buffer_size() > cap:
                self._counters["backpressure_pauses"] += 1
                async with conn.write_lock:
                    if not await self._drain_writer(conn):
                        return  # client never read; connection aborted
                continue
            try:
                data = await asyncio.wait_for(
                    conn.reader.read(self.config.read_chunk),
                    self.config.idle_timeout,
                )
            except asyncio.TimeoutError:
                if conn.session.inflight:
                    continue  # not idle: work pending for this client
                self._counters["timeouts"] += 1
                stalled = decoder.pending
                await self._send(
                    conn, wire.T_GOODBYE, 0,
                    {
                        "reason": "idle timeout"
                        + (" mid-frame" if stalled else ""),
                        "pending_bytes": stalled,
                    },
                )
                return
            if not data:
                return  # EOF: clean close (or half-close; writes flushed in teardown)
            try:
                frames = decoder.feed(data)
            except (FrameError, ProtocolError) as exc:
                await self._reject_stream(conn, exc)
                return
            for frame in frames:
                if not await self._dispatch_frame(conn, frame):
                    return

    async def _reject_stream(self, conn: _Connection, exc: Exception) -> None:
        """A framing/protocol defect: typed error frame, then close.

        Connection-fatal (stream sync is lost) but never process-fatal;
        counted so an operator sees malformed-frame storms in ``stats``.
        """
        self._counters["frames_rejected"] += 1
        await self._send(conn, wire.T_ERROR, 0, error_payload(exc))

    async def _dispatch_frame(self, conn: _Connection, frame: Frame) -> bool:
        """Handle one decoded frame; False ends the connection."""
        if frame.type == wire.T_GOODBYE:
            # Client sign-off: let in-flight work answer, then close.
            while conn.session.inflight:
                await asyncio.sleep(0.005)
            await self._send(conn, wire.T_GOODBYE, frame.request_id, {})
            return False
        if frame.type != wire.T_REQUEST:
            await self._reject_stream(
                conn,
                ProtocolError(
                    f"unexpected {frame.type_name} frame after handshake"
                ),
            )
            return False
        if self._draining:
            await self._send(
                conn, wire.T_ERROR, frame.request_id,
                error_payload(Draining("server is draining; request refused")),
            )
            return True
        if frame.request_id in conn.session.inflight:
            # Overwriting the running request's entry would undercount the
            # per-connection cap and orphan its cancellation.
            await self._send(conn, wire.T_ERROR, frame.request_id, error_payload(
                ProtocolError(f"request id {frame.request_id} is already in flight")
            ))
            return True
        if (
            len(conn.session.inflight) >= self.config.max_inflight_per_conn
            or self._inflight >= self.config.max_inflight
        ):
            # Shed, never queue: the caps bound worker-pool depth exactly.
            self._counters["sheds"] += 1
            if METRICS.enabled:
                _M_SHEDS.inc()
            scope = (
                "connection"
                if len(conn.session.inflight)
                >= self.config.max_inflight_per_conn
                else "server"
            )
            await self._send(
                conn, wire.T_ERROR, frame.request_id,
                error_payload(Overloaded(
                    f"{scope} in-flight limit reached; retry with backoff"
                )),
            )
            return True
        # Reserve the slots *now*, before yielding: every frame of a
        # pipelined burst is dispatched from one read chunk without the
        # spawned tasks getting a chance to run, so counting in-flight
        # inside _run_request would let the burst bypass both caps.
        # _run_request's finally releases the reservation on every path.
        conn.session.inflight[frame.request_id] = _ReservedSlot()
        self._inflight += 1
        task = asyncio.get_running_loop().create_task(
            self._run_request(conn, frame)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)
        return True

    def _runs_on_loop(self, cmd) -> bool:
        """A read verb alone in flight (it waits for no admission ticket)
        on a service whose reads pin in-process buffers (a sharded read
        waits on worker pipes for as long as its deadline allows)."""
        verb = COMMANDS.get(cmd) if isinstance(cmd, str) else None
        return (self._inflight == 1 and getattr(verb, "kind", None) == "read"
                and self.service.has_epoch_store)

    async def _run_request(self, conn: _Connection, frame: Frame) -> None:
        """Decode, execute (loop or worker pool), respond; typed end to end.

        The in-flight slots were reserved synchronously by
        ``_dispatch_frame``; the ``finally`` here is the single release
        point for every path through the request.
        """
        started = time.perf_counter()
        self._counters["requests"] += 1
        if METRICS.enabled:
            _M_REQUESTS.inc()
        request_id = frame.request_id
        session = conn.session
        try:
            try:
                request = decode_payload(frame.payload)
            except ProtocolError as exc:
                await self._send(
                    conn, wire.T_ERROR, request_id, error_payload(exc)
                )
                return
            if request.get("cmd") == "shutdown":
                # Operator drain over the wire: acknowledge, then drain
                # in a separate task (this response must still flush).
                await self._send(
                    conn, wire.T_RESPONSE, request_id, {"draining": True}
                )
                self.request_drain()
                return
            try:
                ctx = request_context(self.service, request)
            except ProtocolError as exc:
                await self._send(
                    conn, wire.T_ERROR, request_id, error_payload(exc)
                )
                return
            reserved = session.inflight.get(request_id)
            if isinstance(reserved, _ReservedSlot) and reserved.cancelled:
                # Cancelled (connection death, drain) before we got here.
                ctx.cancel(reserved.cancelled)
            session.inflight[request_id] = ctx
            result = None
            if self._runs_on_loop(request.get("cmd")):
                try:
                    result = execute_request(
                        self.service, session, request, ctx.attempt(LOOP_BUDGET)
                    )
                except OverBudget:
                    self._counters["moved_reads"] += 1
                else:
                    self._counters["loop_reads"] += 1
            if result is None:
                result = await asyncio.get_running_loop().run_in_executor(
                    self._executor,
                    execute_request,
                    self.service, session, request, ctx,
                )
            if request.get("cmd") in ("health", "stats"):
                result = dict(result)
                result["net"] = self.status()
            await self._send(conn, wire.T_RESPONSE, request_id, result)
        except ReproError as exc:
            self._counters["errors"] += 1
            await self._send(
                conn, wire.T_ERROR, request_id, error_payload(exc)
            )
        except Exception as exc:  # never let a bug kill the handler
            self._counters["errors"] += 1
            await self._send(
                conn, wire.T_ERROR, request_id,
                error_payload(NetError(
                    f"internal error: {type(exc).__name__}: {exc}"
                )),
            )
        finally:
            session.inflight.pop(request_id, None)
            self._inflight -= 1
            if METRICS.enabled:
                _H_REQUEST_SECONDS.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    # writes & teardown

    async def _drain_writer(self, conn: _Connection) -> bool:
        """Wait (bounded) for the connection's write buffer to drain.

        A client that stops reading must not park the waiter forever —
        the read loop's idle timeout cannot fire while a write holds the
        connection's write lock, so an unbounded drain would let a few
        slow readers pin their in-flight slots and starve
        ``max_inflight`` globally.  On timeout the connection is declared
        dead and aborted (no lingering FIN handshake against a full
        buffer); returns ``False`` so the caller stops using it.
        """
        try:
            await asyncio.wait_for(conn.writer.drain(), self.config.write_timeout)
            return True
        except asyncio.TimeoutError:
            self._counters["timeouts"] += 1
            conn.closed = True
            try:
                conn.writer.transport.abort()
            except Exception:  # pragma: no cover - transport already gone
                pass
            return False
        except (ConnectionError, RuntimeError):
            conn.closed = True
            return False

    async def _send(
        self, conn: _Connection, type_: int, request_id: int, payload: dict
    ) -> None:
        """Write one frame; slow-client safe, dead-connection tolerant."""
        if conn.closed:
            return
        try:
            data = encode_frame(
                type_, request_id, encode_payload(payload),
                max_frame_bytes=self.config.max_frame_bytes,
            )
        except ReproError:
            # Response bigger than the frame cap: degrade to a typed
            # error the client *can* receive.
            data = encode_frame(
                type_ if type_ == wire.T_ERROR else wire.T_ERROR,
                request_id,
                encode_payload(error_payload(NetError(
                    "response exceeded the frame cap; narrow the request"
                ))),
                max_frame_bytes=self.config.max_frame_bytes,
            )
        async with conn.write_lock:
            if conn.closed:
                return
            try:
                conn.writer.write(data)
                if (
                    conn.writer.transport.get_write_buffer_size()
                    > self.config.write_buffer_cap
                ):
                    # The client is consuming slower than we produce:
                    # this write waits (holding the connection's write
                    # lock, which also parks its request intake) until
                    # the buffer drains below the low-water mark — or
                    # until write_timeout declares the client dead.
                    self._counters["backpressure_pauses"] += 1
                    await self._drain_writer(conn)
            except (ConnectionError, RuntimeError):
                conn.closed = True  # reset mid-write; teardown reaps it

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            async with conn.write_lock:
                try:
                    # Best-effort flush, bounded: a closing connection
                    # must never stall shutdown behind a reader that
                    # stopped reading.
                    await asyncio.wait_for(
                        conn.writer.drain(),
                        min(self.config.write_timeout, 5.0),
                    )
                except (
                    ConnectionError, RuntimeError, asyncio.TimeoutError,
                ):
                    pass
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
        except Exception:  # pragma: no cover - transport already gone
            pass

    async def _teardown(self, conn: _Connection) -> None:
        """Every exit path funnels here: cancel, await, release, forget.

        This is the no-leak guarantee the fault drills assert — a dead
        connection leaves no running task, no epoch pin, no session entry,
        and every acked write it produced is already durable.
        """
        conn.session.cancel_inflight("connection lost; query cancelled")
        if conn.tasks:
            await asyncio.gather(*list(conn.tasks), return_exceptions=True)
        await self._close_connection(conn)
        conn.session.release()
        self._conns.pop(conn.session.session_id, None)
        self._decoders.pop(conn.session.session_id, None)
