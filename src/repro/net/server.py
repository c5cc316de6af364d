"""The asyncio TCP front end: many connections, one database service.

`TcpServer` multiplexes pipelined, length-prefixed requests
(:mod:`repro.net.frame` / :mod:`repro.net.protocol`) from many concurrent
connections onto one thread-safe
:class:`~repro.service.server.DatabaseService`.  Each connection is an
:class:`asyncio.Protocol`: the event loop calls it back with bytes, and it
dispatches every frame synchronously.  The loop owns all connection state
(single-threaded, no locks on the bookkeeping, no task per request).
A request alone in flight runs on the loop itself (the thread hop costs
more than the request) when its verb can stop before it changes anything
and waits on no I/O: a read on a service with an epoch store, a write on
an in-memory primary, and ``ping``/``pin``/``unpin``.  A read moves to the
pool at its first checkpoint past :data:`LOOP_BUDGET`; a write has one
checkpoint, after its parse and before its commit, and moves there if the
budget is spent, or earlier, having waited for nothing, if its admission
slot or the writer lock is taken or a reader still holds its writer
buffer.  Every other request body runs on a bounded worker pool
sized to the global in-flight cap, so the blocking database layer never
holds the loop past the budget and the loop never queues unbounded work
behind it.  Once a write's reply is sent, wherever the write ran, the
loop replays it into the epoch store's retired buffer
(:meth:`~repro.service.server.DatabaseService.settle`) before it reads
the next frame: a closed-loop client is then busy with the reply, and the
next write finds its writer buffer current.

Robustness contract (each clause is drilled by ``tests/test_net_faults``):

- **Backpressure, not buffering.**  Each transport's write-buffer
  high-water mark is ``write_buffer_cap``; when a slow client's buffer
  crosses it, asyncio calls ``pause_writing`` and the connection *stops
  reading* (counted in ``backpressure_pauses``) until ``resume_writing``,
  so a client that never reads can never balloon server memory — its TCP
  window fills instead.  A connection still paused after
  ``write_timeout`` is declared dead by its timer and aborted, returning
  its in-flight slots to the pool.
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
import contextlib
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
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

#: Seconds a read, or a write up to its commit, may hold the event loop
#: before it moves to the pool: no longer than a pool thread holds the GIL
#: from the loop anyway (``sys.getswitchinterval()``, 5 ms by default).
LOOP_BUDGET = 0.002

#: Status verbs that touch nothing but memory (an epoch refcount at most):
#: on the loop whenever they are alone in flight.
_IN_MEMORY = frozenset({"ping", "pin", "unpin"})

#: Verb kinds whose reply is followed by the service's idle catch-up.
_SETTLES = frozenset({"write", "maintenance"})


def _kind(cmd) -> str | None:
    """The kind of the verb ``cmd`` names, or None if it names none."""
    verb = COMMANDS.get(cmd) if isinstance(cmd, str) else None
    return None if verb is None else verb.kind

# `net.requests` and `net.sheds` repeat the per-server `_counters` twins
# (which tests and health read per server) because the end-to-end
# benchmark reads them by name from the process-wide `stats` reply.
_M_REQUESTS = METRICS.counter(
    "net.requests", unit="requests", site="_Connection._dispatch"
)
_M_SHEDS = METRICS.counter(
    "net.sheds", unit="requests", site="_Connection._dispatch"
)
_H_REQUEST_SECONDS = METRICS.histogram(
    "net.request.seconds", unit="seconds", site="_Connection._finish"
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
    #: Seconds a connection may stay paused (its client not reading), or
    #: closing with bytes unflushed, before it is declared dead and
    #: aborted.  Without this bound, a client that stops reading would
    #: park its in-flight requests (and their global slots) forever.
    write_timeout: float = 30.0
    #: Seconds a new connection may take to send its HELLO.
    handshake_timeout: float = 5.0
    #: Seconds a connection may sit idle (no frames, nothing in flight).
    idle_timeout: float = 300.0
    #: Seconds drain waits for in-flight requests before cancelling them.
    drain_grace: float = 5.0


async def _until(event: asyncio.Event, timeout: float) -> None:
    """Wait for ``event``, at most ``timeout`` seconds."""
    with contextlib.suppress(asyncio.TimeoutError):
        await asyncio.wait_for(event.wait(), timeout)


class _Connection(asyncio.Protocol):
    """One live connection: its decoder, its session and one timer.

    Every frame is dispatched from ``data_received`` before the next one
    is looked at, so a request's in-flight slot and its
    :class:`~repro.service.context.QueryContext` are one
    ``session.inflight`` entry from the moment it is admitted: a
    pipelined burst in one chunk cannot slip past the caps, and a
    cancellation always has a context to land on.
    """

    __slots__ = (
        "server", "session", "decoder", "loop", "transport", "timer",
        "opened", "active", "paused_at", "welcomed", "leaving", "goodbye_id",
    )

    def __init__(self, server: TcpServer):
        self.server = server
        self.session = SessionState(next(server._session_ids))
        self.decoder = FrameDecoder(max_frame_bytes=server.config.max_frame_bytes)
        self.loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        self.timer: asyncio.TimerHandle | None = None
        self.opened = self.active = self.loop.time()
        #: Loop time the peer stopped taking our bytes: writing paused,
        #: or a close began flushing.  ``None`` while bytes flow.
        self.paused_at: float | None = None
        self.welcomed = False
        #: Close once nothing is in flight (client GOODBYE or half-close);
        #: ``goodbye_id`` is the GOODBYE to answer first, if one came.
        self.leaving = False
        self.goodbye_id: int | None = None

    # ------------------------------------------------------------------
    # asyncio callbacks

    def connection_made(self, transport) -> None:
        server, config = self.server, self.server.config
        self.transport = transport
        if server._draining or len(server._conns) >= config.max_conns:
            # Shed at the door: typed response, then close.  (A draining
            # listener is already closed; this covers the race window.)
            server._counters["connections_shed"] += 1
            exc = (
                Draining("server is draining; connection refused")
                if server._draining
                else Overloaded(
                    f"connection limit reached "
                    f"({len(server._conns)}/{config.max_conns})"
                )
            )
            self._send(wire.T_ERROR, 0, error_payload(exc))
            transport.close()
            return
        server._conns[self.session.session_id] = self
        server._counters["connections_total"] += 1
        transport.set_write_buffer_limits(
            high=config.write_buffer_cap, low=config.write_buffer_cap // 4
        )
        if config.so_sndbuf is not None:
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, config.so_sndbuf
            )
        self.timer = self.loop.call_later(config.handshake_timeout, self._tick)

    def data_received(self, data: bytes) -> None:
        if self.leaving:
            return  # nothing after a sign-off is read
        self.active = self.loop.time()
        try:
            frames = self.decoder.feed(data)
        except (FrameError, ProtocolError) as exc:
            self._reject(exc)
            return
        for frame in frames:
            if self.leaving or self.transport.is_closing():
                return
            if self.welcomed:
                self._dispatch(frame)
            else:
                self._greet(frame)

    def eof_received(self) -> bool:
        """A half-close: answer everything in flight, then close."""
        self.leaving = True
        if not self.session.inflight:
            self._leave()
        return True  # keep the write side open until then

    def pause_writing(self) -> None:
        self.server._counters["backpressure_pauses"] += 1
        self.paused_at = self.loop.time()
        self.transport.pause_reading()
        self.timer.cancel()
        self._tick()  # re-arm for the write timeout

    def resume_writing(self) -> None:
        if not self.transport.is_closing():
            self.paused_at = None
            self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        """Every exit path ends here: cancel, release, forget.

        This is the no-leak guarantee the fault drills assert — a dead
        connection leaves no epoch pin and no session entry; its pool
        work is cancelled, and the pin goes when the last of it ends.
        """
        server = self.server
        if self.timer is not None:
            self.timer.cancel()
        self.session.cancel_inflight("connection lost; query cancelled")
        if not self.session.inflight:
            self.session.release()
        server._conns.pop(self.session.session_id, None)
        if not server._conns:
            server._all_closed.set()

    # ------------------------------------------------------------------
    # frames

    def _tick(self) -> None:
        """The connection's one timer: act on the bound that applies now
        if it has passed, else re-arm for the moment it would."""
        config = self.server.config
        now = self.loop.time()
        if self.paused_at is not None:
            since, limit = self.paused_at, config.write_timeout
        elif not self.welcomed:
            since, limit = self.opened, config.handshake_timeout
        else:
            since = now if self.session.inflight else self.active
            limit = config.idle_timeout
        if now < since + limit:
            self.timer = self.loop.call_at(since + limit, self._tick)
            return
        self.server._counters["timeouts"] += 1
        if self.paused_at is not None:
            self.transport.abort()  # the client stopped reading
        elif not self.welcomed:
            self.transport.close()
        else:
            pending = self.decoder.pending
            self._send(wire.T_GOODBYE, 0, {
                "reason": "idle timeout" + (" mid-frame" if pending else ""),
                "pending_bytes": pending,
            })
            self._close()

    def _greet(self, hello: Frame) -> None:
        """The first frame must be a HELLO at our wire version."""
        if hello.type != wire.T_HELLO:
            return self._reject(ProtocolError(
                f"expected hello, got {hello.type_name} (handshake violation)"
            ))
        try:
            greeting = decode_payload(hello.payload) if hello.payload else {}
        except ProtocolError as exc:
            return self._reject(exc)
        peer_version = greeting.get("version", wire.WIRE_VERSION)
        if peer_version != wire.WIRE_VERSION:
            return self._reject(ProtocolError(
                f"unsupported wire version {peer_version} "
                f"(speaking {wire.WIRE_VERSION})"
            ))
        self.welcomed = True  # frames behind the HELLO are valid at once
        config = self.server.config
        self._send(wire.T_WELCOME, hello.request_id, {
            "server": "repro",
            "version": wire.WIRE_VERSION,
            "session": self.session.session_id,
            "max_frame_bytes": config.max_frame_bytes,
            "max_inflight": config.max_inflight_per_conn,
        })

    def _dispatch(self, frame: Frame) -> None:
        """One frame after the handshake: sign-off, frame type, drain, id
        reuse, the two caps, decode — then run it on the loop or hand it
        to the pool."""
        server, session = self.server, self.session
        config = server.config
        request_id = frame.request_id
        if frame.type == wire.T_GOODBYE:
            # Client sign-off: let in-flight work answer, then close.
            self.leaving, self.goodbye_id = True, request_id
            if not session.inflight:
                self._leave()
            return
        if frame.type != wire.T_REQUEST:
            return self._reject(ProtocolError(
                f"unexpected {frame.type_name} frame after handshake"
            ))
        if server._draining:
            return self._send(wire.T_ERROR, request_id, error_payload(
                Draining("server is draining; request refused")
            ))
        if request_id in session.inflight:
            # Overwriting the running request's entry would undercount the
            # per-connection cap and orphan its cancellation.
            return self._send(wire.T_ERROR, request_id, error_payload(
                ProtocolError(f"request id {request_id} is already in flight")
            ))
        full_conn = len(session.inflight) >= config.max_inflight_per_conn
        if full_conn or server._inflight >= config.max_inflight:
            # Shed, never queue: the caps bound worker-pool depth exactly.
            server._counters["sheds"] += 1
            if METRICS.enabled:
                _M_SHEDS.inc()
            scope = "connection" if full_conn else "server"
            return self._send(wire.T_ERROR, request_id, error_payload(
                Overloaded(f"{scope} in-flight limit reached; retry with backoff")
            ))
        server._counters["requests"] += 1
        if METRICS.enabled:
            _M_REQUESTS.inc()
        try:
            request = decode_payload(frame.payload)
            if request.get("cmd") == "shutdown":
                # Operator drain over the wire: acknowledge, then drain.
                self._send(wire.T_RESPONSE, request_id, {"draining": True})
                return server.request_drain()
            ctx = request_context(server.service, request)
        except ProtocolError as exc:
            return self._send(wire.T_ERROR, request_id, error_payload(exc))
        session.inflight[request_id] = ctx
        server._inflight += 1
        started = time.perf_counter()
        # A paused connection's requests take the pool path, where the
        # caps bound what its buffer can still be handed.
        kind = self.paused_at is None and server._loop_kind(request.get("cmd"))
        if kind:
            try:
                result = execute_request(
                    server.service, session, request, ctx.attempt(LOOP_BUDGET)
                )
            except OverBudget:  # only a read or a write stops
                server._counters[f"moved_{kind}s"] += 1
            except Exception as exc:
                return self._finish(request_id, request, started, exc)
            else:
                if kind != "status":
                    server._counters[f"loop_{kind}s"] += 1
                return self._finish(request_id, request, started, result)
        self.loop.run_in_executor(
            server._executor, execute_request,
            server.service, session, request, ctx,
        ).add_done_callback(
            partial(self._pool_done, request_id, request, started)
        )

    def _pool_done(self, request_id, request, started, future) -> None:
        try:
            outcome = future.result()
        except Exception as exc:
            outcome = exc
        self._finish(request_id, request, started, outcome)

    def _finish(self, request_id, request, started, outcome) -> None:
        """Answer a request that held a slot and give the slot back: the
        single release point for every path through an admitted request."""
        server, session = self.server, self.session
        if isinstance(outcome, Exception):
            server._counters["errors"] += 1
            if not isinstance(outcome, ReproError):  # never kill the handler
                outcome = NetError(
                    f"internal error: {type(outcome).__name__}: {outcome}"
                )
            type_, payload = wire.T_ERROR, error_payload(outcome)
        elif request.get("cmd") in ("health", "stats"):
            type_, payload = wire.T_RESPONSE, {**outcome, "net": server.status()}
        else:
            type_, payload = wire.T_RESPONSE, outcome
        del session.inflight[request_id]
        server._inflight -= 1
        self.active = self.loop.time()
        if METRICS.enabled:
            _H_REQUEST_SECONDS.observe(time.perf_counter() - started)
        if not server._inflight:
            server._idle.set()
        self._send(type_, request_id, payload)
        if _kind(request.get("cmd")) in _SETTLES:
            # The reply is out: the retired buffer replays the write now,
            # before the loop reads the next frame, not inside the next
            # write's latency.
            self.loop.call_soon(server.service.settle)
        if not session.inflight:
            if self.transport.is_closing():
                session.release()
            elif self.leaving:
                self._leave()

    # ------------------------------------------------------------------
    # writes & close

    def _send(self, type_: int, request_id: int, payload: dict) -> None:
        """Write one frame; a closing connection drops it."""
        if self.transport.is_closing():
            return
        cap = self.server.config.max_frame_bytes
        try:
            data = encode_frame(
                type_, request_id, encode_payload(payload), max_frame_bytes=cap
            )
        except ReproError:
            # Response bigger than the frame cap: degrade to a typed
            # error the client *can* receive.
            data = encode_frame(
                wire.T_ERROR, request_id,
                encode_payload(error_payload(NetError(
                    "response exceeded the frame cap; narrow the request"
                ))),
                max_frame_bytes=cap,
            )
        self.transport.write(data)

    def _reject(self, exc: Exception) -> None:
        """A framing/protocol defect: typed error frame, then close.

        Connection-fatal (stream sync is lost) but never process-fatal;
        counted so an operator sees malformed-frame storms in ``stats``.
        """
        self.server._counters["frames_rejected"] += 1
        self._send(wire.T_ERROR, 0, error_payload(exc))
        self._close()

    def _leave(self) -> None:
        """Sign off once nothing is in flight: answer GOODBYE, close."""
        if self.goodbye_id is not None:
            self._send(wire.T_GOODBYE, self.goodbye_id, {})
        self._close()

    def _close(self) -> None:
        """Flush and close; the timer aborts a flush that stalls."""
        self.transport.close()
        if self.paused_at is None:
            self.paused_at = self.loop.time()


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
        self._session_ids = count(1)
        self._inflight = 0
        self._draining = False
        # Drain's waits: set when the in-flight count reaches 0, when the
        # last connection leaves, and when drain is done.
        self._idle = asyncio.Event()
        self._all_closed = asyncio.Event()
        self._stopped = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._counters = {
            "connections_total": 0,
            "connections_shed": 0,
            "requests": 0,
            "loop_reads": 0,
            "moved_reads": 0,
            "loop_writes": 0,
            "moved_writes": 0,
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
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-net",
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.config.host, self.config.port
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
        write buffer, close every connection.  Each wait is an event,
        bounded.
        """
        if self._draining:
            await _until(self._stopped, 5.0)
            return {"drained": True, "already": True}
        self._draining = True
        self._counters["drains"] += 1
        grace = self.config.drain_grace if grace is None else grace
        started = time.perf_counter()
        if self._server is not None:
            self._server.close()
        # (3) grace period for in-flight work.
        await self._quiet(grace)
        # (4) cancel stragglers at their next cooperative checkpoint.
        aborted = 0
        for conn in list(self._conns.values()):
            aborted += len(conn.session.inflight)
            conn.session.cancel_inflight(
                "server draining: request aborted after grace period"
            )
        # Cancellation is cooperative; give it one more grace window but
        # never hang the drain on a request that refuses to die.
        await self._quiet(max(grace, 1.0))
        stragglers = self._inflight
        # (5) no new work can start now; drain the service too, then
        # say goodbye and flush.
        try:
            self.service.begin_drain()
        except Exception:  # pragma: no cover - already closed
            pass
        for conn in list(self._conns.values()):
            conn._send(
                wire.T_GOODBYE, 0,
                {"reason": "draining", "aborted_in_flight": aborted},
            )
            conn._close()
        if self._conns:
            self._all_closed.clear()
            await _until(self._all_closed, max(grace, 1.0))
        for conn in list(self._conns.values()):
            conn.transport.abort()  # a flush the peer never took
        if self._server is not None:
            await self._server.wait_closed()
        if self._executor is not None:
            # A straggler that ignored cancellation must not hang the
            # drain; abandon its worker thread (daemonized by interpreter
            # exit) rather than block forever.
            self._executor.shutdown(wait=(stragglers == 0), cancel_futures=True)
        elapsed = time.perf_counter() - started
        if METRICS.enabled:
            _H_DRAIN_SECONDS.observe(elapsed)
        self._stopped.set()
        return {"drained": True, "aborted": aborted, "seconds": elapsed}

    async def _quiet(self, timeout: float) -> None:
        """Wait, at most ``timeout`` seconds, for nothing in flight."""
        if self._inflight:
            self._idle.clear()
            await _until(self._idle, timeout)

    def _loop_kind(self, cmd) -> str | None:
        """The kind of ``cmd``'s verb if the request runs on the loop, else
        None.  A request alone in flight runs there when its verb can stop
        before it changes anything and waits on no I/O: a read (it pins an
        in-process buffer), a write on a service whose writes stay in
        memory (no fsync), and the memory-only status
        verbs."""
        kind = _kind(cmd)
        if self._inflight != 1 or kind is None:
            return None
        if kind == "read":
            runs = True
        elif kind == "write":
            runs = self.service.writes_in_memory
        else:
            runs = cmd in _IN_MEMORY
        return kind if runs else None

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
