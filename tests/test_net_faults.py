"""The connection-fault drill matrix for the TCP front end.

Every drill injects a real network fault through a real socket —
truncated and corrupted frames at every byte boundary, hard resets,
half-closes, stalls, client deaths mid-pipeline, drain under write load —
and then asserts the three invariants the subsystem exists to provide:

1. **Liveness** — the server process keeps serving new connections; a
   fault is connection-fatal at worst, never process-fatal, and never a
   deadlock.
2. **No leaks** — after the dust settles there are zero open sessions,
   zero in-flight requests, and zero epoch pins
   (``health()["epochs"]["active_pins"]``).
3. **Acked durability** — every write that was acknowledged over the
   wire is present in the database text afterwards (checked against the
   string-splice reference semantics), no matter how rudely the client
   died.
"""

from __future__ import annotations

import re
import socket
import threading
import time

import pytest

from repro.errors import (
    ConnectionLost,
    Draining,
    FrameCorrupt,
    FrameTooLarge,
    NetError,
    Overloaded,
    ReproError,
)
from repro.net import frame as wire
from repro.net.frame import encode_frame
from repro.net.protocol import decode_payload, encode_payload
from repro.net import server as net_server
from repro.net.server import NetServerConfig
from tests.net_harness import FaultyClient, ServerHarness
from tests.net_util import make_service, slowop_installed
from tests.oracle import ReferenceDatabase

pytestmark = [pytest.mark.timeout(120), pytest.mark.slow]


def wait_quiescent(harness, service, timeout: float = 5.0) -> dict:
    """Block until the server has no connections and no in-flight work,
    and the service has no epoch pins; returns the final status."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = harness.status()
        pins = service.health()["epochs"]["active_pins"]
        if (
            status["connections_open"] == 0
            and status["inflight"] == 0
            and pins == 0
        ):
            return status
        time.sleep(0.01)
    status = harness.status()
    pins = service.health()["epochs"]["active_pins"]
    raise AssertionError(
        f"leak: connections={status['connections_open']} "
        f"inflight={status['inflight']} pins={pins}"
    )


def assert_alive(harness) -> None:
    """The one test that matters after every drill: a brand-new client
    gets served."""
    with FaultyClient("127.0.0.1", harness.port) as probe:
        assert probe.request("ping")["pong"] is True


class TestMalformedFrames:
    def test_garbage_bytes_get_typed_rejection(self):
        service = make_service()
        try:
            with ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    client.send_garbage(b"\xde\xad\xbe\xef" * 16)
                    reply = client.recv_frame()
                    assert reply.type == wire.T_ERROR
                    payload = decode_payload(reply.payload)
                    assert payload["error"] in ("FrameCorrupt", "ProtocolError")
                    # The poisoned connection is closed underneath us.
                    with pytest.raises(ConnectionLost):
                        client.recv_frame()
                assert_alive(harness)
                wait_quiescent(harness, service)
        finally:
            service.close()

    def test_corrupted_frame_at_every_byte_is_survivable(self):
        """Flip every byte of a valid request frame, one connection per
        flip.  Some flips yield typed rejections, some a (differently
        correlated) response — what never happens is a dead server, a
        wedged connection, or a leaked pin."""
        service = make_service()
        probe_payload = encode_payload({"cmd": "ping"})
        frame_len = len(encode_frame(wire.T_REQUEST, 1, probe_payload))
        try:
            with ServerHarness(service) as harness:
                for flip in range(frame_len):
                    with FaultyClient("127.0.0.1", harness.port) as client:
                        client.send_corrupted(
                            wire.T_REQUEST, 777, probe_payload, flip
                        )
                        try:
                            reply = client.recv_frame()
                            assert reply.type in (
                                wire.T_ERROR, wire.T_RESPONSE
                            )
                        except (ConnectionLost, ReproError):
                            pass  # closed on us or garbled reply: fine
                assert_alive(harness)
                wait_quiescent(harness, service)
        finally:
            service.close()

    def test_truncated_frame_then_close_at_every_boundary(self):
        """A client that dies after sending any prefix of a frame leaves
        nothing behind."""
        service = make_service()
        payload = encode_payload({
            "cmd": "insert",
            "fragment": "<registration><name>trunc</name></registration>",
        })
        frame_len = len(encode_frame(wire.T_REQUEST, 1, payload))
        try:
            with ServerHarness(service) as harness:
                for cut in range(0, frame_len, 3):
                    client = FaultyClient("127.0.0.1", harness.port)
                    client.send_truncated(wire.T_REQUEST, 1, payload, cut)
                    client.close()
                assert_alive(harness)
                wait_quiescent(harness, service)
                # None of the truncated inserts was half-applied.
                assert "trunc" not in service.primary.text
        finally:
            service.close()

    def test_oversized_length_field_rejected_before_buffering(self):
        service = make_service()
        try:
            with ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    client.send_oversized_header(declared=1 << 30)
                    reply = client.recv_frame()
                    assert reply.type == wire.T_ERROR
                    assert decode_payload(reply.payload)["error"] == (
                        "FrameTooLarge"
                    )
                assert_alive(harness)
                wait_quiescent(harness, service)
        finally:
            service.close()

    def test_encoder_side_cap_means_no_oversized_sends(self):
        """A well-behaved client cannot even construct an over-cap frame."""
        with pytest.raises(FrameTooLarge):
            encode_frame(wire.T_REQUEST, 1, b"x" * (wire.MAX_FRAME_BYTES + 1))


class TestConnectionDeaths:
    def test_hard_reset_releases_pinned_snapshot(self):
        service = make_service()
        try:
            with ServerHarness(service) as harness:
                client = FaultyClient("127.0.0.1", harness.port)
                client.request("pin")
                assert service.health()["epochs"]["active_pins"] >= 1
                client.reset()  # RST, not FIN: the rudest goodbye
                wait_quiescent(harness, service)
                assert_alive(harness)
        finally:
            service.close()

    def test_half_close_mid_pipeline_still_answers(self):
        """SHUT_WR after sending requests: the server must answer all of
        them before noticing the EOF and closing."""
        service = make_service()
        try:
            with ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    ids = [client.send_request("ping") for _ in range(5)]
                    client.half_close()
                    answered = set()
                    while len(answered) < 5:
                        reply = client.recv_frame()
                        if reply.type == wire.T_RESPONSE:
                            answered.add(reply.request_id)
                    assert answered == set(ids)
                wait_quiescent(harness, service)
        finally:
            service.close()

    def test_client_death_mid_write_stream_keeps_acked_writes(self):
        """Closed-loop writes, then die with one ack unread: every acked
        write must be in the text; the unacked one may or may not be
        (acked ⊆ applied ⊆ issued)."""
        service = make_service()
        acked, issued = [], []
        try:
            with ServerHarness(service) as harness:
                client = FaultyClient("127.0.0.1", harness.port)
                for i in range(8):
                    fragment = (
                        f"<registration><name>w{i}</name></registration>"
                    )
                    issued.append(i)
                    reply = client.request("insert", fragment=fragment)
                    assert reply["sid"] > 0
                    acked.append(i)
                # One last write whose ack we never read:
                issued.append(99)
                client.send_request(
                    "insert",
                    fragment="<registration><name>w99</name></registration>",
                )
                client.reset()
                wait_quiescent(harness, service)
                text = service.primary.text
                applied = {
                    int(m) for m in re.findall(r"<name>w(\d+)</name>", text)
                }
                assert set(acked) <= applied <= set(issued)
                # The reference splice of exactly the applied writes
                # reproduces the document (writes are end-appends).
                reference = ReferenceDatabase()
                reference.insert(text[:text.index("<registration><name>w")])
                for i in sorted(applied, key=lambda i: text.index(f"w{i}")):
                    reference.insert(
                        f"<registration><name>w{i}</name></registration>"
                    )
                assert reference.text == text
                assert_alive(harness)
        finally:
            service.close()

    def test_death_at_every_frame_boundary_during_writes(self):
        """Interleave good writes with a connection killed after an
        arbitrary prefix of the next write frame — header boundary,
        mid-header, mid-payload, all of it."""
        service = make_service()
        payload = encode_payload({
            "cmd": "insert",
            "fragment": "<registration><name>dead</name></registration>",
        })
        frame_len = len(encode_frame(wire.T_REQUEST, 1, payload))
        boundaries = sorted({
            0, 1, wire.HEADER_SIZE - 1, wire.HEADER_SIZE,
            wire.HEADER_SIZE + 1, frame_len // 2, frame_len - 1,
        })
        acked = 0
        try:
            with ServerHarness(service) as harness:
                for round_, cut in enumerate(boundaries):
                    client = FaultyClient("127.0.0.1", harness.port)
                    reply = client.request(
                        "insert",
                        fragment=(
                            f"<registration><name>ok{round_}</name>"
                            "</registration>"
                        ),
                    )
                    assert reply["sid"] > 0
                    acked += 1
                    client.send_truncated(wire.T_REQUEST, 1000, payload, cut)
                    client.reset()
                wait_quiescent(harness, service)
                text = service.primary.text
                for round_ in range(len(boundaries)):
                    assert f"<name>ok{round_}</name>" in text
                assert "dead" not in text  # no truncated frame executed
                assert_alive(harness)
        finally:
            service.close()

    def test_stall_mid_frame_hits_idle_timeout(self, monkeypatch):
        monkeypatch.setattr(net_server, "IDLE_TIMEOUT", 0.3)
        service = make_service()
        payload = encode_payload({"cmd": "ping"})
        try:
            with ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    client.send_truncated(wire.T_REQUEST, 1, payload, 10)
                    reply = client.recv_frame()  # server's goodbye
                    assert reply.type == wire.T_GOODBYE
                    goodbye = decode_payload(reply.payload)
                    assert "idle" in goodbye["reason"]
                    assert goodbye["pending_bytes"] == 10
                wait_quiescent(harness, service)
                assert harness.status()["counters"]["timeouts"] >= 1
        finally:
            service.close()

    def test_disconnect_cancels_inflight_work(self):
        """A dead connection's running request is cooperatively cancelled
        — its worker does not grind on for a client that left."""
        self._disconnect_cancels("slowop")

    def test_disconnect_cancels_a_moved_read(self):
        """A read that outlived the loop budget runs on the pool under a
        fresh context, and that is the context a disconnect cancels."""
        self._disconnect_cancels("slowread")

    def _disconnect_cancels(self, verb):
        service = make_service()
        try:
            with slowop_installed(), ServerHarness(service) as harness:
                client = FaultyClient("127.0.0.1", harness.port)
                client.send_request(verb, seconds=30.0)
                deadline = time.monotonic() + 5.0
                while (
                    harness.status()["inflight"] == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert harness.status()["inflight"] == 1
                client.reset()
                # Far sooner than the 30s the op asked for:
                counters = wait_quiescent(harness, service, timeout=5.0)[
                    "counters"
                ]
                assert counters["moved_reads"] == (verb == "slowread")
                assert_alive(harness)
        finally:
            service.close()


class TestPipelinedBurst:
    def test_reused_inflight_id_is_refused_and_the_cap_holds(self, monkeypatch):
        """Six pipelined frames share id 7, then ids 8 and 9 follow: one
        id-7 request runs, the other five are typed ProtocolErrors carrying
        id 7 (no slot taken), id 8 fills the per-connection cap of two and
        id 9 is shed."""
        monkeypatch.setattr(net_server, "MAX_INFLIGHT_PER_CONN", 2)
        service = make_service()
        ids = [7] * 6 + [8, 9]
        try:
            with slowop_installed(), ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    client.send_bytes(b"".join(
                        encode_frame(
                            wire.T_REQUEST, request_id,
                            encode_payload({"cmd": "slowop", "seconds": 0.3}),
                        )
                        for request_id in ids
                    ))
                    # The refusals and the shed answer at once, the two
                    # admitted requests after their 0.3 s.
                    replies = [client.recv_frame() for _ in ids[2:]]
                    assert harness.status()["inflight"] == 2
                    replies += [client.recv_frame() for _ in ids[:2]]
                    ok = sorted(
                        r.request_id for r in replies
                        if r.type == wire.T_RESPONSE
                    )
                    errors = sorted(
                        (r.request_id, decode_payload(r.payload)["error"])
                        for r in replies if r.type == wire.T_ERROR
                    )
                    assert ok == [7, 8]
                    assert errors == [(7, "ProtocolError")] * 5 + [
                        (9, "Overloaded")
                    ]
                counters = wait_quiescent(harness, service)["counters"]
                assert (counters["sheds"], counters["requests"]) == (1, 2)
                assert_alive(harness)
        finally:
            service.close()

    def test_single_chunk_burst_cannot_bypass_inflight_caps(self, monkeypatch):
        """Every frame of a burst that arrives in one read chunk is
        dispatched without yielding to the event loop, so the in-flight
        caps must be reserved synchronously at dispatch — otherwise the
        whole burst bypasses the caps and queues in the worker pool,
        violating shed-never-queue."""
        monkeypatch.setattr(net_server, "MAX_INFLIGHT", 2)
        monkeypatch.setattr(net_server, "MAX_INFLIGHT_PER_CONN", 2)
        service = make_service()
        n = 10
        try:
            with slowop_installed(), ServerHarness(service) as harness:
                with FaultyClient("127.0.0.1", harness.port) as client:
                    burst = b"".join(
                        encode_frame(
                            wire.T_REQUEST, 100 + i,
                            encode_payload(
                                {"cmd": "slowop", "seconds": 0.5}
                            ),
                        )
                        for i in range(n)
                    )
                    client.send_bytes(burst)  # one segment, one chunk
                    replies = {}
                    while len(replies) < n:
                        reply = client.recv_frame()
                        replies[reply.request_id] = reply
                    ok = [
                        r for r in replies.values()
                        if r.type == wire.T_RESPONSE
                    ]
                    shed = [
                        r for r in replies.values() if r.type == wire.T_ERROR
                    ]
                    # Exactly the reserved budget executes; the rest of
                    # the burst sheds typed, immediately.
                    assert len(ok) == 2
                    assert len(shed) == n - 2
                    for r in shed:
                        assert decode_payload(r.payload)["error"] == (
                            "Overloaded"
                        )
                assert harness.status()["counters"]["sheds"] >= n - 2
                wait_quiescent(harness, service)
        finally:
            service.close()


@pytest.fixture
def tight_buffers(monkeypatch):
    """A 2 KiB write-buffer cap, 4 requests in flight per connection and
    a 4 KiB socket send buffer on every accepted connection: backpressure
    is only as tight as kernel buffering allows, so the app-level cap
    binds at once and slow-reader drills are deterministic."""
    monkeypatch.setattr(net_server, "WRITE_BUFFER_CAP", 2048)
    monkeypatch.setattr(net_server, "MAX_INFLIGHT_PER_CONN", 4)
    made = net_server._Connection.connection_made

    def connection_made(self, transport):
        transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        )
        made(self, transport)

    monkeypatch.setattr(net_server._Connection, "connection_made", connection_made)


class TestBackpressure:
    def test_slow_reader_pauses_intake_and_loses_nothing(self, tight_buffers):
        """A client that pipelines queries but stops reading forces the
        server to pause reading its requests (bounded write buffer);
        when the client finally reads, every response arrives.

        Tiny kernel buffers on both sides make the app-level cap bind:
        responses that can't reach the slow client pile up in the
        transport buffer, cross ``WRITE_BUFFER_CAP``, and pause intake.
        """
        service = make_service(200)
        try:
            with ServerHarness(service) as harness:
                with FaultyClient(
                    "127.0.0.1", harness.port, rcvbuf=4096
                ) as client:
                    n = 24
                    ids = []
                    # Bursts with gaps: each later burst arrives while
                    # earlier responses are stuck behind the full buffer,
                    # which is exactly when the pause branch runs.
                    for burst in range(3):
                        ids.extend(
                            client.send_request("query", expr="name")
                            for _ in range(n // 3)
                        )
                        client.stall(0.3)
                    replies = {}
                    while len(replies) < n:
                        reply = client.recv_frame()
                        replies[reply.request_id] = reply
                    assert set(replies) == set(ids)
                    ok = [
                        r for r in replies.values()
                        if r.type == wire.T_RESPONSE
                    ]
                    shed = [
                        r for r in replies.values() if r.type == wire.T_ERROR
                    ]
                    # Over-cap pipelining sheds typed, never drops.
                    assert len(ok) + len(shed) == n
                    assert len(ok) >= 4
                    for r in ok:
                        assert decode_payload(r.payload)["count"] == 200
                    for r in shed:
                        assert decode_payload(r.payload)["error"] == (
                            "Overloaded"
                        )
                status = harness.status()
                assert status["counters"]["backpressure_pauses"] >= 1
                wait_quiescent(harness, service)
        finally:
            service.close()

    def test_client_that_never_reads_is_aborted_not_parked(
        self, tight_buffers, monkeypatch
    ):
        """A client that pipelines work and then never reads a byte must
        not park its in-flight slots forever: the read loop's idle
        timeout cannot fire while a response write holds the connection
        write lock, so the *bounded* write wait is what declares the
        client dead, aborts the connection, and reclaims every slot and
        pin for the rest of the fleet."""
        monkeypatch.setattr(net_server, "WRITE_TIMEOUT", 0.5)
        service = make_service(200)
        try:
            with ServerHarness(service) as harness:
                client = FaultyClient(
                    "127.0.0.1", harness.port, rcvbuf=4096
                )
                for _ in range(12):
                    client.send_request("query", expr="name")
                # ...and never read.  Responses fill the client's receive
                # window, then the server's buffers, then the write wait
                # times out and the connection is aborted — far sooner
                # than the 300s idle timeout.
                wait_quiescent(harness, service, timeout=15.0)
                assert harness.status()["counters"]["timeouts"] >= 1
                assert_alive(harness)
                client.close()
        finally:
            service.close()


class TestDrainUnderLoad:
    def test_drain_under_write_load_preserves_every_acked_write(self):
        """Four writer threads hammer inserts while the server drains.
        Afterwards: every acked write is in the text, all sessions and
        pins are gone, and new connections are refused."""
        service = make_service()
        config = NetServerConfig(drain_grace=2.0)
        acked_lock = threading.Lock()
        acked: list[str] = []
        stop = threading.Event()

        def writer(worker: int, port: int) -> None:
            try:
                client = FaultyClient("127.0.0.1", port)
            except (ReproError, OSError):
                return
            i = 0
            while not stop.is_set():
                marker = f"d{worker}x{i}"
                try:
                    client.request(
                        "insert",
                        fragment=(
                            f"<registration><name>{marker}</name>"
                            "</registration>"
                        ),
                    )
                except (Draining, Overloaded, ConnectionLost, NetError):
                    break  # drain reached us; stop writing
                except ReproError:
                    break
                with acked_lock:
                    acked.append(marker)
                i += 1
            client.close()

        try:
            with ServerHarness(service, config) as harness:
                threads = [
                    threading.Thread(target=writer, args=(w, harness.port))
                    for w in range(4)
                ]
                for t in threads:
                    t.start()
                time.sleep(0.4)  # let real write load build
                summary = harness.drain()
                assert summary["drained"] is True
                stop.set()
                for t in threads:
                    t.join(10.0)
                    assert not t.is_alive()
                assert len(acked) > 0, "drill produced no load"
                text = service.primary.text
                for marker in acked:
                    assert f"<name>{marker}</name>" in text
                # Post-drain: no leaks, and the door is closed.
                assert service.health()["epochs"]["active_pins"] == 0
                assert harness.status()["connections_open"] == 0
                with pytest.raises((ReproError, OSError)):
                    FaultyClient(
                        "127.0.0.1", harness.port, timeout=1.0
                    ).request("ping")
        finally:
            service.close()

    def test_drain_is_idempotent_and_reports(self):
        service = make_service()
        try:
            with ServerHarness(service) as harness:
                first = harness.drain()
                second = harness.drain()
                assert first["drained"] and second["drained"]
                assert second.get("already") is True
        finally:
            service.close()
