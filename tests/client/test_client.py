"""Tests for the client SDK's connection care and the loadgen adapter.

The reconnect-with-backoff and retry-after logic is exercised against a
scripted fake server (deterministic failure injection); the
:class:`~repro.client.RemoteServerAdapter` is exercised against a real
:class:`~repro.serve.net.NetworkServer` through the unchanged
:mod:`repro.serve.loadgen` generators — the ``repro loadtest --connect``
path end to end.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.client import Client, RemoteServerAdapter, parse_address
from repro.serve import (
    NetworkServer,
    Server,
    ServerOverloadedError,
    protocol,
    run_load,
    run_stream_load,
)


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.5:7000") == ("10.0.0.5", 7000)

    def test_bare_host_gets_the_default_port(self):
        from repro.serve.net import DEFAULT_PORT
        assert parse_address("example.org") == ("example.org", DEFAULT_PORT)

    def test_bare_port_gets_loopback(self):
        assert parse_address(":7000") == ("127.0.0.1", 7000)

    def test_garbage_port_raises(self):
        with pytest.raises(ValueError, match="invalid port"):
            parse_address("host:notaport")

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            parse_address("  ")

    def test_bare_ipv6_literal_is_a_host(self):
        from repro.serve.net import DEFAULT_PORT
        assert parse_address("::1") == ("::1", DEFAULT_PORT)
        assert parse_address("fe80::2:1") == ("fe80::2:1", DEFAULT_PORT)

    def test_bracketed_ipv6_with_port(self):
        assert parse_address("[::1]:7000") == ("::1", 7000)

    def test_bracketed_ipv6_without_port(self):
        from repro.serve.net import DEFAULT_PORT
        assert parse_address("[fe80::1]") == ("fe80::1", DEFAULT_PORT)

    def test_unclosed_bracket_raises(self):
        with pytest.raises(ValueError, match="bracket"):
            parse_address("[::1:7000")

    def test_out_of_range_port_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_address("host:70000")


class _ScriptedServer:
    """A minimal protocol speaker whose per-connection behaviour is scripted.

    Each accepted connection pops the next script entry:

    * ``"drop"`` — complete the handshake, then close on the first request
      (simulating a server crash mid-conversation);
    * ``"overload"`` — answer every request with an ``overloaded`` error
      frame carrying ``retry_after``;
    * ``"serve"`` — answer every request with a canned ``stats`` response.
    """

    def __init__(self, script: list[str], retry_after: float = 0.01) -> None:
        self.script = list(script)
        self.retry_after = retry_after
        self.requests_seen = 0
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10.0)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            while self.script:
                behaviour = self.script.pop(0)
                conn, _ = self._sock.accept()
                self.connections += 1
                with conn:
                    self._speak(conn, behaviour)
        except OSError:
            pass

    def _recv_frame(self, conn: socket.socket) -> dict | None:
        data = b""
        while len(data) < protocol.HEADER_BYTES:
            chunk = conn.recv(protocol.HEADER_BYTES - len(data))
            if not chunk:
                return None
            data += chunk
        length = protocol.frame_length(data)
        payload = b""
        while len(payload) < length:
            chunk = conn.recv(length - len(payload))
            if not chunk:
                return None
            payload += chunk
        return protocol.decode_frame(payload)

    def _speak(self, conn: socket.socket, behaviour: str) -> None:
        hello = self._recv_frame(conn)
        assert hello is not None and hello["type"] == "hello"
        conn.sendall(protocol.encode_frame(protocol.hello_frame()))
        while True:
            request = self._recv_frame(conn)
            if request is None:
                return
            self.requests_seen += 1
            if behaviour == "drop":
                return     # hang up mid-conversation
            if behaviour == "overload":
                conn.sendall(protocol.encode_frame(protocol.error_response(
                    request["id"], ServerOverloadedError(
                        "scripted overload", queue_depth=9,
                        retry_after_seconds=self.retry_after))))
                continue
            conn.sendall(protocol.encode_frame(
                {"type": "stats", "id": request["id"],
                 "stats": {"canned": True}}))

    def close(self) -> None:
        self._sock.close()
        self._thread.join(timeout=5.0)


class TestReconnectWithBackoff:
    def test_client_reconnects_after_a_dropped_connection(self):
        fake = _ScriptedServer(["drop", "serve"])
        try:
            client = Client(*fake.address, retries=3, backoff=0.01)
            payload = client.stats_dict()
            assert payload == {"canned": True}
            assert fake.connections == 2      # the drop forced a reconnect
            client.close()
        finally:
            fake.close()

    def test_retries_exhausted_raises_connection_error(self):
        fake = _ScriptedServer(["drop", "drop", "drop"])
        try:
            client = Client(*fake.address, retries=2, backoff=0.01)
            with pytest.raises(ConnectionError, match="lost connection"):
                client.stats_dict()
        finally:
            fake.close()

    def test_overload_retry_honors_retry_after(self):
        fake = _ScriptedServer(["overload"], retry_after=0.08)
        try:
            client = Client(*fake.address, retries=2, backoff=0.001,
                            retry_overloaded=True)
            started = time.perf_counter()
            with pytest.raises(ServerOverloadedError) as excinfo:
                client.stats_dict()
            elapsed = time.perf_counter() - started
            # two retries, each sleeping the server's 0.08s hint (not the
            # client's 1ms base backoff)
            assert elapsed >= 2 * 0.08
            assert excinfo.value.retry_after_seconds == 0.08
            assert excinfo.value.queue_depth == 9
            assert fake.requests_seen == 3    # initial + 2 retries
            client.close()
        finally:
            fake.close()

    def test_overload_raises_immediately_when_retry_disabled(self):
        fake = _ScriptedServer(["overload"])
        try:
            client = Client(*fake.address, retries=5,
                            retry_overloaded=False)
            with pytest.raises(ServerOverloadedError):
                client.stats_dict()
            assert fake.requests_seen == 1
            client.close()
        finally:
            fake.close()


@pytest.fixture(scope="module")
def remote(pipeline):
    """A real network server plus the loadgen adapter pointed at it."""
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
    network = NetworkServer(server)
    host, port = network.start()
    adapter = RemoteServerAdapter(f"{host}:{port}")
    yield network, adapter
    adapter.close()
    network.close()


class TestRemoteServerAdapter:
    def test_run_load_drives_the_remote_server(self, remote, pipeline,
                                               small_suite):
        network, adapter = remote
        images = list(small_suite.values()) * 2
        report = run_load(adapter, images, 10.0, clients=4)
        assert report.errors == 0
        assert len(report.results) == len(images)
        # remote results are bit-identical to the in-process engine
        reference = Engine(HEBSAlgorithm(pipeline))
        for index, image in enumerate(images):
            expected = reference.process(image, 10.0)
            got = report.results[index]
            assert np.array_equal(got.output.pixels, expected.output.pixels)
            assert got.backlight_factor == expected.backlight_factor
        # the report's stats came over the wire via the stats RPC
        assert report.stats.completed >= len(images)

    def test_run_stream_load_drives_remote_sessions(self, remote, pipeline,
                                                    small_suite):
        network, adapter = remote
        frames = list(small_suite.values())
        clips = [frames, list(reversed(frames))]
        report = run_stream_load(adapter, clips, 10.0)
        assert report.errors == 0
        assert report.frames == sum(len(clip) for clip in clips)
        assert len(report.traces) == 2
        # flicker bound holds across the network hop
        assert report.worst_step() <= 0.05 + 1e-9
        # traces key on the server-assigned session ids, so the per-session
        # stats correlate
        assert set(report.session_p95()) == set(report.traces)

    def test_adapter_failures_surface_through_the_future(self, remote):
        network, adapter = remote
        future = adapter.submit(_image(), -1.0)     # invalid budget
        with pytest.raises(ValueError):
            future.result()

    def test_adapter_refuses_new_clients_after_close(self, pipeline):
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1)
        network = NetworkServer(server)
        host, port = network.start()
        try:
            adapter = RemoteServerAdapter(f"{host}:{port}")
            adapter.close()
            with pytest.raises(RuntimeError, match="closed"):
                adapter.submit(_image(), 10.0).result()
        finally:
            network.close()

    def test_close_fences_threads_with_a_cached_client(self, pipeline):
        # a thread that already holds a thread-local client must not be
        # able to silently reconnect on an untracked socket after close()
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=1)
        network = NetworkServer(server)
        host, port = network.start()
        try:
            adapter = RemoteServerAdapter(f"{host}:{port}")
            adapter.submit(_image(), 10.0).result()     # caches the client
            adapter.close()
            with pytest.raises(RuntimeError, match="closed"):
                adapter.submit(_image(), 10.0).result()
        finally:
            network.close()


def _image():
    from repro.imaging.image import Image
    rng = np.random.default_rng(0)
    return Image(rng.integers(0, 256, size=(12, 12)))


class TestClientPipeline:
    """Pipelined RPC over one socket: many requests in flight, replies
    correlated by id in server completion order."""

    def test_pipelined_batch_matches_lockstep(self, remote, pipeline,
                                              small_suite):
        network, _ = remote
        host, port = network.address
        engine = Engine(HEBSAlgorithm(pipeline))
        images = list(small_suite.values()) * 2
        with Client(host=host, port=port, timeout=60.0) as client:
            with client.pipeline() as batch:
                replies = [batch.process(image, 10.0) for image in images]
                stats_reply = batch.stats()
            for image, reply in zip(images, replies):
                assert reply.result() == engine.process(image, 10.0)
            assert stats_reply.result().completed >= len(images)

    def test_results_readable_out_of_submission_order(self, remote,
                                                      small_suite):
        network, _ = remote
        host, port = network.address
        images = list(small_suite.values())
        with Client(host=host, port=port, timeout=60.0) as client:
            with client.pipeline() as batch:
                replies = [batch.solve(image, 10.0) for image in images]
                # resolve in reverse: each result() drains frames until
                # its own id answers, parking the others
                for reply in reversed(replies):
                    assert 0.0 < reply.result().backlight_factor <= 1.0
            assert all(reply.done for reply in replies)

    def test_errors_park_on_their_reply_only(self, remote, small_suite):
        network, _ = remote
        host, port = network.address
        good_image = next(iter(small_suite.values()))
        with Client(host=host, port=port, timeout=60.0) as client:
            with client.pipeline() as batch:
                good = batch.process(good_image, 10.0)
                bad = batch.process(good_image, -4.0)     # invalid budget
                also_good = batch.solve(good_image, 10.0)
            with pytest.raises(ValueError):
                bad.result()
            # neighbours are untouched by the failure
            assert good.result().algorithm == "hebs"
            assert 0.0 < also_good.result().backlight_factor <= 1.0

    def test_lockstep_calls_are_refused_while_a_pipeline_is_open(
            self, remote, lena):
        network, _ = remote
        host, port = network.address
        with Client(host=host, port=port, timeout=60.0) as client:
            with client.pipeline() as batch:
                reply = batch.solve(lena, 10.0)
                with pytest.raises(RuntimeError, match="pipeline"):
                    client.process(lena, 10.0)
            assert reply.result() is not None
            # the client is back in lockstep mode after close
            assert client.process(lena, 10.0).algorithm == "hebs"

    def test_second_pipeline_on_the_same_client_is_refused(self, remote):
        network, _ = remote
        host, port = network.address
        with Client(host=host, port=port) as client:
            with client.pipeline():
                with pytest.raises(RuntimeError, match="already open"):
                    client.pipeline()
            # ... but a fresh one after close is fine
            with client.pipeline() as second:
                assert second.stats().result().completed >= 0

    def test_connection_loss_fails_every_outstanding_reply(self, lena):
        fake = _ScriptedServer(["drop"])
        try:
            client = Client(*fake.address, retries=0)
            batch = client.pipeline()
            first = batch.solve(lena, 10.0)
            second = batch.solve(lena, 10.0)
            with pytest.raises(ConnectionError, match="pipeline"):
                first.result()
            # no retry, no reconnect: the whole batch fails together
            with pytest.raises(ConnectionError):
                second.result()
            with pytest.raises(ConnectionError):
                batch.solve(lena, 10.0)
            batch.close()
            client.close()
        finally:
            fake.close()

    def test_close_drains_outstanding_replies(self, remote, small_suite):
        network, _ = remote
        host, port = network.address
        images = list(small_suite.values())
        with Client(host=host, port=port, timeout=60.0) as client:
            batch = client.pipeline()
            replies = [batch.solve(image, 10.0) for image in images]
            batch.close()
            batch.close()                      # idempotent
            assert all(reply.done for reply in replies)
            for reply in replies:
                assert reply.result() is not None   # instant: already read

    def test_submitting_after_close_is_refused(self, remote, lena):
        network, _ = remote
        host, port = network.address
        with Client(host=host, port=port) as client:
            batch = client.pipeline()
            batch.close()
            with pytest.raises(RuntimeError, match="closed"):
                batch.solve(lena, 10.0)

    def test_pipeline_works_over_protocol_v1(self, remote, pipeline, lena):
        network, _ = remote
        host, port = network.address
        engine = Engine(HEBSAlgorithm(pipeline))
        with Client(host=host, port=port, max_version=1,
                    timeout=60.0) as client:
            assert client.protocol_version == 1
            with client.pipeline() as batch:
                replies = [batch.process(lena, 10.0) for _ in range(3)]
            want = engine.process(lena, 10.0)
            for reply in replies:
                assert reply.result() == want
