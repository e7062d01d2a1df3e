"""End-to-end tests for the asyncio network server and the client SDK.

A real :class:`~repro.serve.net.NetworkServer` on a loopback socket, real
clients in the test process: the acceptance surface of the remote API —
bit-identical parity with the in-process engine for ``solve`` /
``process`` / stream sessions, typed overload errors carrying retry-after
across the hop, version negotiation, and close-on-disconnect.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import CompensationAlgorithm, HEBSAlgorithm, create
from repro.api.session import SessionClosedError
from repro.core.histogram import Histogram
from repro.client import AsyncClient, Client
from repro.serve import NetworkServer, Server, ServerOverloadedError, protocol


@pytest.fixture(scope="module")
def net(pipeline):
    """One shared network server over a real engine, on a free port."""
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
    network = NetworkServer(server)
    network.start()
    yield network
    network.close()


@pytest.fixture()
def client(net):
    host, port = net.address
    with Client(host=host, port=port, timeout=60.0) as instance:
        yield instance


class TestRemoteParity:
    def test_solve_round_trip_matches_in_process_engine(self, pipeline, net,
                                                        client, lena):
        reference = Engine(HEBSAlgorithm(pipeline)).process(lena, 10.0)
        solution = client.solve(Histogram.of_image(lena), 10.0)
        assert solution.backlight_factor == reference.backlight_factor
        assert solution.transform == reference.transform
        # client-side LUT application reproduces the server-side output
        local = solution.transform.apply(lena.to_grayscale())
        assert np.array_equal(local.pixels, reference.output.pixels)

    def test_compensate_is_bit_identical_to_remote_process(self, client,
                                                           pout):
        applied = client.compensate(pout, 10.0)
        processed = client.process(pout, 10.0)
        assert np.array_equal(applied.output.pixels,
                              processed.output.pixels)
        assert applied.backlight_factor == processed.backlight_factor

    def test_process_round_trip_matches_in_process_engine(self, pipeline,
                                                          client, baboon):
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        remote = client.process(baboon, 10.0)
        assert remote == reference        # dataclass equality: images,
        assert remote.distortion == reference.distortion   # operating point
        assert remote.power_saving == reference.power_saving

    def test_remote_session_matches_in_process_stream_session(
            self, pipeline, client, small_suite):
        frames = list(small_suite.values()) * 2
        reference_engine = Engine(HEBSAlgorithm(pipeline))
        with reference_engine.open_session(10.0) as reference:
            expected = [reference.submit(frame) for frame in frames]
        with client.open_session(10.0) as session:
            actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.applied_backlight == want.applied_backlight
            assert got.requested_backlight == want.requested_backlight
            assert got.scene_change == want.scene_change
            assert got.result == want.result
            assert np.array_equal(got.result.output.pixels,
                                  want.result.output.pixels)

    def test_session_options_cross_the_wire(self, client, small_suite):
        frames = list(small_suite.values())
        with client.open_session(10.0, scene_gated_solve=True,
                                 stability_bins=16) as session:
            outcomes = [session.submit(frame) for frame in frames]
        assert len(outcomes) == len(frames)

    def test_per_request_algorithm_override(self, client, lena):
        assert client.process(lena, 10.0, algorithm="cbcs").algorithm == "cbcs"
        solution = client.solve(lena, 10.0, algorithm="dls-brightness")
        assert solution.algorithm == "dls-brightness"

    def test_stats_rpc_reflects_traffic(self, client, lena):
        client.process(lena, 10.0)
        stats = client.stats()
        assert stats.completed >= 1
        assert stats.submitted >= stats.completed
        payload = client.stats_dict()
        assert payload["completed"] == stats.completed
        assert "sessions" in payload


class TestRemoteErrors:
    def test_bad_budget_raises_value_error(self, client, lena):
        with pytest.raises(ValueError):
            client.process(lena, -1.0)

    def test_unknown_algorithm_is_a_bad_request(self, client, lena):
        with pytest.raises(ValueError, match="unknown algorithm"):
            client.solve(lena, 10.0, algorithm="not-a-technique")

    def test_feeding_an_unknown_session_raises_session_closed(self, net):
        host, port = net.address
        with Client(host=host, port=port) as fresh:
            # a session id this connection never opened: the server answers
            # with a session_closed error frame, not a dropped connection
            response_error = None
            try:
                fresh._request(
                    lambda request_id, binary: protocol.feed_request(
                        request_id, "s99999", _tiny_image(), binary=binary),
                    expected="frame", reconnect=False)
            except SessionClosedError as exc:
                response_error = exc
            assert response_error is not None
            assert "unknown session" in str(response_error)

    def test_submitting_to_a_locally_closed_session_raises(self, net):
        host, port = net.address
        with Client(host=host, port=port) as fresh:
            session = fresh.open_session(10.0)
            session.close()
            with pytest.raises(SessionClosedError):
                session.submit(_tiny_image())

    def test_connection_still_usable_after_an_error(self, client, lena):
        with pytest.raises(ValueError):
            client.process(lena, -5.0)
        assert client.process(lena, 10.0).algorithm == "hebs"


def _tiny_image():
    from repro.imaging.image import Image
    return Image(np.arange(64, dtype=np.uint16).reshape(8, 8) * 4 % 256)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        assert chunk, "server closed the connection mid-frame"
        chunks += chunk
    return chunks


class _GatedAlgorithm(CompensationAlgorithm):
    """Delegates to a real technique but blocks every solve on a gate —
    the deterministic way to wedge the serving queue in tests."""

    name = "gated"
    description = "test-only: blocks solves until released"

    def __init__(self, inner: CompensationAlgorithm,
                 gate: threading.Event, entered: threading.Event) -> None:
        self._inner = inner
        self._gate = gate
        self._entered = entered

    def solve(self, image, max_distortion):
        self._entered.set()
        assert self._gate.wait(timeout=30.0), "test gate never released"
        return self._inner.solve(image, max_distortion)

    def apply_solution(self, solution, image, max_distortion=None):
        return self._inner.apply_solution(solution, image,
                                          max_distortion=max_distortion)


class TestOverloadAcrossTheHop:
    def test_overload_surfaces_as_typed_error_with_retry_after(self):
        gate, entered = threading.Event(), threading.Event()
        algorithm = _GatedAlgorithm(create("dls-brightness"), gate, entered)
        server = Server(engine=Engine(algorithm, cache_size=0),
                        workers=1, max_batch=1, max_pending=1)
        network = NetworkServer(server)
        host, port = network.start()
        try:
            rng = np.random.default_rng(5)
            images = [_random_image(rng) for _ in range(3)]

            def process_in_background(image):
                def run():
                    with Client(host=host, port=port, timeout=30.0) as c:
                        c.process(image, 10.0)
                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                return thread

            # first request occupies the single worker (blocked on the
            # gate), second fills the one-slot pending queue
            first = process_in_background(images[0])
            assert entered.wait(timeout=10.0)
            second = process_in_background(images[1])
            deadline = time.monotonic() + 10.0
            while server.queue_depth < 1:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.005)

            # the third client sees a typed overload — not a dropped
            # connection — with the server's structured back-off hints
            with Client(host=host, port=port, retries=0,
                        retry_overloaded=False) as third:
                with pytest.raises(ServerOverloadedError) as excinfo:
                    third.process(images[2], 10.0)
                assert excinfo.value.retry_after_seconds is not None
                assert excinfo.value.retry_after_seconds > 0
                assert excinfo.value.queue_depth == 1
                # the connection survived the refusal: release the jam and
                # the same socket serves the retry once the queue drains
                gate.set()
                first.join(timeout=30.0)
                second.join(timeout=30.0)
                result = third.process(images[2], 10.0)
                assert result.algorithm == "dls-brightness"
        finally:
            gate.set()
            network.close()

    def test_client_honors_retry_after_and_succeeds(self):
        gate, entered = threading.Event(), threading.Event()
        algorithm = _GatedAlgorithm(create("dls-brightness"), gate, entered)
        server = Server(engine=Engine(algorithm, cache_size=0),
                        workers=1, max_batch=1, max_pending=1)
        network = NetworkServer(server)
        host, port = network.start()
        try:
            rng = np.random.default_rng(6)
            images = [_random_image(rng) for _ in range(3)]
            first = threading.Thread(
                target=lambda: Client(host=host, port=port).process(
                    images[0], 10.0), daemon=True)
            first.start()
            assert entered.wait(timeout=10.0)
            second = threading.Thread(
                target=lambda: Client(host=host, port=port).process(
                    images[1], 10.0), daemon=True)
            second.start()
            deadline = time.monotonic() + 10.0
            while server.queue_depth < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)

            # release the jam shortly after the refusal: a retrying client
            # sleeping retry_after then resubmitting must succeed
            threading.Timer(0.05, gate.set).start()
            with Client(host=host, port=port, retries=40,
                        retry_overloaded=True) as patient:
                result = patient.process(images[2], 10.0)
            assert result.algorithm == "dls-brightness"
            first.join(timeout=30.0)
            second.join(timeout=30.0)
        finally:
            gate.set()
            network.close()


class TestWarmSolveOnTheLoop:
    def test_warm_solve_answers_while_the_solve_executor_is_wedged(self,
                                                                   lena):
        """A cache-hit solve RPC never waits for the solve executor: with
        its only thread held inside a cold solve, a warm one still
        answers, with the cached solution."""
        gate, entered = threading.Event(), threading.Event()
        algorithm = _GatedAlgorithm(create("dls-brightness"), gate, entered)
        engine = Engine(algorithm)
        gate.set()
        warm = engine.solve(lena, 10.0)
        gate.clear()
        entered.clear()
        network = NetworkServer(Server(engine=engine, workers=1),
                                solve_workers=1)
        host, port = network.start()
        try:
            cold = Histogram.of_image(_random_image(np.random.default_rng(7)))

            def solve_cold():
                with Client(host=host, port=port, timeout=30.0) as c:
                    c.solve(cold, 10.0)

            wedged = threading.Thread(target=solve_cold, daemon=True)
            wedged.start()
            assert entered.wait(timeout=10.0)
            with Client(host=host, port=port, timeout=10.0,
                        retries=0) as client:
                solution = client.solve(
                    Histogram.of_image(lena.to_grayscale()), 10.0)
            assert solution.backlight_factor == warm.backlight_factor
            assert solution.transform == warm.transform
            assert wedged.is_alive()            # the cold solve still waits
            gate.set()
            wedged.join(timeout=30.0)
        finally:
            gate.set()
            network.close()


def _random_image(rng) -> "object":
    from repro.imaging.image import Image
    return Image(rng.integers(0, 256, size=(16, 16)))


class TestConnectionLifecycle:
    def test_disconnect_closes_the_connections_sessions(self, net):
        host, port = net.address
        client = Client(host=host, port=port)
        client.open_session(10.0)
        assert net.server.session_count >= 1
        before = net.server.session_count
        client.close()
        deadline = time.monotonic() + 10.0
        while net.server.session_count >= before:
            assert time.monotonic() < deadline, \
                "disconnect did not reap the session"
            time.sleep(0.01)

    def test_unsupported_version_is_refused_with_a_typed_error(self, net):
        host, port = net.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(protocol.encode_frame(
                {"type": "hello", "version": 99}))
            header = _recv_exactly(sock, 4)
            payload = _recv_exactly(sock, protocol.frame_length(header))
            frame = protocol.decode_frame(payload)
            assert frame["type"] == "error"
            assert frame["code"] == "unsupported_version"
            # ... and the server hangs up afterwards
            assert sock.recv(1) == b""

    def test_garbage_instead_of_hello_drops_the_connection(self, net):
        host, port = net.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(protocol.encode_frame({"type": "stats", "id": 1}))
            header = _recv_exactly(sock, 4)
            payload = _recv_exactly(sock, protocol.frame_length(header))
            assert protocol.decode_frame(payload)["code"] == \
                "unsupported_version"

    def test_client_reconnects_after_a_lost_connection(self, net, lena):
        host, port = net.address
        client = Client(host=host, port=port, retries=3, backoff=0.01)
        assert client.process(lena, 10.0).algorithm == "hebs"
        # sever the socket under the client; the next call must reconnect
        client._sock.close()
        assert client.process(lena, 10.0).algorithm == "hebs"
        client.close()


class TestProtocolV2:
    def test_default_client_negotiates_v2(self, net, client):
        assert client.protocol_version == 2
        assert "protocol v2" in repr(client)

    def test_capped_client_stays_on_v1(self, net, pipeline, baboon):
        host, port = net.address
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        with Client(host=host, port=port, max_version=1) as v1:
            assert v1.protocol_version == 1
            assert "protocol v1" in repr(v1)
            assert v1.process(baboon, 10.0) == reference

    def test_invalid_max_version_is_rejected_client_side(self):
        with pytest.raises(ValueError, match="max_version"):
            Client(max_version=3)
        with pytest.raises(ValueError, match="max_version"):
            Client(max_version=0)

    def test_v1_and_v2_lanes_are_bit_identical(self, net, pipeline,
                                               small_suite):
        host, port = net.address
        engine = Engine(HEBSAlgorithm(pipeline))
        frames = list(small_suite.values())
        with Client(host=host, port=port, max_version=1) as v1, \
                Client(host=host, port=port) as v2:
            for frame in frames:
                want = engine.process(frame, 10.0)
                assert v1.process(frame, 10.0) == want
                assert v2.process(frame, 10.0) == want

    def test_v2_session_feed_matches_in_process_stream(self, net, pipeline,
                                                       small_suite):
        host, port = net.address
        frames = list(small_suite.values()) * 2
        with Engine(HEBSAlgorithm(pipeline)).open_session(10.0) as reference:
            expected = [reference.submit(frame) for frame in frames]
        with Client(host=host, port=port) as v2:
            assert v2.protocol_version == 2
            with v2.open_session(10.0) as session:
                actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.result == want.result
            assert got.applied_backlight == want.applied_backlight

    def test_v2_ships_fewer_bytes_than_v1(self, net, baboon):
        host, port = net.address

        def traffic(**options):
            with Client(host=host, port=port, **options) as instance:
                instance.process(baboon, 10.0)
                return instance.bytes_sent + instance.bytes_received

        assert traffic() * 3 <= traffic(max_version=1)

    def test_connection_version_counters_in_stats(self, net):
        host, port = net.address
        with Client(host=host, port=port) as v2, \
                Client(host=host, port=port, max_version=1) as v1:
            payload = v2.stats_dict()
            assert payload["connections_v2"] >= 1
            assert payload["connections_v1"] >= 1
            before_v1 = payload["connections_v1"]
            v1.process(_tiny_image(), 10.0)    # keep the v1 client live
        # ... and they are gauges: the counts drop on disconnect
        deadline = time.monotonic() + 10.0
        with Client(host=host, port=port) as probe:
            while probe.stats_dict()["connections_v1"] >= before_v1:
                assert time.monotonic() < deadline, \
                    "v1 connection gauge never dropped"
                time.sleep(0.01)

    def test_disconnected_client_repr(self):
        assert "disconnected" in repr(Client(port=1))


def _handshake(sock: socket.socket, max_version: int = 2) -> dict:
    from repro.serve import wire2

    sock.sendall(protocol.encode_frame(
        protocol.hello_frame(max_version=max_version)))
    header = _recv_exactly(sock, 4)
    return protocol.decode_frame(
        _recv_exactly(sock, protocol.frame_length(header)))


def _exchange_raw(sock: socket.socket, payload: bytes) -> tuple[int, dict]:
    from repro.serve import wire2

    sock.sendall(len(payload).to_bytes(4, "big") + payload)
    header = _recv_exactly(sock, 4)
    return wire2.decode_any(
        _recv_exactly(sock, protocol.frame_length(header)))


class TestMalformedArrayFrames:
    """Satellite regression: a malformed wire array (shape/payload
    mismatch, unrecognized dtype) must come back as a typed bad_request
    error frame and LEAVE THE CONNECTION OPEN — these used to kill the
    connection with a raw numpy exception."""

    def _bad_process_v2(self, *, dtype: str = "|u1",
                        shape=None) -> bytes:
        import json as _json

        descriptor = {"$seg": 0, "dtype": dtype,
                      "shape": [5, 5] if shape is None else shape}
        header = _json.dumps(
            {"type": "process", "id": 31,
             "image": {"pixels": descriptor, "bit_depth": 8, "name": "x"},
             "max_distortion": 10.0, "algorithm": None},
            separators=(",", ":")).encode()
        segment = b"\x00" * 16
        return (b"R2\x02\x00" + len(header).to_bytes(4, "big")
                + (1).to_bytes(2, "big") + len(segment).to_bytes(4, "big")
                + header + segment)

    @pytest.mark.parametrize("kwargs", [
        {"shape": [5, 5]},          # declares 25 bytes, payload has 16
        {"dtype": "V4", "shape": [4]},      # void dtype
        {"shape": [-1]},            # reshape inference
    ])
    def test_v2_bad_array_is_a_bad_request_and_the_socket_survives(
            self, net, kwargs):
        host, port = net.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            assert _handshake(sock)["version"] == 2
            version, frame = _exchange_raw(sock, self._bad_process_v2(
                **kwargs))
            assert version == 2    # the reply travels the request's codec
            assert frame["type"] == "error"
            assert frame["code"] == "bad_request"
            assert frame["id"] == 31
            # the connection is still serving: a well-formed request on
            # the very same socket answers normally
            version, frame = _exchange_raw(
                sock, protocol.encode_frame(protocol.stats_request(32))[4:])
            assert (version, frame["type"]) == (1, "stats")

    def test_v1_bad_array_is_a_bad_request_and_the_socket_survives(
            self, net):
        host, port = net.address
        bad = protocol.process_request(7, _tiny_image(), 10.0)
        bad["image"]["pixels"]["shape"] = [3]    # mismatches the payload
        with socket.create_connection((host, port), timeout=10.0) as sock:
            assert _handshake(sock, max_version=1)["version"] == 1
            version, frame = _exchange_raw(
                sock, protocol.encode_frame(bad)[4:])
            assert (version, frame["type"]) == (1, "error")
            assert frame["code"] == "bad_request"
            assert frame["id"] == 7
            version, frame = _exchange_raw(
                sock, protocol.encode_frame(protocol.stats_request(8))[4:])
            assert frame["type"] == "stats"

    def test_malformed_v2_envelope_is_a_bad_request(self, net):
        host, port = net.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            assert _handshake(sock)["version"] == 2
            # valid prefix, truncated body: still a typed refusal
            version, frame = _exchange_raw(sock, b"R2\x02\x00" + b"\xff" * 8)
            assert frame["type"] == "error"
            assert frame["code"] == "bad_request"


class TestAsyncClient:
    def test_async_client_full_surface(self, net, lena, pout):
        import asyncio

        host, port = net.address

        async def scenario():
            async with AsyncClient(host=host, port=port) as client:
                solution = await client.solve(Histogram.of_image(lena), 10.0)
                applied = await client.compensate(lena, 10.0)
                result = await client.process(lena, 10.0)
                assert solution.backlight_factor == result.backlight_factor
                assert np.array_equal(applied.output.pixels,
                                      result.output.pixels)
                async with await client.open_session(10.0) as session:
                    outcome = await session.submit(pout)
                    assert 0.0 < outcome.applied_backlight <= 1.0
                stats = await client.stats()
                assert stats.completed >= 1

        asyncio.run(scenario())

    def test_many_async_clients_share_the_server(self, net, small_suite):
        import asyncio

        host, port = net.address
        images = list(small_suite.values())

        async def one(image):
            async with AsyncClient(host=host, port=port) as client:
                return await client.process(image, 10.0)

        async def scenario():
            return await asyncio.gather(*(one(image) for image in images))

        results = asyncio.run(scenario())
        assert [r.original for r in results] == \
            [image.to_grayscale() for image in images]

    def test_async_client_negotiates_v2_and_says_so(self, net):
        import asyncio

        host, port = net.address

        async def scenario():
            client = AsyncClient(host=host, port=port)
            assert "disconnected" in repr(client)
            async with client:
                await client.stats()
                assert client.protocol_version == 2
                assert "protocol v2" in repr(client)

        asyncio.run(scenario())

    def test_async_client_can_be_capped_to_v1(self, net, lena, pipeline):
        import asyncio

        host, port = net.address
        reference = Engine(HEBSAlgorithm(pipeline)).process(lena, 10.0)

        async def scenario():
            async with AsyncClient(host=host, port=port,
                                   max_version=1) as client:
                result = await client.process(lena, 10.0)
                assert client.protocol_version == 1
                assert result == reference

        asyncio.run(scenario())

    def test_one_async_client_multiplexes_concurrent_calls(self, net,
                                                           pipeline,
                                                           small_suite):
        import asyncio

        host, port = net.address
        engine = Engine(HEBSAlgorithm(pipeline))
        images = list(small_suite.values()) * 2
        expected = [engine.process(image, 10.0) for image in images]

        async def scenario():
            # ONE connection, many in-flight requests: responses come
            # back in whatever order the server finishes and must be
            # correlated by id, not arrival order
            async with AsyncClient(host=host, port=port) as client:
                results = await asyncio.gather(
                    *(client.process(image, 10.0) for image in images))
                assert client.protocol_version == 2
                return results

        results = asyncio.run(scenario())
        for got, want in zip(results, expected):
            assert got == want
