"""End-to-end tests for the cluster router (repro.cluster.router).

Real ``NetworkServer`` shards on loopback sockets, a real
:class:`~repro.cluster.ClusterRouter` in front, the unmodified client SDK
talking to it: routing by content key, session pinning, health-checked
failover (one-shot RPCs fail over; sessions die with their shard and
surface :class:`SessionClosedError`, never a hang or a silent re-route),
and the aggregated ``stats`` RPC.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.api.session import SessionClosedError
from repro.client import Client, RemoteServerAdapter
from repro.cluster import ClusterRouter
from repro.core.histogram import Histogram
from repro.serve import NetworkServer, Server, ServerOverloadedError
from repro.serve import protocol


def make_shard(pipeline) -> NetworkServer:
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
    network = NetworkServer(server)
    network.start()
    return network


@pytest.fixture()
def shards(pipeline):
    servers = [make_shard(pipeline) for _ in range(3)]
    yield servers
    for server in servers:
        server.close()


@pytest.fixture()
def router(shards):
    addresses = [f"{host}:{port}" for host, port in
                 (shard.address for shard in shards)]
    # slow periodic probe: tests drive health transitions via probe_now()
    with ClusterRouter(addresses, health_interval=30.0,
                       health_timeout=2.0, request_timeout=20.0) as instance:
        yield instance


@pytest.fixture()
def client(router):
    host, port = router.address
    with Client(host=host, port=port, timeout=20.0) as instance:
        yield instance


class TestRoutingParity:
    def test_solve_through_router_matches_direct_shard(self, pipeline,
                                                       shards, client, lena):
        host, port = shards[0].address
        with Client(host=host, port=port) as direct:
            want = direct.solve(Histogram.of_image(lena), 10.0)
        got = client.solve(Histogram.of_image(lena), 10.0)
        assert got.backlight_factor == want.backlight_factor
        assert got.transform == want.transform

    def test_process_through_router_matches_in_process_engine(
            self, pipeline, client, baboon):
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        remote = client.process(baboon, 10.0)
        assert np.array_equal(remote.output.pixels,
                              reference.output.pixels)
        assert remote.backlight_factor == reference.backlight_factor

    def test_duplicates_route_to_one_shard(self, client, router, lena):
        for _ in range(6):
            client.solve(Histogram.of_image(lena), 10.0)
        routed = router.counters.routed
        assert sum(routed.values()) == 6
        # cache affinity: every duplicate landed on the key's owner
        assert max(routed.values()) == 6

    def test_routing_key_is_content_not_transport(self, client, router,
                                                  lena):
        # solve-by-histogram and process-by-image of the SAME frame
        # must land on the same shard: the key is the histogram
        # signature, however the request arrives
        client.solve(Histogram.of_image(lena), 10.0)
        client.process(lena, 10.0)
        assert len(router.counters.routed) == 1

    def test_distinct_images_spread_over_shards(self, client, router,
                                                small_suite):
        rng = np.random.default_rng(7)
        from repro.imaging.image import Image
        for _ in range(12):
            pixels = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            client.solve(Histogram.of_image(Image(pixels)), 10.0)
        assert sum(router.counters.routed.values()) == 12
        assert len(router.counters.routed) >= 2

    def test_router_identifies_itself_in_stats(self, client):
        payload = client.stats_dict()
        assert payload["shard_id"] == "cluster"
        assert payload["cluster"]["shards_configured"] == 3
        assert payload["cluster"]["shards_up"] == 3


class TestSessions:
    def test_remote_session_through_router(self, pipeline, client,
                                           small_suite):
        frames = list(small_suite.values())
        with Engine(HEBSAlgorithm(pipeline)).open_session(10.0) as reference:
            expected = [reference.submit(frame) for frame in frames]
        with client.open_session(10.0) as session:
            actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.result.backlight_factor == \
                want.result.backlight_factor

    def test_sessions_balance_over_shards(self, client, router):
        sessions = [client.open_session(10.0) for _ in range(3)]
        try:
            assert sum(router.counters.sessions_routed.values()) == 3
            # least-loaded placement: 3 sessions over 3 shards = 1 each
            assert set(router.counters.sessions_routed.values()) == {1}
        finally:
            for session in sessions:
                session.close()
        assert sum(router._session_load.values()) == 0

    def test_session_ids_are_namespaced_by_shard(self, client, router):
        sessions = [client.open_session(10.0) for _ in range(3)]
        try:
            ids = {session.id for session in sessions}
            assert len(ids) == 3
            # shards allocate ids independently (all start at s00000);
            # the router's shard-index prefix keeps them distinct
            assert {name.split(":")[1] for name in ids} == {"s00000"}
        finally:
            for session in sessions:
                session.close()

    def test_close_is_idempotent_through_router(self, client, lena):
        session = client.open_session(10.0)
        session.submit(lena)
        session.close()
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit(lena)

    def test_disconnect_closes_sessions_on_the_shards(self, router, shards,
                                                      lena):
        host, port = router.address
        client = Client(host=host, port=port, timeout=20.0)
        session = client.open_session(10.0)
        session.submit(lena)
        shard_index = int(session.id.split(":")[0])
        client.close()
        # close-on-disconnect cascades: the shard's own session count
        # drains once the router notices the client is gone
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if shards[shard_index].server.session_count == 0:
                break
            time.sleep(0.02)
        assert shards[shard_index].server.session_count == 0
        assert sum(router._session_load.values()) == 0


class TestFailover:
    def test_one_shot_rpcs_fail_over_past_a_dead_shard(self, client, router,
                                                       shards, small_suite):
        frames = list(small_suite.values())
        for frame in frames:
            client.solve(Histogram.of_image(frame), 10.0)
        # kill a shard that owns at least one of the keys, so the walk
        # actually has something to fail over
        address = max(router.counters.routed,
                      key=router.counters.routed.get)
        victim = router.shards.index(address)
        shards[victim].close()
        # every request still answers; the dead shard's keys hop to the
        # next shard on the ring walk
        for frame in frames:
            solution = client.solve(Histogram.of_image(frame), 10.0)
            assert 0.0 < solution.backlight_factor <= 1.0
        assert not router.health[address].up

    def test_failover_is_recorded(self, client, router, shards, lena):
        client.solve(Histogram.of_image(lena), 10.0)
        owner = max(router.counters.routed, key=router.counters.routed.get)
        index = router.shards.index(owner)
        shards[index].close()
        client.solve(Histogram.of_image(lena), 10.0)
        assert router.counters.failovers >= 1

    def test_probe_marks_down_and_back_up(self, router, shards, pipeline):
        victim = router.shards[1]
        host, port = shards[1].address
        shards[1].close()
        for _ in range(2):
            router.probe_now()
        assert not router.health[victim].up
        assert router.health[victim].markdowns == 1
        # resurrect a shard on the same port: the probe marks it up
        server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
        revived = NetworkServer(server, host=host, port=port)
        revived.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                router.probe_now()
                if router.health[victim].up:
                    break
                time.sleep(0.05)
            assert router.health[victim].up
            assert router.health[victim].markups == 1
        finally:
            shards[1] = revived    # fixture teardown closes it

    def test_feed_to_a_dead_shard_raises_session_closed(self, client,
                                                        router, shards,
                                                        lena):
        session = client.open_session(10.0)
        session.submit(lena)
        shard_index = int(session.id.split(":")[0])
        shards[shard_index].close()
        # a session is NEVER silently re-routed: its stream state died
        # with the shard, so the client hears SessionClosedError fast
        with pytest.raises(SessionClosedError):
            session.submit(lena)
        address = router.shards[shard_index]
        assert not router.health[address].up

    def test_open_session_avoids_down_shards(self, client, router, shards,
                                             lena):
        shards[2].close()
        router.probe_now()
        router.probe_now()
        down = router.shards[2]
        assert not router.health[down].up
        sessions = [client.open_session(10.0) for _ in range(4)]
        try:
            for session in sessions:
                session.submit(lena)
            assert router.counters.sessions_routed.get(down, 0) == 0
        finally:
            for session in sessions:
                session.close()

    def test_all_shards_down_surfaces_overloaded_with_retry_after(
            self, pipeline, lena):
        shard = make_shard(pipeline)
        addresses = [f"{shard.address[0]}:{shard.address[1]}"]
        with ClusterRouter(addresses, health_interval=30.0,
                           request_timeout=5.0) as router:
            host, port = router.address
            # retries=0: surface the typed error instead of retrying
            with Client(host=host, port=port, retries=0) as client:
                client.solve(Histogram.of_image(lena), 10.0)
                shard.close()
                with pytest.raises(ServerOverloadedError) as excinfo:
                    client.solve(Histogram.of_image(lena), 10.0)
                # retry-after-aware: the hint spans a probe interval so
                # the SDK's retry lands after a mark-up had a chance
                assert excinfo.value.retry_after_seconds >= \
                    protocol.DEFAULT_RETRY_AFTER


class TestAdapterCloseRace:
    def test_adapter_close_raced_with_in_flight_feeds(self, router, shards,
                                                      small_suite):
        """Satellite: RemoteServerAdapter.close() racing in-flight feeds
        during shard failover must surface SessionClosedError (or a
        clean connection teardown) — never hang, never re-route."""
        host, port = router.address
        frames = list(small_suite.values()) * 4
        adapter = RemoteServerAdapter(f"{host}:{port}", timeout=20.0)
        handle = adapter.open_session(10.0)
        errors: list[BaseException] = []

        def feeder() -> None:
            try:
                for frame in frames:
                    handle.submit(frame).result(timeout=20.0)
            except (SessionClosedError, ConnectionError, OSError,
                    RuntimeError) as exc:
                errors.append(exc)

        shard_index = int(handle.id.split(":")[0])
        thread = threading.Thread(target=feeder)
        thread.start()
        time.sleep(0.05)            # let some feeds get in flight
        shards[shard_index].close()
        adapter.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "feeder hung on adapter close"

    def test_loadgen_drives_the_router_like_a_single_server(self, router,
                                                            small_suite):
        from repro.serve.loadgen import run_load

        host, port = router.address
        workload = list(small_suite.values()) * 3
        with RemoteServerAdapter(f"{host}:{port}", timeout=20.0) as remote:
            report = run_load(remote, workload, 10.0, clients=3)
        assert report.requests == len(workload)
        assert report.errors == 0
        assert report.stats.shard_id == "cluster"


class TestAggregatedStats:
    def test_stats_rpc_merges_all_shards(self, client, router, small_suite):
        for frame in small_suite.values():
            client.process(frame, 10.0)
        payload = client.stats_dict()
        assert payload["completed"] == \
            sum(shard["completed"] for shard in payload["shards"].values())
        assert payload["completed"] >= len(small_suite)
        assert set(payload["cluster"]["routed"]) <= set(router.shards)

    def test_client_stats_object_works_against_a_router(self, client, lena):
        client.process(lena, 10.0)
        stats = client.stats()
        assert stats.shard_id == "cluster"
        assert stats.completed >= 1

    def test_shard_payloads_carry_their_shard_id(self, client):
        payload = client.stats_dict()
        for shard_id, shard in payload["shards"].items():
            assert shard["shard_id"] == shard_id

    def test_stats_skip_dead_shards(self, client, router, shards):
        shards[0].close()
        router.probe_now()
        payload = client.stats_dict()
        assert len(payload["shards"]) == 2
        assert payload["cluster"]["shards_up"] == 2
        assert payload["cluster"]["shards_down"] == [router.shards[0]]


class TestProtocolV2Routing:
    """The bytes-through fast path: v2 frames between v2 peers cross the
    router with only an O(header) restamp, and a v1-capped shard fleet
    gets transcoded frames — both bit-identical to the in-process
    engine."""

    def test_v2_process_takes_the_fast_path(self, pipeline, client, router,
                                            baboon):
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        assert client.protocol_version == 2
        remote = client.process(baboon, 10.0)
        assert remote == reference
        assert router.counters.frames_fast_path >= 1
        assert router.counters.frames_transcoded == 0

    def test_v2_solve_takes_the_fast_path(self, client, router, lena):
        solution = client.solve(Histogram.of_image(lena), 10.0)
        assert 0.0 < solution.backlight_factor <= 1.0
        assert router.counters.frames_fast_path >= 1

    def test_v2_session_feeds_take_the_fast_path(self, pipeline, client,
                                                 router, small_suite):
        frames = list(small_suite.values())
        with Engine(HEBSAlgorithm(pipeline)).open_session(10.0) as local:
            expected = [local.submit(frame) for frame in frames]
        with client.open_session(10.0) as session:
            actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.result == want.result
        assert router.counters.frames_fast_path >= len(frames)

    def test_v1_client_through_a_v2_fleet(self, pipeline, router, baboon):
        # cross-version matrix: the router speaks v1 toward the client
        # and v2 toward the shards; outputs stay bit-identical
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        host, port = router.address
        with Client(host=host, port=port, max_version=1,
                    timeout=20.0) as v1:
            assert v1.protocol_version == 1
            assert v1.process(baboon, 10.0) == reference

    def test_mixed_clients_share_the_router(self, pipeline, router,
                                            small_suite):
        engine = Engine(HEBSAlgorithm(pipeline))
        host, port = router.address
        with Client(host=host, port=port, max_version=1) as v1, \
                Client(host=host, port=port) as v2:
            for frame in small_suite.values():
                want = engine.process(frame, 10.0)
                assert v1.process(frame, 10.0) == want
                assert v2.process(frame, 10.0) == want

    def test_routing_counters_ride_the_stats_rpc(self, client, router,
                                                 lena):
        client.process(lena, 10.0)
        payload = client.stats_dict()
        cluster = payload["cluster"]
        assert cluster["frames_fast_path"] == \
            router.counters.frames_fast_path
        assert cluster["frames_transcoded"] == \
            router.counters.frames_transcoded
        assert payload["connections_v2"] >= 1   # shard-side gauges summed

    def test_router_never_accepts_the_shm_lane(self, router, lena):
        # the pixels must cross the network to a shard; a same-host claim
        # against the *router* is meaningless and is never echoed
        host, port = router.address
        with Client(host=host, port=port, shm=True, timeout=20.0) as c:
            assert c._shm is None or not c._shm.active
            assert c.process(lena, 10.0).algorithm == "hebs"

    def test_pipelined_batch_through_the_router(self, pipeline, client,
                                                small_suite):
        engine = Engine(HEBSAlgorithm(pipeline))
        images = list(small_suite.values())
        with client.pipeline() as batch:
            replies = [batch.process(image, 10.0) for image in images]
        for image, reply in zip(images, replies):
            assert reply.result() == engine.process(image, 10.0)


class TestV1ShardFleet:
    """A router pinned to v1 toward its shards (`shard_max_version=1`)
    transcodes v2 client traffic instead of forwarding bytes."""

    @pytest.fixture()
    def v1_router(self, shards):
        addresses = [f"{host}:{port}" for host, port in
                     (shard.address for shard in shards)]
        with ClusterRouter(addresses, health_interval=30.0,
                           health_timeout=2.0, request_timeout=20.0,
                           shard_max_version=1) as instance:
            yield instance

    def test_v2_client_traffic_is_transcoded(self, pipeline, v1_router,
                                             baboon):
        reference = Engine(HEBSAlgorithm(pipeline)).process(baboon, 10.0)
        host, port = v1_router.address
        with Client(host=host, port=port, timeout=20.0) as v2:
            assert v2.protocol_version == 2
            assert v2.process(baboon, 10.0) == reference
        assert v1_router.counters.frames_transcoded >= 1
        assert v1_router.counters.frames_fast_path == 0

    def test_sessions_cross_the_version_boundary(self, pipeline, v1_router,
                                                 small_suite):
        frames = list(small_suite.values())
        with Engine(HEBSAlgorithm(pipeline)).open_session(10.0) as local:
            expected = [local.submit(frame) for frame in frames]
        host, port = v1_router.address
        with Client(host=host, port=port, timeout=20.0) as v2:
            with v2.open_session(10.0) as session:
                actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.result == want.result
            assert got.applied_backlight == want.applied_backlight

    def test_links_report_the_negotiated_shard_version(self, v1_router,
                                                       lena):
        host, port = v1_router.address
        with Client(host=host, port=port, timeout=20.0) as v2:
            v2.solve(Histogram.of_image(lena), 10.0)
        assert all(link.version == 1
                   for link in v1_router._links.values()
                   if link is not None)


class TestRouterSurface:
    def test_router_hello_carries_router_identity(self, router):
        import socket

        host, port = router.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(protocol.encode_frame(protocol.hello_frame()))
            header = sock.recv(protocol.HEADER_BYTES)
            frame = sock.recv(protocol.frame_length(header))
            hello = protocol.decode_frame(frame)
        assert hello["type"] == "hello"
        assert hello["shard_id"].startswith("router@")

    def test_router_answers_health_itself(self, router):
        import socket

        host, port = router.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(protocol.encode_frame(protocol.hello_frame()))
            header = sock.recv(protocol.HEADER_BYTES)
            sock.recv(protocol.frame_length(header))
            sock.sendall(protocol.encode_frame(protocol.health_request(1)))
            header = sock.recv(protocol.HEADER_BYTES)
            frame = sock.recv(protocol.frame_length(header))
            health = protocol.decode_frame(frame)
        assert health["type"] == "health"
        assert health["shard_id"].startswith("router@")
        assert health["status"] == "ok"

    def test_rejects_empty_and_duplicate_membership(self):
        with pytest.raises(ValueError):
            ClusterRouter([])
        with pytest.raises(ValueError):
            ClusterRouter(["127.0.0.1:1", "127.0.0.1:1"])

    def test_overloaded_probe_counts_as_alive(self):
        # an overloaded error frame is proof of life, not a failure
        health_response = protocol.error_response(
            0, ServerOverloadedError("full", queue_depth=9,
                                     retry_after_seconds=0.1))
        assert health_response["code"] == "overloaded"
