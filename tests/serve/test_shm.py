"""Tests for the same-host shared-memory lane (repro.serve.shm).

The lane is a negotiated optimization, never a correctness surface: a
client that gets it produces bit-identical results to the socket lane, a
spoofed same-host claim is refused, and every shared block is unlinked on
shutdown from whichever side survives (leak-proofing — blocks outlive
processes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.registry import HEBSAlgorithm
from repro.client import Client
from repro.imaging.image import Image
from repro.serve import NetworkServer, Server, protocol
from repro.serve import shm as shm_lane
from repro.serve.protocol import ProtocolError

pytestmark = pytest.mark.skipif(not shm_lane.shm_available(),
                                reason="multiprocessing.shared_memory "
                                       "unavailable")


@pytest.fixture(scope="module")
def net(pipeline):
    server = Server(engine=Engine(HEBSAlgorithm(pipeline)), workers=2)
    network = NetworkServer(server)
    network.start()
    yield network
    network.close()


class TestNegotiation:
    def test_same_host_client_gets_the_lane(self, net):
        host, port = net.address
        with Client(host=host, port=port, shm=True) as client:
            assert client.protocol_version == 2
            assert client._shm is not None and client._shm.active
            assert "+shm" in repr(client)

    def test_lane_is_off_by_default(self, net):
        host, port = net.address
        with Client(host=host, port=port) as client:
            assert client._shm is None
            assert "+shm" not in repr(client)

    def test_v1_connection_never_gets_the_lane(self, net):
        host, port = net.address
        with Client(host=host, port=port, shm=True,
                    max_version=1) as client:
            assert client.protocol_version == 1
            assert client._shm is None or not client._shm.active

    def test_spoofed_offer_is_refused(self, net):
        import socket

        host, port = net.address
        # a remote attacker guessing block names: the probe attach (or
        # the nonce compare) fails, and the server answers shm: false
        spoof = {"name": "psm_no_such_block_0", "nonce": "ab" * 16}
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(protocol.encode_frame(
                protocol.hello_frame(max_version=2, shm=spoof)))
            header = sock.recv(4)
            payload = sock.recv(protocol.frame_length(header))
            hello = protocol.decode_frame(payload)
        assert hello["version"] == 2
        assert not hello.get("shm")

    def test_wrong_nonce_fails_verification(self):
        lane = shm_lane.ShmLane()
        try:
            offer = lane.offer()
            assert shm_lane.ShmRegistry.verify_offer(offer)
            forged = dict(offer, nonce="00" * 16)
            assert not shm_lane.ShmRegistry.verify_offer(forged)
        finally:
            lane.close()

    @pytest.mark.parametrize("offer", [
        None, "block", {}, {"name": "x"}, {"nonce": "zz"},
        {"name": "x", "nonce": ""}, {"name": "x", "nonce": "not hex"},
    ])
    def test_malformed_offers_are_refused(self, offer):
        assert not shm_lane.ShmRegistry.verify_offer(offer)


class TestParity:
    def test_shm_process_is_bit_identical_to_the_socket_lane(
            self, net, pipeline, small_suite):
        host, port = net.address
        engine = Engine(HEBSAlgorithm(pipeline))
        with Client(host=host, port=port, shm=True) as lane:
            assert lane._shm is not None and lane._shm.active
            for frame in small_suite.values():
                want = engine.process(frame, 10.0)
                assert lane.process(frame, 10.0) == want

    def test_shm_feed_is_bit_identical_to_the_socket_lane(
            self, net, pipeline, small_suite):
        host, port = net.address
        frames = list(small_suite.values()) * 2
        with Engine(HEBSAlgorithm(pipeline)).open_session(10.0) as local:
            expected = [local.submit(frame) for frame in frames]
        with Client(host=host, port=port, shm=True) as lane:
            with lane.open_session(10.0) as session:
                actual = [session.submit(frame) for frame in frames]
        for got, want in zip(actual, expected):
            assert got.result == want.result
            assert got.applied_backlight == want.applied_backlight

    def test_shm_feed_ships_no_pixels_over_the_socket(self, net, baboon):
        host, port = net.address

        def feed_bytes(**options):
            with Client(host=host, port=port, **options) as client:
                with client.open_session(10.0) as session:
                    base = client.bytes_sent
                    session.submit(baboon)
                    return client.bytes_sent - base

        # the control frame is ~100 bytes of block reference; the socket
        # lane ships the full pixel payload
        assert feed_bytes(shm=True) * 10 <= feed_bytes()

    def test_pipeline_bypasses_the_shm_lane(self, net, lena, pipeline):
        # pipelined traffic is not lockstep: the single data block would
        # be overwritten under an in-flight request, so it stays on the
        # socket — and still answers bit-exactly
        host, port = net.address
        want = Engine(HEBSAlgorithm(pipeline)).process(lena, 10.0)
        with Client(host=host, port=port, shm=True) as client:
            base = client.bytes_sent
            with client.pipeline() as batch:
                reply = batch.process(lena, 10.0)
            assert reply.result() == want
            assert client.bytes_sent - base > lena.pixels.size  # real pixels


class TestLifecycle:
    def _attach(self, name: str):
        from multiprocessing import shared_memory
        return shared_memory.SharedMemory(name=name)

    def test_client_close_unlinks_its_blocks(self, net, lena):
        host, port = net.address
        client = Client(host=host, port=port, shm=True)
        client.process(lena, 10.0)
        block_name = client._shm._data.name
        self._attach(block_name).close()    # alive while the client is
        client.close()
        with pytest.raises(FileNotFoundError):
            self._attach(block_name)

    def test_probe_block_is_retired_right_after_the_handshake(self, net):
        host, port = net.address
        with Client(host=host, port=port, shm=True) as client:
            assert client._shm._probe is None

    def test_registry_close_unlinks_attachments(self):
        # the crashed-client insurance: the server unlinks whatever the
        # client leaked
        lane = shm_lane.ShmLane()
        lane.conclude(True)
        registry = shm_lane.ShmRegistry()
        try:
            descriptor = lane.send_image(Image(np.full((8, 8), 40)))
            image = registry.resolve({"shm": descriptor})
            assert np.array_equal(image.pixels, np.full((8, 8), 40))
            name = descriptor["block"]
            registry.close()
            with pytest.raises(FileNotFoundError):
                self._attach(name)
        finally:
            lane.close()    # loses the unlink race; must not raise

    def test_resolved_image_is_a_copy(self):
        lane = shm_lane.ShmLane()
        lane.conclude(True)
        registry = shm_lane.ShmRegistry()
        try:
            first = registry.resolve(
                {"shm": lane.send_image(Image(np.full((4, 4), 10)))})
            second = registry.resolve(
                {"shm": lane.send_image(Image(np.full((4, 4), 200)))})
            # the client reused its block; the first image must not move
            assert int(first.pixels[0, 0]) == 10
            assert int(second.pixels[0, 0]) == 200
        finally:
            registry.close()
            lane.close()


class TestMalformedReferences:
    def _registry(self):
        return shm_lane.ShmRegistry()

    def test_unknown_block_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown shared-memory"):
            self._registry().resolve({"shm": {
                "block": "psm_gone", "dtype": "|u1", "shape": [4],
                "nbytes": 4, "bit_depth": 8}})

    def test_non_mapping_reference_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            self._registry().resolve({"shm": "a-name"})

    def test_descriptor_validation_matches_the_socket_codecs(self):
        lane = shm_lane.ShmLane()
        lane.conclude(True)
        registry = self._registry()
        try:
            descriptor = lane.send_image(Image(np.zeros((4, 4))))
            with pytest.raises(ProtocolError, match="dtype"):
                registry.resolve({"shm": dict(descriptor, dtype="V4")})
            with pytest.raises(ProtocolError, match="negative"):
                registry.resolve({"shm": dict(descriptor, shape=[-1])})
        finally:
            registry.close()
            lane.close()

    def test_oversized_claim_is_refused(self):
        lane = shm_lane.ShmLane()
        lane.conclude(True)
        registry = self._registry()
        try:
            descriptor = lane.send_image(Image(np.zeros((4, 4))))
            huge = {"shm": dict(descriptor, nbytes=1 << 20,
                                shape=[1 << 20])}
            with pytest.raises(ProtocolError, match="block"):
                registry.resolve(huge)
        finally:
            registry.close()
            lane.close()

    def test_server_answers_bad_request_for_a_dead_block(self, net, lena):
        host, port = net.address
        with Client(host=host, port=port, shm=True) as client:
            assert client._shm.active
            # sabotage: unlink the data block under the lane, then feed
            client.process(lena, 10.0)
            from multiprocessing import shared_memory
            name = client._shm._data.name
            shared_memory.SharedMemory(name=name).unlink()
            client._shm._data.close()
            client._shm._data = None
            # next send recreates a block; the lane recovers cleanly
            result = client.process(lena, 10.0)
            assert result.algorithm == "hebs"
