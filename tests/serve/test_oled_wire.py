"""Wire round-trips for the emissive (OLED) workload.

The acceptance surface of PR 9's traffic diversification: darkening LUTs
must cross protocol v1 (base64 arrays) and v2 (zero-copy binary frames)
bit-exactly, results must compare equal to the in-process engine, and a
malformed OLED solve must come back as a typed ``bad_request`` that leaves
the connection open.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.client import Client
from repro.core.darken import DarkenSolution
from repro.core.histogram import Histogram
from repro.serve import NetworkServer, Server, protocol


@pytest.fixture(scope="module")
def net():
    """A network server over a default engine (algorithm per request)."""
    server = Server(engine=Engine(), workers=2)
    network = NetworkServer(server)
    network.start()
    yield network
    network.close()


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def client(net, request):
    host, port = net.address
    with Client(host=host, port=port, timeout=60.0,
                max_version=request.param) as instance:
        yield instance


class TestOLEDWireParity:
    def test_solve_lut_is_bit_exact(self, client, baboon):
        """The darkening LUT survives either codec without rounding."""
        reference = Engine("oled-darken").solve(
            Histogram.of_image(baboon.to_grayscale()), 10.0)
        remote = client.solve(Histogram.of_image(baboon), 10.0,
                              algorithm="oled-darken")
        assert remote.algorithm == "oled-darken"
        assert remote.backlight_factor == 1.0
        assert remote.transform == reference.transform
        assert tuple(remote.transform.table) == tuple(
            reference.transform.table)

    def test_local_apply_matches_in_process_output(self, client, baboon):
        reference = Engine("oled-darken").process(baboon, 10.0)
        remote = client.solve(Histogram.of_image(baboon), 10.0,
                              algorithm="oled-darken")
        local = remote.transform.apply(baboon.to_grayscale())
        assert np.array_equal(local.pixels, reference.output.pixels)

    def test_process_round_trip_equals_in_process(self, client, baboon):
        reference = Engine("oled-darken").process(baboon, 10.0)
        remote = client.process(baboon, 10.0, algorithm="oled-darken")
        assert remote == reference
        assert remote.power.ccfl == 0.0
        assert remote.power == reference.power
        assert remote.distortion == reference.distortion

    def test_compensate_matches_remote_process(self, client, pout):
        applied = client.compensate(pout, 10.0, algorithm="oled-darken")
        processed = client.process(pout, 10.0, algorithm="oled-darken")
        assert np.array_equal(applied.output.pixels,
                              processed.output.pixels)

    def test_clipped_variant_crosses_the_wire(self, client, lena):
        reference = Engine("oled-darken-clipped").process(lena, 10.0)
        remote = client.process(lena, 10.0, algorithm="oled-darken-clipped")
        assert remote == reference

    def test_remote_session_serves_oled(self, client, small_suite):
        frames = list(small_suite.values())
        engine = Engine("oled-darken")
        with engine.open_session(10.0) as reference_session:
            expected = [reference_session.submit(f) for f in frames]
        with client.open_session(10.0,
                                 algorithm="oled-darken") as session:
            actual = [session.submit(f) for f in frames]
        for got, want in zip(actual, expected):
            assert np.array_equal(got.result.output.pixels,
                                  want.result.output.pixels)
            assert got.result.power.ccfl == 0.0


class TestMalformedOLEDRequests:
    def _exchange(self, sock: socket.socket, message: dict) -> dict:
        payload = protocol.encode_frame(message)
        sock.sendall(payload)
        header = _recv_exactly(sock, 4)
        return protocol.decode_frame(
            _recv_exactly(sock, protocol.frame_length(header)))

    def _handshake(self, sock: socket.socket, max_version: int) -> dict:
        return self._exchange(
            sock, protocol.hello_frame(max_version=max_version))

    @pytest.mark.parametrize("max_version", [1, 2])
    def test_negative_budget_is_bad_request_and_socket_survives(
            self, net, baboon, max_version):
        host, port = net.address
        bad = protocol.solve_request(11, Histogram.of_image(baboon), -5.0,
                                     algorithm="oled-darken")
        with socket.create_connection((host, port), timeout=10.0) as sock:
            self._handshake(sock, max_version)
            frame = self._exchange(sock, bad)
            assert frame["type"] == "error"
            assert frame["code"] == "bad_request"
            assert frame["id"] == 11
            # the very same socket still serves a well-formed request
            frame = self._exchange(
                sock, protocol.solve_request(
                    12, Histogram.of_image(baboon), 10.0,
                    algorithm="oled-darken"))
            assert frame["type"] == "solution"
            assert frame["id"] == 12

    def test_unknown_emissive_algorithm_is_bad_request(self, net, baboon):
        host, port = net.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            self._handshake(sock, 1)
            frame = self._exchange(sock, protocol.solve_request(
                21, Histogram.of_image(baboon), 10.0,
                algorithm="oled-brighten"))
            assert frame["type"] == "error"
            assert frame["code"] == "bad_request"


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed while reading")
        data += chunk
    return data
