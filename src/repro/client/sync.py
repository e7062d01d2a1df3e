"""Blocking TCP client for the network serving API.

:class:`Client` mirrors the :class:`~repro.api.engine.Engine` facade over a
socket: :meth:`Client.solve` ships a histogram and gets back an
image-independent solution (the paper-native fast path — O(histogram)
bandwidth), :meth:`Client.process` ships a full image for server-side
application and accounting, and :meth:`Client.open_session` opens a
push-based :class:`RemoteSession` matching the
:class:`~repro.api.session.StreamSession` surface.

Connection care is built in: the client connects lazily, performs the
protocol handshake, and on a lost connection reconnects with exponential
back-off and retries the (idempotent) request.  A typed ``overloaded``
error honors the server's ``retry_after`` hint before retrying; the other
error frames raise the same exception types in-process callers see
(:class:`~repro.serve.coalescer.ServerOverloadedError`,
:class:`~repro.serve.coalescer.ServerClosedError`,
:class:`~repro.api.session.SessionClosedError`, :class:`ValueError`).

**Protocol v2.**  The client advertises ``max_version`` in its hello and
records the server's pick as :attr:`Client.protocol_version` (also shown
in ``repr``).  On a v2 connection requests and responses travel as binary
zero-copy frames (:mod:`repro.serve.wire2`); against an older server the
same client falls back to v1 JSON transparently.  :meth:`Client.pipeline`
opens a batch context with *multiple requests in flight per socket*,
correlated by id; ``shm=True`` additionally offers the same-host
shared-memory lane of :mod:`repro.serve.shm` for image payloads.

A :class:`Client` is **not** thread-safe — outside a pipeline it
serializes one request at a time on one socket.  Use one client per
thread (see :class:`repro.client.adapter.RemoteServerAdapter`) or the
asyncio :class:`~repro.client.aio.AsyncClient`.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.types import (
    CompensationResult,
    CompensationSolution,
    StreamFrameResult,
)
from repro.api.session import SessionClosedError
from repro.client.backoff import Backoff
from repro.core.histogram import Histogram
from repro.core.transforms import PixelTransform
from repro.imaging.image import Image
from repro.serve import protocol, wire2
from repro.serve import shm as shm_lane
from repro.serve.coalescer import ServerOverloadedError
from repro.serve.net import DEFAULT_PORT
from repro.serve.stats import ServerStats

__all__ = ["Client", "ClientPipeline", "PendingReply", "RemoteSession",
           "LocalCompensation", "parse_address"]


def parse_address(address: str, default_port: int = DEFAULT_PORT,
                  ) -> tuple[str, int]:
    """Split ``"host:port"`` (or bare ``"host"``) into ``(host, port)``.

    IPv6 literals use the usual bracket form when they carry a port
    (``"[::1]:7095"``); a bare multi-colon literal (``"::1"``) is taken as
    a host with the default port.
    """
    text = address.strip()
    if not text:
        raise ValueError("address must not be empty")
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or not host:
            raise ValueError(f"unclosed IPv6 bracket in address {address!r}")
        if not rest:
            return host, default_port
        if not rest.startswith(":"):
            raise ValueError(f"malformed address {address!r}")
        return host, _parse_port(rest[1:], address)
    if text.count(":") == 1:
        host, _, port_text = text.partition(":")
        return host or "127.0.0.1", _parse_port(port_text, address)
    # zero colons: bare hostname; several: a bare IPv6 literal, no port
    return text, default_port


def _parse_port(port_text: str, address: str) -> int:
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in address {address!r}")
    return port


@dataclass(frozen=True)
class LocalCompensation:
    """Outcome of :meth:`Client.compensate`: a remote histogram-only solve
    replayed onto the local pixels.

    Only the histogram crossed the wire; ``output`` was produced locally by
    applying the solution's LUT.  For the histogram-driven techniques
    (``hebs``, the DLS variants, ``cbcs``) it is bit-identical to what the
    server would have produced from the full image; for ``hebs-adaptive``
    the server-side range search measured distortion on a histogram-realizing
    stand-in, so its operating point approximates (rather than reproduces)
    a full-image solve — see :meth:`Engine.solve
    <repro.api.engine.Engine.solve>`.
    """

    solution: CompensationSolution
    original: Image
    output: Image

    @property
    def backlight_factor(self) -> float:
        """The dimming factor ``beta`` to program."""
        return self.solution.backlight_factor

    @property
    def transform(self) -> PixelTransform:
        """The pixel transformation that produced ``output``."""
        return self.solution.transform


class RemoteSession:
    """A server-side stream session driven over one client connection.

    Matches the push-based :class:`~repro.api.session.StreamSession`
    surface: :meth:`submit` takes one frame and returns its
    :class:`~repro.api.types.StreamFrameResult`; sessions are context
    managers and :meth:`close` is idempotent.  The temporal state
    (smoother, scene detector, fast path) lives server-side; per-session
    frame order is the submission order on this connection.

    A lost connection cannot be resumed — session state dies with the
    socket (the server closes it on disconnect), so session requests never
    auto-reconnect: they raise :class:`ConnectionError` instead.
    """

    def __init__(self, client: "Client", session_id: str,
                 max_distortion: float) -> None:
        self._client = client
        self._id = session_id
        self._max_distortion = float(max_distortion)
        self._closed = False

    @property
    def id(self) -> str:
        """The server-assigned session identifier (the stats key)."""
        return self._id

    @property
    def max_distortion(self) -> float:
        return self._max_distortion

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, frame: Image) -> StreamFrameResult:
        """Push one frame through the remote session and return its
        outcome.  Raises
        :class:`~repro.api.session.SessionClosedError` after :meth:`close`
        and :class:`~repro.serve.coalescer.ServerOverloadedError` when the
        session's server-side frame queue is full (honoring ``retry_after``
        when the client retries overloads)."""
        if self._closed:
            raise SessionClosedError(
                f"remote session {self._id} has been closed")
        response = self._client._request(
            lambda request_id, binary: self._client._build_feed(
                request_id, self._id, frame, binary),
            expected="frame", reconnect=False)
        wire = response["outcome"]
        original = (None if "original" in wire.get("result", {})
                    else frame.to_grayscale())
        return protocol.stream_frame_from_wire(wire, original=original)

    def close(self) -> None:
        """Close the remote session (idempotent, best-effort on a dead
        connection — the server also closes it on disconnect)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._client._request(
                lambda request_id, binary: protocol.close_session_request(
                    request_id, self._id),
                expected="session_closed", reconnect=False)
        except (ConnectionError, OSError):
            pass    # the disconnect already closed it server-side

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Client:
    """Synchronous client for a :class:`~repro.serve.net.NetworkServer`.

    Parameters
    ----------
    host, port:
        Server address (see also :func:`parse_address` /
        :meth:`Client.at`).
    timeout:
        Socket timeout per send/receive, in seconds.  Bounds how long one
        RPC may take end to end.
    retries:
        How many times a failed attempt is retried — after a connection
        error (with exponential back-off) or an ``overloaded`` error frame
        (honoring the server's ``retry_after`` hint).  ``0`` disables
        retrying.
    backoff, max_backoff:
        Reconnect back-off: attempt ``n`` sleeps at most
        ``min(backoff * 2**n, max_backoff)`` seconds, scaled down by
        ``jitter`` (see :class:`~repro.client.backoff.Backoff`).
    jitter, rng:
        Randomized fraction of each reconnect delay (clients dropped by
        the same restart must not return in lockstep) and an injectable
        random source for deterministic tests.  The server-directed
        ``retry_after`` hint is never jittered.
    retry_overloaded:
        Whether an ``overloaded`` error frame is retried after its
        ``retry_after`` hint (up to ``retries`` attempts) instead of
        raising immediately.
    max_version:
        Newest protocol generation to advertise in the hello
        (:data:`~repro.serve.protocol.PROTOCOL_VERSION` by default; pass
        ``1`` to force the v1 JSON codec).  The server's pick lands on
        :attr:`protocol_version`.
    shm:
        Offer the same-host shared-memory lane
        (:mod:`repro.serve.shm`) during the handshake.  When the server
        proves the same-host claim, ``process``/``feed`` image payloads
        travel by block reference instead of over the socket.  Requires
        a negotiated v2 connection; silently stays on the socket lane
        otherwise (including against a remote or pre-v2 server).  The
        lane is lockstep-only: pipelined requests always use the socket.

    Attributes
    ----------
    protocol_version:
        The generation negotiated on the current connection (``None``
        while disconnected).
    bytes_sent, bytes_received:
        Lifetime wire-byte counters across reconnects — the
        bytes-on-wire measurement surface of the network benchmarks.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, *,
                 timeout: float = 60.0, retries: int = 3,
                 backoff: float = 0.1, max_backoff: float = 2.0,
                 jitter: float = 0.5, rng=None,
                 retry_overloaded: bool = True,
                 max_version: int = protocol.PROTOCOL_VERSION,
                 shm: bool = False) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if not protocol.PROTOCOL_V1 <= int(max_version) <= protocol.PROTOCOL_VERSION:
            raise ValueError(
                f"max_version must be within [{protocol.PROTOCOL_V1}, "
                f"{protocol.PROTOCOL_VERSION}], got {max_version}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self.retry_overloaded = bool(retry_overloaded)
        self.max_version = int(max_version)
        self.protocol_version: int | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self._want_shm = bool(shm)
        self._shm: shm_lane.ShmLane | None = None
        self._backoff = Backoff(backoff, max_backoff, jitter=jitter, rng=rng)
        self._sock: socket.socket | None = None
        self._next_id = 0
        self._pipeline: "ClientPipeline | None" = None

    def __repr__(self) -> str:
        lane = (self.protocol_version is not None and self._shm is not None
                and self._shm.active)
        state = (f"protocol v{self.protocol_version}"
                 f"{' +shm' if lane else ''}"
                 if self.protocol_version is not None else "disconnected")
        return f"Client({self.host}:{self.port}, {state})"

    @classmethod
    def at(cls, address: str, **options) -> "Client":
        """Build a client from a ``"host:port"`` string."""
        host, port = parse_address(address)
        return cls(host=host, port=port, **options)

    # ------------------------------------------------------------------ #
    # the Engine-facade mirror
    # ------------------------------------------------------------------ #
    def solve(self, source: Image | Histogram, max_distortion: float,
              algorithm: str | None = None) -> CompensationSolution:
        """Histogram-only solve: ship O(histogram) bytes, get back the
        image-independent solution (transformation, backlight factor,
        driver program) to apply locally.  Mirrors
        :meth:`Engine.solve <repro.api.engine.Engine.solve>`."""
        response = self._request(
            lambda request_id, binary: protocol.solve_request(
                request_id, source, max_distortion, algorithm=algorithm),
            expected="solution")
        return protocol.solution_from_wire(response["solution"])

    def compensate(self, image: Image, max_distortion: float,
                   algorithm: str | None = None) -> LocalCompensation:
        """Solve remotely on the image's histogram, apply locally.

        The end-to-end fast path of the paper's Fig. 4 across a network:
        the pixels never leave this process, and for the histogram-driven
        techniques (``hebs``, DLS, ``cbcs``) the locally produced output is
        bit-identical to a server-side :meth:`process <Client.process>` of
        the same image (``hebs-adaptive`` approximates its per-image
        range search — see :class:`LocalCompensation`).
        """
        grayscale = image.to_grayscale()
        solution = self.solve(Histogram.of_image(grayscale), max_distortion,
                              algorithm=algorithm)
        return LocalCompensation(solution=solution, original=grayscale,
                                 output=solution.transform.apply(grayscale))

    def process(self, image: Image, max_distortion: float,
                algorithm: str | None = None) -> CompensationResult:
        """Full-image request: the server applies the solution and accounts
        distortion and power.  Mirrors
        :meth:`Engine.process <repro.api.engine.Engine.process>`.

        The request is stamped with the content's
        :func:`~repro.serve.protocol.routing_key`, so a cluster router
        places it on the shard whose cache holds its solution without
        decoding the pixels."""
        routing = protocol.routing_key(image)
        response = self._request(
            lambda request_id, binary: self._build_process(
                request_id, image, max_distortion, algorithm, routing,
                binary),
            expected="result")
        return self._decode_result(response["result"], image)

    def open_session(self, max_distortion: float,
                     algorithm: str | None = None,
                     **options: Any) -> RemoteSession:
        """Open a push-based stream session on the server.  ``options``
        are the JSON-representable keyword options of
        :meth:`Engine.open_session <repro.api.engine.Engine.open_session>`
        (``scene_gated_solve=``, ``snap_on_scene_change=``,
        ``stability_bins=``, ...)."""
        response = self._request(
            lambda request_id, binary: protocol.open_session_request(
                request_id, max_distortion, algorithm=algorithm,
                options=options),
            expected="session")
        return RemoteSession(self, str(response["session_id"]),
                             float(max_distortion))

    def stats(self) -> ServerStats:
        """The server's live statistics snapshot."""
        response = self._request(
            lambda request_id, binary: protocol.stats_request(request_id),
            expected="stats")
        return protocol.server_stats_from_wire(response["stats"])

    def stats_dict(self) -> Mapping[str, Any]:
        """The raw JSON payload of the ``stats`` RPC (the server's
        ``as_dict`` view, latencies in ms)."""
        response = self._request(
            lambda request_id, binary: protocol.stats_request(request_id),
            expected="stats")
        return response["stats"]

    def pipeline(self) -> "ClientPipeline":
        """Open a batch context with multiple requests in flight.

        Calls on the returned :class:`ClientPipeline` send their frame
        immediately and return a :class:`PendingReply`; the server works
        on all of them concurrently and replies in completion order,
        correlated by request id.  Closing the context drains every
        outstanding reply, so ``.result()`` afterwards never blocks::

            with client.pipeline() as batch:
                first = batch.solve(histogram_a, max_distortion=10.0)
                second = batch.process(image_b, max_distortion=10.0)
            solution = first.result()
            result = second.result()

        Pipelined requests are never retried or reconnected — a lost
        connection fails every outstanding reply — and the lockstep
        :meth:`solve`/:meth:`process`/:meth:`stats` calls are refused
        while a pipeline is open.
        """
        return ClientPipeline(self)

    # ------------------------------------------------------------------ #
    # connection plumbing
    # ------------------------------------------------------------------ #
    @property
    def connected(self) -> bool:
        """Whether a handshaken socket is currently held."""
        return self._sock is not None

    def connect(self) -> None:
        """Connect and handshake now (otherwise done lazily).

        The hello advertises ``[1, max_version]``; the server's pick
        lands on :attr:`protocol_version`.  When ``shm=True`` a probe
        block rides along (see :mod:`repro.serve.shm`) and the lane
        activates only if the server proves the same-host claim.
        """
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        lane: shm_lane.ShmLane | None = None
        try:
            offer = None
            if (self._want_shm and self.max_version >= 2
                    and shm_lane.shm_available()):
                lane = shm_lane.ShmLane()
                offer = lane.offer()
            self._send_bytes(sock, protocol.encode_frame(
                protocol.hello_frame(max_version=self.max_version,
                                     shm=offer)))
            hello = self._recv_frame(sock)
            if hello.get("type") == "error":
                raise protocol.exception_from_error(hello)
            version = hello.get("version")
            if (hello.get("type") != "hello"
                    or not isinstance(version, int)
                    or not protocol.PROTOCOL_V1 <= version <= self.max_version):
                raise protocol.ProtocolError(
                    f"server answered the handshake with "
                    f"{hello.get('type')!r} v{version!r}")
            if lane is not None:
                lane.conclude(version >= 2 and bool(hello.get("shm")))
        except BaseException:
            if lane is not None:
                lane.close()
            sock.close()
            raise
        self._sock = sock
        self._shm = lane
        self.protocol_version = int(version)

    def close(self) -> None:
        """Drop the connection (idempotent); the server closes any
        sessions this connection owned."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        self.protocol_version = None
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "Client":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _send_bytes(self, sock: socket.socket, frame: bytes) -> None:
        sock.sendall(frame)
        self.bytes_sent += len(frame)

    def _recv_exactly(self, sock: socket.socket, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining > 0:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("the server closed the connection")
            chunks.append(chunk)
            self.bytes_received += len(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_payload(self, sock: socket.socket) -> bytes:
        header = self._recv_exactly(sock, protocol.HEADER_BYTES)
        return self._recv_exactly(sock, protocol.frame_length(header))

    def _recv_frame(self, sock: socket.socket) -> dict:
        # decode by sniff: a negotiated-v2 connection carries v2 binary
        # frames, but the hello (and any v1 fallback) is plain JSON
        return wire2.decode_any(self._recv_payload(sock))[1]

    def _encode(self, message: dict) -> bytes:
        if (self.protocol_version or protocol.PROTOCOL_V1) >= 2:
            return wire2.encode_frame(message)
        return protocol.encode_frame(message)

    def _build_process(self, request_id: int, image: Image,
                       max_distortion: float, algorithm: str | None,
                       routing: bytes | None, binary: bool) -> dict:
        if binary and self._shm is not None and self._shm.active:
            message = protocol.process_request(
                request_id, image, max_distortion, algorithm=algorithm,
                routing=routing)
            message["image"] = {"shm": self._shm.send_image(image)}
            return message
        return protocol.process_request(request_id, image, max_distortion,
                                        algorithm=algorithm, routing=routing,
                                        binary=binary)

    def _build_feed(self, request_id: int, session_id: str, frame: Image,
                    binary: bool) -> dict:
        if binary and self._shm is not None and self._shm.active:
            return protocol.feed_request(request_id, session_id, frame,
                                         shm=self._shm.send_image(frame))
        return protocol.feed_request(request_id, session_id, frame,
                                     binary=binary)

    @staticmethod
    def _decode_result(wire: Mapping[str, Any],
                       image: Image) -> CompensationResult:
        # a v2 response omits the original image — it is the grayscale
        # rendition of the request image, rebuilt here bit-exactly
        original = None if "original" in wire else image.to_grayscale()
        return protocol.result_from_wire(wire, original=original)

    def _request(self, build, expected: str, reconnect: bool = True) -> dict:
        """One request/response round trip with the retry policy.

        ``build`` is called with a fresh request id (and the negotiated
        codec's ``binary`` flag) for every attempt, so a retried request
        is distinguishable server-side and re-encodes correctly if a
        reconnect landed on a different protocol version.  ``reconnect``
        disables the reconnect-and-retry path for requests that are not
        safe to replay on a new connection (session traffic — the state
        died with the old socket).
        """
        if self._pipeline is not None:
            raise RuntimeError(
                "a pipeline is open on this client; finish the batch "
                "before making lockstep calls")
        attempt = 0
        while True:
            try:
                self.connect()
                assert self._sock is not None
                self._next_id += 1
                message = build(self._next_id,
                                (self.protocol_version or 1) >= 2)
                self._send_bytes(self._sock, self._encode(message))
                response = self._recv_frame(self._sock)
            except (ConnectionError, OSError, EOFError) as exc:
                self.close()
                if not reconnect or attempt >= self.retries:
                    raise ConnectionError(
                        f"lost connection to {self.host}:{self.port} "
                        f"({exc})") from exc
                time.sleep(self._backoff.delay(attempt))
                attempt += 1
                continue
            if response.get("type") == "error":
                error = protocol.exception_from_error(response)
                if (isinstance(error, ServerOverloadedError)
                        and self.retry_overloaded
                        and attempt < self.retries):
                    delay = error.retry_after_seconds
                    if delay is None:
                        delay = self.backoff
                    time.sleep(min(delay, self.max_backoff))
                    attempt += 1
                    continue
                raise error
            if response.get("id") != message["id"]:
                self.close()    # the stream is desynchronized; start clean
                raise protocol.ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {message['id']!r}")
            if response.get("type") != expected:
                raise protocol.ProtocolError(
                    f"expected a {expected!r} response, got "
                    f"{response.get('type')!r}")
            return response


class PendingReply:
    """Handle to one in-flight request of a :class:`ClientPipeline`.

    :meth:`result` blocks until this request's reply has been read off
    the socket (replies arrive in server completion order, not submission
    order) and either returns the decoded value or raises the typed
    error the server answered with.  After the pipeline context exits,
    every reply has been drained and :meth:`result` returns instantly.
    """

    def __init__(self, batch: "ClientPipeline", request_id: int,
                 expected: str, decode: Callable[[dict], Any]) -> None:
        self._batch = batch
        self.request_id = int(request_id)
        self._expected = expected
        self._decode = decode
        self._outcome: tuple[str, Any] | None = None

    @property
    def done(self) -> bool:
        """Whether the reply has been received (or failed)."""
        return self._outcome is not None

    def result(self) -> Any:
        """The decoded reply, blocking until it arrives."""
        return self._batch._resolve(self)


class ClientPipeline:
    """A batch of pipelined requests on one :class:`Client` socket.

    Obtained from :meth:`Client.pipeline`.  Every call sends its frame
    immediately — the server (or a cluster router) works on all of them
    concurrently — and returns a :class:`PendingReply` correlated by
    request id.  Replies are read lazily by :meth:`PendingReply.result`
    and drained completely when the context closes.

    Pipelined traffic never retries or reconnects: a lost connection
    fails every outstanding reply with :class:`ConnectionError`.  The
    shared-memory lane is also bypassed (its data block is only safe
    under lockstep traffic); pipelined image payloads use the socket.
    """

    def __init__(self, client: Client) -> None:
        if client._pipeline is not None:
            raise RuntimeError("a pipeline is already open on this client")
        client.connect()
        self._client = client
        self._pending: dict[int, PendingReply] = {}
        self._failure: ConnectionError | None = None
        self._closed = False
        client._pipeline = self

    # -- request surface ---------------------------------------------- #
    def solve(self, source: Image | Histogram, max_distortion: float,
              algorithm: str | None = None) -> PendingReply:
        """Pipelined :meth:`Client.solve`."""
        return self._submit(
            lambda rid, binary: protocol.solve_request(
                rid, source, max_distortion, algorithm=algorithm),
            "solution",
            lambda response: protocol.solution_from_wire(
                response["solution"]))

    def process(self, image: Image, max_distortion: float,
                algorithm: str | None = None) -> PendingReply:
        """Pipelined :meth:`Client.process`."""
        routing = protocol.routing_key(image)
        return self._submit(
            lambda rid, binary: protocol.process_request(
                rid, image, max_distortion, algorithm=algorithm,
                routing=routing, binary=binary),
            "result",
            lambda response: Client._decode_result(response["result"],
                                                   image))

    def stats(self) -> PendingReply:
        """Pipelined :meth:`Client.stats`."""
        return self._submit(
            lambda rid, binary: protocol.stats_request(rid),
            "stats",
            lambda response: protocol.server_stats_from_wire(
                response["stats"]))

    # -- plumbing ------------------------------------------------------ #
    def _submit(self, build, expected: str, decode) -> PendingReply:
        if self._closed:
            raise RuntimeError("this pipeline has been closed")
        if self._failure is not None:
            raise self._failure
        client = self._client
        client._next_id += 1
        request_id = client._next_id
        message = build(request_id, (client.protocol_version or 1) >= 2)
        try:
            assert client._sock is not None
            client._send_bytes(client._sock, client._encode(message))
        except (ConnectionError, OSError) as exc:
            self._fail(exc)
            raise self._failure from exc
        reply = PendingReply(self, request_id, expected, decode)
        self._pending[request_id] = reply
        return reply

    def _pump(self) -> None:
        """Read one reply off the socket and settle its pending handle."""
        client = self._client
        try:
            assert client._sock is not None
            response = client._recv_frame(client._sock)
        except (ConnectionError, OSError, EOFError,
                protocol.ProtocolError) as exc:
            self._fail(exc)
            return
        reply = self._pending.pop(response.get("id"), None)
        if reply is None:
            return    # a stray frame; ignore and keep draining
        if response.get("type") == "error":
            reply._outcome = ("error",
                              protocol.exception_from_error(response))
        elif response.get("type") != reply._expected:
            reply._outcome = ("error", protocol.ProtocolError(
                f"expected a {reply._expected!r} response, got "
                f"{response.get('type')!r}"))
        else:
            try:
                reply._outcome = ("value", reply._decode(response))
            except Exception as exc:   # noqa: BLE001 - surfaced on result()
                reply._outcome = ("error", exc)

    def _fail(self, exc: BaseException) -> None:
        self._failure = ConnectionError(
            f"pipeline connection to {self._client.host}:"
            f"{self._client.port} lost ({exc})")
        for reply in self._pending.values():
            reply._outcome = ("error", self._failure)
        self._pending.clear()
        self._client.close()

    def _resolve(self, reply: PendingReply) -> Any:
        while reply._outcome is None:
            self._pump()
        kind, value = reply._outcome
        if kind == "error":
            raise value
        return value

    def close(self) -> None:
        """Drain every outstanding reply and release the client back to
        lockstep mode (idempotent).  Errors stay parked on their
        :class:`PendingReply` handles."""
        if self._closed:
            return
        self._closed = True
        try:
            while self._pending:
                self._pump()
        finally:
            self._client._pipeline = None

    def __enter__(self) -> "ClientPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
