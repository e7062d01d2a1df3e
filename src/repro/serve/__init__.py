"""Concurrent serving layer over the unified :mod:`repro.api` engine.

The paper's real-time flow (Fig. 4) solves once per histogram and replays
cheap per-pixel LUTs — exactly the shape that parallelizes.  This package
turns the (thread-safe) :class:`~repro.api.engine.Engine` into a service:

:mod:`repro.serve.coalescer`
    :class:`RequestCoalescer` — work-conserving micro-batching: an idle
    worker takes a ``submit()`` (or a stream-session frame, via
    ``submit_frame``) at once, and what queues while every worker is busy
    is claimed as one ``process_batch`` (``solve_batch`` for session
    frames), with a bounded queue and submit
    timeouts for backpressure
    (:class:`ServerOverloadedError` / :class:`ServerClosedError`).
:mod:`repro.serve.server`
    :class:`Server` — the worker-pool front end with corpus warm-up and a
    live statistics snapshot — and its stream-session surface:
    :class:`SessionManager` / :class:`ServerSession` multiplex push-based
    :class:`~repro.api.session.StreamSession` streams (see
    :meth:`repro.api.engine.Engine.open_session`) over the shared
    micro-batches, with per-session frame ordering, an idle-TTL sweep and
    a session cap.
:mod:`repro.serve.stats`
    :class:`StatsRecorder` / :class:`ServerStats` — throughput, latency
    percentiles (p50/p95/p99), batching shape, cache efficiency and
    per-session frame stats (:class:`SessionFrameStats`).
:mod:`repro.serve.loadgen`
    :func:`run_load` / :class:`LoadReport` — the multi-client one-shot load
    generator — and the video-client mode: :func:`run_stream_load` /
    :class:`StreamLoadReport` drive N concurrent sessions frame by frame.
    Both behind ``repro loadtest`` and the examples.  Both are duck-typed
    over the server surface, so ``repro loadtest --connect HOST:PORT``
    points them at a remote server through
    :class:`repro.client.RemoteServerAdapter`.
:mod:`repro.serve.protocol`
    The wire codec and message set of the network serving API: versioned
    length-prefixed JSON frames, bit-exact ``to_wire``/``from_wire`` for
    histograms, images, transforms, solutions and results, and the typed
    error frames that carry backpressure hints across the network hop.
:mod:`repro.serve.wire2`
    The negotiated protocol-v2 binary frame format: the same messages
    with raw zero-copy array segments (``np.frombuffer`` decode), a
    peek/restamp surface for the cluster router's bytes-through fast
    path, and a transcode fallback to v1 JSON.
:mod:`repro.serve.shm`
    The same-host shared-memory lane of protocol v2: nonce-proofed
    negotiation, image payloads by block reference, leak-proof
    unlink-on-disconnect.
:mod:`repro.serve.net`
    :class:`NetworkServer` — the asyncio TCP front end multiplexing many
    connections onto the shared worker pool (``repro serve --host
    --port``); :mod:`repro.client` is the SDK on the other end.

Quickstart::

    from repro.serve import Server

    with Server(workers=4) as server:
        server.warmup()
        result = server.process(image, max_distortion=10.0)

        with server.open_session(max_distortion=10.0) as session:
            outcome = session.submit(frame).result()
        print(server.stats().as_dict())
"""

from repro.serve.coalescer import (
    RequestCoalescer,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.loadgen import (
    LoadReport,
    StreamLoadReport,
    report_table,
    run_load,
    run_stream_load,
    stream_report_table,
    time_serial_baseline,
    time_serial_stream_baseline,
)
from repro.serve.net import DEFAULT_PORT, NetworkServer
from repro.serve.protocol import PROTOCOL_V1, PROTOCOL_VERSION, ProtocolError
from repro.serve.server import Server, ServerSession, SessionManager
from repro.serve.stats import (
    ServerStats,
    SessionFrameStats,
    StatsRecorder,
    json_ready,
    percentile,
)

__all__ = [
    "NetworkServer",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "PROTOCOL_V1",
    "ProtocolError",
    "json_ready",
    "Server",
    "ServerSession",
    "SessionManager",
    "RequestCoalescer",
    "ServerClosedError",
    "ServerOverloadedError",
    "ServerStats",
    "SessionFrameStats",
    "StatsRecorder",
    "LoadReport",
    "StreamLoadReport",
    "run_load",
    "run_stream_load",
    "report_table",
    "stream_report_table",
    "time_serial_baseline",
    "time_serial_stream_baseline",
    "percentile",
]
