"""Protocol v2: negotiated binary frames with zero-copy array payloads.

The v1 codec of :mod:`repro.serve.protocol` ships every array as base64
inside JSON — fine for ~1 KB ``solve`` frames, 33%+ bloat plus an extra
encode/decode copy per frame for full-image ``process`` requests and
session ``feed`` traffic.  Protocol v2 keeps the *message* layer (the same
request/response dictionaries, the same typed errors, the same outer
4-byte length prefix on the socket) and swaps the *payload* layer: a
binary header and a segment table, with array payloads appended as raw
bytes and decoded with ``np.frombuffer`` — zero copies between the socket
buffer and the numpy array handed to the engine.

**Frame layout** (everything big-endian)::

    offset  size  field
    0       2     magic  b"R2"       (a JSON payload starts with "{", so
    2       1     version (0x02)      one-byte sniffing tells the codecs
    3       1     flags   (0)         apart; see :func:`is_v2_payload`)
    4       4     header_len          length of the JSON header, bytes
    8       2     nseg                number of binary segments
    10      4*n   segment lengths     one u32 per segment
    10+4n   ...   JSON header         the message dict, arrays replaced by
                                      descriptors {"$seg": i, "dtype": ...,
                                      "shape": [...]}
    ...     ...   segments            raw array bytes, concatenated in
                                      segment order

**Codec.**  :func:`encode_message` walks the message tree and lifts every
``numpy.ndarray`` leaf into a segment; :func:`decode_message` puts
zero-copy ``np.frombuffer`` views back in their place (read-only — they
alias the received buffer).  :func:`downgrade_message` converts the same
tree to pure v1 JSON form (base64 arrays) — the transcode path a cluster
router takes when a v2 client's frame must reach a v1-only shard.

**Bytes-through.**  A router forwarding a v2 frame between two v2 peers
never touches the segments: :func:`restamp` re-encodes only the (small)
JSON header to rewrite the correlation id (and optionally the session
id), splicing the original segment bytes back verbatim; :func:`peek`
reads the header alone, so routing decisions (request type, routing key,
session id) cost O(header), not O(pixels).

Array descriptors are validated strictly (:func:`check_descriptor` —
shared with the v1 codec): the dtype must be a plain bool/int/uint/float,
every dimension non-negative, and the declared element count must match
the payload length exactly, so a malformed frame surfaces as a typed
``bad_request`` error instead of a raw numpy exception server-side.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    check_descriptor,
)

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "SEGMENT_KEY",
    "is_v2_payload",
    "encode_message",
    "encode_frame",
    "decode_message",
    "decode_any",
    "peek",
    "restamp",
    "downgrade_message",
]

#: First two payload bytes of every v2 frame.  A v1 payload is a JSON
#: object and starts with ``{`` (0x7b), so the magic is unambiguous.
MAGIC = b"R2"

#: Wire-format generation byte carried after the magic.
WIRE_VERSION = 2

#: JSON-header key marking a lifted array segment.  ``$`` cannot appear
#: as the first character of any v1 codec key, so a descriptor can never
#: be confused with an ordinary payload mapping.
SEGMENT_KEY = "$seg"

_PREFIX_LEN = 10    # magic + version + flags + header_len + nseg


def is_v2_payload(payload: bytes) -> bool:
    """Whether a frame payload is a v2 binary frame (by magic sniff)."""
    return payload[:2] == MAGIC


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
#: Leaf types returned as they are, tested first: a histogram's 256 counts
#: would otherwise each pay the slow ``Mapping`` check.
_SCALARS = (str, int, float, type(None))


def _lift(value: Any, segments: list[bytes]) -> Any:
    """Replace ndarray leaves with segment descriptors, collecting bytes."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        index = len(segments)
        segments.append(array.tobytes())
        return {SEGMENT_KEY: index,
                "dtype": array.dtype.str,
                "shape": [int(n) for n in array.shape]}
    if isinstance(value, Mapping):
        return {key: _lift(entry, segments) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lift(entry, segments) for entry in value]
    return value


def _assemble(header: Mapping[str, Any], segments: list[bytes]) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":"),
                              allow_nan=False).encode("utf-8")
    parts = [MAGIC,
             WIRE_VERSION.to_bytes(1, "big"),
             b"\x00",
             len(header_bytes).to_bytes(4, "big"),
             len(segments).to_bytes(2, "big")]
    for segment in segments:
        parts.append(len(segment).to_bytes(4, "big"))
    parts.append(header_bytes)
    parts.extend(segments)
    payload = b"".join(parts)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"v2 frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit")
    return payload


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Serialize one message dict (ndarray leaves allowed) into a v2
    frame payload (no outer length prefix)."""
    segments: list[bytes] = []
    header = _lift(dict(message), segments)
    if len(segments) > 0xFFFF:
        raise ProtocolError(
            f"v2 frame would need {len(segments)} segments, beyond the "
            f"65535-segment limit")
    return _assemble(header, segments)


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """A complete length-prefixed v2 frame, ready for the socket."""
    payload = encode_message(message)
    return len(payload).to_bytes(4, "big") + payload


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #
def _split(payload: bytes) -> tuple[dict, list[tuple[int, int]], int]:
    """Parse the binary envelope: (header dict, [(offset, length)], nseg).

    Validates the envelope exactly: magic, wire version, and that the
    declared header and segment lengths tile the payload with no slack.
    """
    if len(payload) < _PREFIX_LEN:
        raise ProtocolError(
            f"truncated v2 frame: {len(payload)} bytes is shorter than "
            f"the {_PREFIX_LEN}-byte prefix")
    if payload[:2] != MAGIC:
        raise ProtocolError("not a v2 frame (bad magic)")
    if payload[2] != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported v2 wire generation {payload[2]}")
    header_len = int.from_bytes(payload[4:8], "big")
    nseg = int.from_bytes(payload[8:10], "big")
    table_end = _PREFIX_LEN + 4 * nseg
    if table_end > len(payload):
        raise ProtocolError("truncated v2 frame: segment table cut short")
    lengths = [int.from_bytes(payload[_PREFIX_LEN + 4 * i:
                                      _PREFIX_LEN + 4 * i + 4], "big")
               for i in range(nseg)]
    header_end = table_end + header_len
    if header_end > len(payload):
        raise ProtocolError("truncated v2 frame: JSON header cut short")
    spans: list[tuple[int, int]] = []
    offset = header_end
    for length in lengths:
        spans.append((offset, length))
        offset += length
    if offset != len(payload):
        raise ProtocolError(
            f"malformed v2 frame: declared sections cover {offset} bytes "
            f"of a {len(payload)}-byte payload")
    try:
        header = json.loads(payload[table_end:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable v2 frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"v2 frame header must be a JSON object, got "
            f"{type(header).__name__}")
    return header, spans, nseg


def _materialize(value: Any, view: memoryview,
                 spans: list[tuple[int, int]]) -> Any:
    if isinstance(value, dict):
        if SEGMENT_KEY in value:
            try:
                index = int(value[SEGMENT_KEY])
                span = spans[index] if index >= 0 else None
            except (TypeError, ValueError, IndexError):
                span = None
            if span is None:
                raise ProtocolError(
                    f"malformed array payload: segment index "
                    f"{value.get(SEGMENT_KEY)!r} out of range")
            offset, length = span
            dtype, shape = check_descriptor(value.get("dtype"),
                                            value.get("shape"), length)
            # the zero-copy heart of v2: the array is a read-only view
            # straight over the received payload bytes
            array = np.frombuffer(view[offset:offset + length], dtype=dtype)
            return array.reshape(shape)
        return {key: _materialize(entry, view, spans)
                for key, entry in value.items()}
    if isinstance(value, list):
        return [_materialize(entry, view, spans) for entry in value]
    return value


def decode_message(payload: bytes) -> dict:
    """Parse a v2 frame payload into its message dict.

    Array descriptors come back as **read-only zero-copy** ``np.ndarray``
    views over ``payload`` — the v1-compatible ``*_from_wire`` decoders of
    :mod:`repro.serve.protocol` accept them in place of base64 mappings.
    """
    header, spans, _ = _split(payload)
    return _materialize(header, memoryview(payload), spans)


def decode_any(payload: bytes) -> tuple[int, dict]:
    """Sniff and decode either codec: ``(frame_version, message)``."""
    if is_v2_payload(payload):
        return 2, decode_message(payload)
    # deferred import dance is unnecessary: protocol has no import cycle
    from repro.serve import protocol
    return 1, protocol.decode_frame(payload)


def peek(payload: bytes) -> dict:
    """The JSON header of a v2 frame, descriptors left as plain dicts.

    O(header) — segments are neither validated nor touched.  The router
    uses this to read ``type`` / ``id`` / ``routing`` / ``session_id``
    without paying for pixels.
    """
    header, _, _ = _split(payload)
    return header


def restamp(payload: bytes, request_id: int | None, *,
            session_id: str | None = None) -> bytes:
    """Rewrite the correlation id (and optionally the session id) of a v2
    frame **without re-encoding its segments** — the router's
    bytes-through fast path.

    Only the JSON header is decoded and re-serialized; the segment bytes
    are spliced back verbatim, so a multi-megabyte ``process`` frame is
    restamped in O(header) time and the pixels cross the router untouched.
    """
    header, spans, _ = _split(payload)
    header["id"] = request_id
    if session_id is not None:
        header["session_id"] = str(session_id)
    if spans:
        first_offset = spans[0][0]
        segment_bytes = payload[first_offset:]
        segments_sizes = [length for _, length in spans]
    else:
        segment_bytes = b""
        segments_sizes = []
    header_bytes = json.dumps(header, separators=(",", ":"),
                              allow_nan=False).encode("utf-8")
    parts = [MAGIC,
             WIRE_VERSION.to_bytes(1, "big"),
             b"\x00",
             len(header_bytes).to_bytes(4, "big"),
             len(segments_sizes).to_bytes(2, "big")]
    for length in segments_sizes:
        parts.append(length.to_bytes(4, "big"))
    parts.append(header_bytes)
    parts.append(segment_bytes)
    return b"".join(parts)


def downgrade_message(message: Mapping[str, Any]) -> dict:
    """Convert a decoded message (ndarray leaves) to pure v1 JSON form.

    The transcode fallback of the cluster router: a v2 client's frame
    bound for a v1-only shard has its arrays re-encoded as the base64
    mappings of :func:`repro.serve.protocol.array_to_wire`.
    """
    from repro.serve import protocol

    def walk(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return protocol.array_to_wire(value)
        if isinstance(value, Mapping):
            return {key: walk(entry) for key, entry in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(entry) for entry in value]
        return value

    return walk(dict(message))
