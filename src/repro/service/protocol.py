"""Wire protocol of the classification service: NDJSON + HTTP front.

The daemon speaks two protocols on one port, distinguished by sniffing
the first request line:

* **NDJSON** (the native protocol): one JSON object per line, one reply
  line per request, connections are persistent and pipelined.  Requests
  carry an ``op`` (``classify`` / ``match`` / ``stats`` / ``ping``), an
  optional client-chosen ``id`` echoed back verbatim, and — for the
  table-taking ops — a ``table`` payload (MSB-first binary, or hex with
  an explicit or inferable ``n``, the exact grammar of the CLI).
* **HTTP/1.0** (the ops front): ``GET /healthz``, ``GET /v1/stats``,
  ``POST /v1/classify`` and ``POST /v1/match`` with a JSON body.  Every
  response closes the connection — curl-friendly, not throughput-
  oriented; heavy traffic belongs on the NDJSON path where the
  coalescer can amortise it.

Everything in this module is pure (bytes/str/dict in, dict/bytes out)
so the framing, limits and error taxonomy are testable without sockets.

Error taxonomy (the ``type`` field of error replies):

==================== ====================================================
``bad_request``      unparseable JSON, unknown op, bad table payload
``payload_too_large`` a request line above :data:`MAX_LINE_BYTES`
``overloaded``       the coalescer's pending queue is full (backpressure)
``shutting_down``    the daemon is draining after SIGTERM/SIGINT
``unavailable``      a fabric shard stayed unreachable through retries
``shard_unavailable`` no live worker owns the request's shard (ring gap)
``timeout``          a fabric dispatch exceeded its per-request deadline
``internal``         unexpected server-side failure
==================== ====================================================

The last three belong to the distributed fabric (:mod:`repro.fabric`):
a single daemon never emits them, but the router daemon speaks this
exact protocol to clients, so they live in the shared taxonomy.  The
fabric's *control plane* — worker registration, heartbeats, and drain
notices — rides the same NDJSON framing with its own op set
(:data:`FABRIC_OPS`); those ops are only accepted by the router
(``parse_request(line, allowed_ops=...)``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.truth_table import TruthTable

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "TABLE_OPS",
    "FABRIC_OPS",
    "ERROR_TYPES",
    "ProtocolError",
    "Request",
    "parse_request",
    "parse_table_payload",
    "parse_table_text",
    "ok_reply",
    "error_reply",
    "encode_line",
    "EncodedOk",
    "split_ok_line",
    "match_payload",
    "classify_payload",
    "http_response",
    "http_text_response",
    "HTTP_METHODS",
]

#: Hard cap on one NDJSON line / HTTP body (bytes); beyond it the
#: request is rejected with ``payload_too_large`` and the connection
#: closed (the framing cannot be trusted past an oversized line).
MAX_LINE_BYTES = 1 << 20

PROTOCOL_VERSION = 1

REQUEST_OPS = ("classify", "match", "stats", "ping")
#: Ops that carry a truth-table payload.
TABLE_OPS = ("classify", "match")
#: Control-plane ops of the distributed fabric (worker -> router).
FABRIC_OPS = ("register", "heartbeat", "drain")

ERROR_TYPES = (
    "bad_request",
    "payload_too_large",
    "overloaded",
    "shutting_down",
    "unavailable",
    "shard_unavailable",
    "timeout",
    "internal",
)

#: HTTP verbs whose request line identifies a connection as HTTP.
HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")


class ProtocolError(Exception):
    """A request the service refuses, with a typed error category."""

    def __init__(self, error_type: str, message: str) -> None:
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}")
        super().__init__(message)
        self.error_type = error_type
        self.message = message


@dataclass(frozen=True)
class Request:
    """One validated NDJSON request.

    ``raw`` keeps the decoded JSON object for ops whose payload goes
    beyond ``op``/``id``/``table`` — the fabric control plane reads its
    worker descriptors from it.  It is deliberately excluded from
    equality so table requests compare by what they *mean*.
    """

    op: str
    id: object = None
    table: TruthTable | None = None
    raw: dict | None = field(default=None, compare=False, repr=False)


def parse_request(
    line: bytes | str, allowed_ops: tuple[str, ...] = REQUEST_OPS
) -> Request:
    """Validate one NDJSON line into a :class:`Request`.

    Raises :class:`ProtocolError` (``bad_request``) on malformed JSON,
    non-object payloads, unknown ops, or bad table payloads.  The router
    daemon widens ``allowed_ops`` with :data:`FABRIC_OPS` to accept the
    worker control plane; a plain serving daemon keeps rejecting those.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                "payload_too_large",
                f"request line exceeds {MAX_LINE_BYTES} bytes",
            )
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad_request", f"request is not UTF-8: {exc}")
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"request is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ProtocolError(
            "bad_request", f"request must be a JSON object, got {type(data).__name__}"
        )
    op = data.get("op")
    if op not in allowed_ops:
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r}; known ops: {', '.join(allowed_ops)}",
        )
    request_id = data.get("id")
    table = parse_table_payload(data) if op in TABLE_OPS else None
    return Request(op=op, id=request_id, table=table, raw=data)


def parse_table_payload(data: dict) -> TruthTable:
    """Extract the ``table`` (+ optional ``n``) fields of a request.

    Grammar mirrors the CLI: a binary string (MSB-first, length a power
    of two) or a hex string; hex needs ``n`` unless the digit count
    pins it (``0x`` prefix optional when ``n`` is given).
    """
    text = data.get("table")
    if not isinstance(text, str) or not text:
        raise ProtocolError(
            "bad_request", "request needs a non-empty string 'table' field"
        )
    n = data.get("n")
    if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
        raise ProtocolError("bad_request", f"'n' must be an integer, got {n!r}")
    try:
        return parse_table_text(text, n)
    except ValueError as exc:
        raise ProtocolError("bad_request", str(exc))


def parse_table_text(text: str, n: int | None = None) -> TruthTable:
    """The canonical truth-table text grammar — shared with the CLI.

    ``repro.cli`` delegates here, so ``repro-npn query match TABLE`` and
    a raw protocol payload always denote the same function.
    """
    # Digit-only strings are binary first (the CLI convention) — unless
    # an explicit ``n`` contradicts that reading, in which case the text
    # is reinterpreted as hex ("10" with n=3 means 0x10, not x0).
    is_hex = text.startswith("0x") or any(c in "abcdefABCDEF" for c in text)
    if not is_hex and set(text) <= {"0", "1"} and len(text) >= 2:
        length = len(text)
        if not length & (length - 1):
            tt = TruthTable.from_binary(text)
            if n is None or tt.n == n:
                return tt
    if n is not None:
        return TruthTable.from_hex(n, text)
    if is_hex:
        bits = len(text.removeprefix("0x")) * 4
        if bits & (bits - 1):
            raise ValueError(
                f"cannot infer variable count from {text!r}; pass 'n'"
            )
        return TruthTable.from_hex(bits.bit_length() - 1, text)
    raise ValueError(f"cannot parse truth table {text!r}")


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------


def ok_reply(request_id: object, op: str, result: dict) -> dict:
    """A successful reply envelope."""
    reply = {"ok": True, "op": op, "result": result}
    if request_id is not None:
        reply["id"] = request_id
    return reply


def error_reply(
    request_id: object, error_type: str, message: str
) -> dict:
    """A typed error reply envelope."""
    if error_type not in ERROR_TYPES:
        raise ValueError(f"unknown error type {error_type!r}")
    reply = {"ok": False, "error": {"type": error_type, "message": message}}
    if request_id is not None:
        reply["id"] = request_id
    return reply


def encode_line(reply: dict) -> bytes:
    """One reply as a newline-terminated JSON line."""
    return json.dumps(reply, sort_keys=True).encode() + b"\n"


# With sorted keys an ok reply line with an id always opens with
# ``{"id": <id>, "ok": true, `` and goes on with ``"op"`` and ``"result"``.
_ID_HEAD = b'{"id": '
_OK_MARK = b', "ok": true, '
_OK_HEAD = b'{"ok": true, '
#: Longest id field :func:`split_ok_line` reads: 20 digits, then the mark.
_ID_SPAN = len(_ID_HEAD) + 20 + len(_OK_MARK)


@dataclass(frozen=True)
class EncodedOk:
    """An ok reply still encoded: the bytes after its ``"ok": true, ``.

    The fabric router relays a worker's ok reply as these bytes under
    its client's own id, so a routed hit is never decoded or re-encoded.
    """

    tail: bytes

    @classmethod
    def of(cls, op: str, result: dict) -> "EncodedOk":
        """Encode ``result`` as the ok reply of one ``op``."""
        return cls(encode_line(ok_reply(None, op, result))[len(_OK_HEAD):])

    def line(self, request_id: object) -> bytes:
        """The line ``encode_line(ok_reply(request_id, ...))`` writes."""
        if request_id is None:
            return _OK_HEAD + self.tail
        if type(request_id) is int:
            text = str(request_id)
        else:
            text = json.dumps(request_id, sort_keys=True)
        return _ID_HEAD + text.encode() + _OK_MARK + self.tail

    def result(self) -> dict:
        """The decoded ``result`` object."""
        return json.loads(b"{" + self.tail)["result"]


def split_ok_line(line: bytes) -> tuple[int, EncodedOk] | None:
    """``(id, tail)`` of an :func:`encode_line` ok reply with an integer id.

    ``None`` for any other line (error replies, other ids, other
    encoders, a line cut short of its newline); those are for the
    caller to decode.
    """
    if not (line.startswith(_ID_HEAD) and line.endswith(b"\n")):
        return None
    end = line.find(_OK_MARK, len(_ID_HEAD), _ID_SPAN)
    digits = line[len(_ID_HEAD):end]
    if end < 0 or not digits.isdigit():
        return None
    return int(digits), EncodedOk(line[end + len(_OK_MARK):])


def match_payload(query: TruthTable, match, cached: bool) -> dict:
    """Result body of a ``match`` op (``match`` is a LibraryMatch or None)."""
    if match is None:
        return {"hit": False, "n": query.n, "cached": cached}
    return {
        "hit": True,
        "n": query.n,
        "class_id": match.class_id,
        "representative": match.representative.to_hex(),
        "transform": match.transform.as_dict(),
        "cached": cached,
    }


def classify_payload(query: TruthTable, class_id: str, known: bool) -> dict:
    """Result body of a ``classify`` op.

    ``classify`` computes the signature class id without searching for a
    witness; ``known`` records whether the library stores that class.
    """
    return {"n": query.n, "class_id": class_id, "known": known}


# ----------------------------------------------------------------------
# HTTP front
# ----------------------------------------------------------------------

_HTTP_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    500: "Internal Server Error",
}

#: Error type -> HTTP status of the JSON-over-HTTP front.
HTTP_STATUS_BY_ERROR = {
    "bad_request": 400,
    "payload_too_large": 413,
    "overloaded": 503,
    "shutting_down": 503,
    "unavailable": 503,
    "shard_unavailable": 503,
    "timeout": 504,
    "internal": 500,
}


def http_response(status: int, body: dict) -> bytes:
    """A complete ``HTTP/1.0`` response with a JSON body."""
    payload = json.dumps(body, sort_keys=True).encode() + b"\n"
    head = (
        f"HTTP/1.0 {status} {_HTTP_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + payload


#: Content type of the Prometheus text exposition format served by
#: ``GET /metrics`` (the version tag is part of the scrape contract).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def http_text_response(
    status: int, text: str, content_type: str = PROMETHEUS_CONTENT_TYPE
) -> bytes:
    """A complete ``HTTP/1.0`` response with a plain-text body."""
    payload = text.encode()
    head = (
        f"HTTP/1.0 {status} {_HTTP_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + payload
