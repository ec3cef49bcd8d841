"""Blocking NDJSON client for scripts, tests, and the ``repro query`` CLI.

:class:`ServiceClient` keeps one persistent connection and speaks the
native line protocol.  Two calling styles:

* request/reply — :meth:`match`, :meth:`classify`, :meth:`stats`,
  :meth:`ping` each send one line and block for its reply;
* pipelined — :meth:`match_many` writes *all* request lines before
  reading any reply, which is what lets the daemon's coalescer fold a
  client's burst into a handful of engine batches.  Replies are
  re-associated by ``id``, so out-of-order replies (possible when some
  requests hit the match cache) are handled.

Errors come back as :class:`ServiceError` carrying the daemon's typed
category (``overloaded``, ``bad_request``, ...), so callers can retry
or fail per type.  Transport failures — refused dial, reset connection,
a daemon that hung up or stopped answering — surface as
:class:`ServiceUnavailableError` (type ``unavailable``), the signal
retry loops key on: it means *try again / try elsewhere*, unlike a
``bad_request`` which will fail identically forever.
"""

from __future__ import annotations

import json
import socket

from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.service.protocol import MAX_LINE_BYTES

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "parse_address",
    "http_get",
]


class ServiceError(RuntimeError):
    """An error reply (or transport failure) from the daemon."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type
        self.message = message


class ServiceUnavailableError(ServiceError):
    """The daemon cannot be reached (refused, reset, hung up, timed out).

    A subclass so existing ``except ServiceError`` handlers still catch
    it; a distinct type so retry loops (``query ping --retries``, the
    fabric tests) can retry *only* transport failures.
    """

    def __init__(self, message: str) -> None:
        super().__init__("unavailable", message)


def parse_address(address: str) -> tuple[str, int]:
    """Parse ``host:port`` (the ``--addr`` grammar of the CLI)."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port in {address!r} is not an integer") from None
    if not 0 < port < 65536:
        raise ValueError(f"port {port} out of range")
    return host, port


def http_get(
    address: str, path: str, timeout: float = 30.0
) -> tuple[int, str]:
    """One blocking HTTP/1.0 GET against a daemon: ``(status, body)``.

    The daemon serves one HTTP response per connection (it replies with
    ``Connection: close``), so a fresh socket per call is the protocol —
    this is how the CLI fetches ``/metrics`` text and ``/v1/trace/recent``
    JSON without an HTTP client dependency.
    """
    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ServiceError("internal", "malformed HTTP response (no header end)")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ServiceError(
            "internal", f"malformed HTTP status line: {status_line!r}"
        )
    return int(parts[1]), body.decode()


class ServiceClient:
    """One blocking connection to a classification daemon.

    Usable as a context manager; connects lazily on first use.

    Args:
        timeout: read deadline per reply, seconds (``None`` blocks
            forever — only sensible in tests).
        connect_timeout: dial deadline, seconds; defaults to ``timeout``.
            Separate knobs because a healthy dial is milliseconds while
            a legitimate reply may trail a deep engine batch.

    Example:
        >>> with ServiceClient("127.0.0.1", 8355) as client:  # doctest: +SKIP
        ...     client.match("0xe8", n=3)["class_id"]
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8355,
        timeout: float | None = 30.0,
        connect_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self._sock: socket.socket | None = None
        self._file = None
        self._next_id = 0

    @classmethod
    def from_address(
        cls,
        address: str,
        timeout: float | None = 30.0,
        connect_timeout: float | None = None,
    ) -> "ServiceClient":
        host, port = parse_address(address)
        return cls(host, port, timeout, connect_timeout)

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            except OSError as exc:
                raise ServiceUnavailableError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from None
            sock.settimeout(self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def match(self, table, n: int | None = None) -> dict:
        """Resolve one function to ``{hit, class_id, transform, ...}``."""
        return self._roundtrip(self._table_request("match", table, n))

    def classify(self, table, n: int | None = None) -> dict:
        """Signature class id of one function (no witness search)."""
        return self._roundtrip(self._table_request("classify", table, n))

    def stats(self) -> dict:
        """The daemon's ``stats`` block: its process's metrics registry
        read out as JSON (counts equal the ``/metrics`` series, latency
        quantiles are histogram estimates), plus identity and, on a
        router, fabric state."""
        return self._roundtrip({"op": "stats", "id": self._take_id()})

    def ping(self) -> dict:
        return self._roundtrip({"op": "ping", "id": self._take_id()})

    def match_many(self, tables) -> list[dict]:
        """Pipelined matches: send every request, then collect replies.

        Results come back in *argument order* regardless of the order the
        daemon answered in.  Error replies surface as the first
        :class:`ServiceError` after all replies arrived, so one
        ``overloaded`` answer cannot strand the rest of the pipeline
        unread.
        """
        requests = [self._table_request("match", table) for table in tables]
        if not requests:
            return []
        self.connect()
        payload = b"".join(
            json.dumps(req, sort_keys=True).encode() + b"\n" for req in requests
        )
        self._send(payload)
        by_id: dict[object, dict] = {}
        for _ in requests:
            reply = self._read_reply()
            by_id[reply.get("id")] = reply
        results = []
        first_error: ServiceError | None = None
        for req in requests:
            reply = by_id.get(req["id"])
            if reply is None:
                raise ServiceError("internal", f"no reply for id {req['id']}")
            if not reply.get("ok"):
                error = reply.get("error", {})
                first_error = first_error or ServiceError(
                    error.get("type", "internal"), error.get("message", "")
                )
                results.append(None)
            else:
                results.append(reply["result"])
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # Result helpers
    # ------------------------------------------------------------------

    @staticmethod
    def transform_of(result: dict) -> NPNTransform:
        """The witness of a ``match`` hit as an :class:`NPNTransform`."""
        if not result.get("hit"):
            raise ValueError("match result is a miss; no witness to decode")
        return NPNTransform.from_dict(result["transform"])

    @staticmethod
    def representative_of(result: dict) -> TruthTable:
        """The stored representative of a ``match`` hit."""
        if not result.get("hit"):
            raise ValueError("match result is a miss; no representative")
        return TruthTable.from_hex(result["n"], result["representative"])

    @staticmethod
    def verify(result: dict, query: TruthTable) -> bool:
        """Offline re-check: the served witness maps rep onto ``query``."""
        rep = ServiceClient.representative_of(result)
        return rep.apply(ServiceClient.transform_of(result)) == query

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _table_request(self, op: str, table, n: int | None = None) -> dict:
        if isinstance(table, TruthTable):
            text, n = f"0x{table.to_hex()}", table.n
        elif isinstance(table, str):
            text = table
        else:
            raise TypeError(f"table must be TruthTable or str, got {type(table)}")
        request = {"op": op, "id": self._take_id(), "table": text}
        if n is not None:
            request["n"] = n
        return request

    def _roundtrip(self, request: dict) -> dict:
        self.connect()
        self._send(json.dumps(request, sort_keys=True).encode() + b"\n")
        reply = self._read_reply()
        if not reply.get("ok"):
            error = reply.get("error", {})
            raise ServiceError(
                error.get("type", "internal"), error.get("message", "")
            )
        return reply["result"]

    def _send(self, payload: bytes) -> None:
        try:
            self._file.write(payload)
            self._file.flush()
        except OSError as exc:
            self.close()
            raise ServiceUnavailableError(
                f"send to {self.host}:{self.port} failed: {exc}"
            ) from None

    def _read_reply(self) -> dict:
        try:
            line = self._file.readline(MAX_LINE_BYTES + 2)
        except socket.timeout:
            # The connection may still be fine (slow daemon); closing it
            # keeps this client's state simple: next call redials.
            self.close()
            raise ServiceUnavailableError(
                f"{self.host}:{self.port} sent no reply within "
                f"{self.timeout}s"
            ) from None
        except OSError as exc:
            self.close()
            raise ServiceUnavailableError(
                f"read from {self.host}:{self.port} failed: {exc}"
            ) from None
        if not line:
            self.close()
            raise ServiceUnavailableError(
                f"{self.host}:{self.port} closed the connection"
            )
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError("internal", f"unparseable reply: {exc}") from None
        if not isinstance(reply, dict):
            raise ServiceError("internal", "reply is not a JSON object")
        return reply
