"""Online classification service: the repo's traffic-serving layer.

Everything before this package answers queries *offline* — build a
batch, run an engine, write an artifact.  :mod:`repro.service` is the
piece that serves traffic: a dependency-free asyncio daemon that loads a
:class:`~repro.library.ClassLibrary` once and answers ``classify`` /
``match`` / ``stats`` requests over newline-delimited JSON (plus a
small HTTP/1.0 front for ``/healthz`` and one-shot queries).

The module map mirrors the request path:

* :mod:`~repro.service.protocol` — framing, limits, error taxonomy;
* :mod:`~repro.service.coalescer` — micro-batching: concurrent requests
  fold into one packed engine batch (the amortisation that makes the
  daemon as fast per function as the offline engines);
* :mod:`~repro.service.cache` — LRU cache of complete match outcomes;
* :mod:`~repro.service.base` — the shared socket and request front,
  whose ``stats`` block reads the :mod:`repro.obs` registry;
* :mod:`~repro.service.server` — the daemon (sockets, drain, signals);
* :mod:`~repro.service.client` — blocking client, pipelining-capable;
* :mod:`~repro.service.runner` — in-process harness for tests/benches.

CLI: ``repro-npn serve`` / ``repro-npn query``.
"""

from repro.service.cache import MatchCache
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
    parse_address,
)
from repro.service.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_MAX_WAIT_MS,
    Coalescer,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.runner import ThreadedService
from repro.service.server import DEFAULT_PORT, ClassificationService

__all__ = [
    "ClassificationService",
    "Coalescer",
    "MatchCache",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "ThreadedService",
    "ProtocolError",
    "parse_address",
    "DEFAULT_PORT",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT_MS",
    "DEFAULT_MAX_PENDING",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
]
