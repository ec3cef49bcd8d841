"""Fault-tolerant distributed serving fabric.

One router, many workers, one consistent-hash ring over hashed MSV
rows:

* :mod:`repro.fabric.ring` — who owns which classes (and why a query
  hashes to the same shard as its class);
* :mod:`repro.fabric.registry` — who is alive, suspect, draining, dead;
* :mod:`repro.fabric.backoff` — the one retry policy every layer draws
  its sleep schedule from;
* :mod:`repro.fabric.channel` — the pipelined router→worker connection;
* :mod:`repro.fabric.router` — the client-facing daemon tying them
  together: shard routing, timeouts, retries onto untried replicas,
  drain-aware failover, degraded mode;
* :mod:`repro.fabric.worker` — a classification daemon serving its
  shard, registered and heartbeating;
* :mod:`repro.fabric.chaos` — the fault-injection harness the soak
  tests drive fleets with.
"""

from repro.fabric.backoff import RetryPolicy, retry_call
from repro.fabric.channel import ChannelClosed, DispatchTimeout, WorkerChannel
from repro.fabric.registry import (
    ALIVE,
    DEAD,
    DRAINING,
    SUSPECT,
    WorkerInfo,
    WorkerRegistry,
)
from repro.fabric.ring import (
    DEFAULT_REPLICAS,
    DEFAULT_VNODES,
    HashRing,
    parse_ring_spec,
    shard_key_of,
    shard_keys,
)

__all__ = [
    "RetryPolicy",
    "retry_call",
    "WorkerChannel",
    "ChannelClosed",
    "DispatchTimeout",
    "WorkerRegistry",
    "WorkerInfo",
    "ALIVE",
    "SUSPECT",
    "DRAINING",
    "DEAD",
    "HashRing",
    "shard_key_of",
    "shard_keys",
    "parse_ring_spec",
    "DEFAULT_VNODES",
    "DEFAULT_REPLICAS",
]
