"""Worker registry: who is serving, and how much we trust them right now.

Every worker daemon registers with the router (capabilities: address,
arities, class count, learning) and then heartbeats periodically.
The registry turns those heartbeats into a per-worker trust state:

::

                 register                  heartbeat
    (unknown) ────────────> ALIVE <──────────────────┐
                              │ miss >= 3 (DEFAULT_SUSPECT_MISSES)
                              v
                           SUSPECT ──────────────────┘  (heartbeat revives)
                              │ miss >= 8 (DEFAULT_EVICT_MISSES)
                              v
                            DEAD  (evicted; re-registering revives)

       drain op (SIGTERM'd worker)
    ALIVE/SUSPECT ────────────> DRAINING ──(8 misses silent)──> DEAD

The router routes new work to ALIVE workers, tries a SUSPECT one only
once every ALIVE owner of the shard was tried, and sends *nothing new*
to DRAINING or DEAD ones — a draining worker keeps answering its
in-flight backlog, which is exactly what drain-aware failover means.
All transitions are counted in the metrics registry so a scrape shows
flapping at a glance.

Time is injected (``clock``) so the state machine is unit-testable
without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs

__all__ = [
    "WorkerInfo",
    "WorkerRegistry",
    "ALIVE",
    "SUSPECT",
    "DRAINING",
    "DEAD",
    "WORKER_STATES",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_SUSPECT_MISSES",
    "DEFAULT_EVICT_MISSES",
]

ALIVE = "alive"
SUSPECT = "suspect"
DRAINING = "draining"
DEAD = "dead"
WORKER_STATES = (ALIVE, SUSPECT, DRAINING, DEAD)

DEFAULT_HEARTBEAT_INTERVAL_S = 1.0
#: Missed heartbeat intervals before a worker is suspected (tried only
#: after every ALIVE owner of a shard).
DEFAULT_SUSPECT_MISSES = 3
#: Missed heartbeat intervals before a worker is evicted outright.
DEFAULT_EVICT_MISSES = 8

_REG = obs.registry()
_TRANSITIONS = _REG.counter(
    "repro_fabric_worker_transitions_total",
    "Worker trust-state transitions observed by the router's registry.",
    labels=("state",),
)
_WORKERS = _REG.gauge(
    "repro_fabric_workers",
    "Registered workers by current trust state.",
    labels=("state",),
)


@dataclass
class WorkerInfo:
    """One registered worker: identity, capabilities, trust state."""

    worker_id: str
    address: str
    capabilities: dict = field(default_factory=dict)
    state: str = ALIVE
    registered_at: float = 0.0
    last_seen: float = 0.0
    heartbeats: int = 0

    def as_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "address": self.address,
            "state": self.state,
            "heartbeats": self.heartbeats,
            "capabilities": dict(self.capabilities),
        }


class WorkerRegistry:
    """Tracks worker liveness from registrations, heartbeats and drains.

    Args:
        heartbeat_interval_s: the cadence workers were told to beat at;
            the ALIVE -> SUSPECT -> DEAD ladder counts missed intervals
            of it (``DEFAULT_SUSPECT_MISSES`` / ``DEFAULT_EVICT_MISSES``).
        clock: monotonic time source (injected for tests).
    """

    def __init__(
        self,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        clock=time.monotonic,
    ) -> None:
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        self.heartbeat_interval_s = heartbeat_interval_s
        self._clock = clock
        self.workers: dict[str, WorkerInfo] = {}

    # ------------------------------------------------------------------
    # Control-plane events
    # ------------------------------------------------------------------

    def register(
        self, worker_id: str, address: str, capabilities: dict | None = None
    ) -> WorkerInfo:
        """A worker announced itself (or came back from the dead)."""
        now = self._clock()
        info = WorkerInfo(
            worker_id=worker_id,
            address=address,
            capabilities=dict(capabilities or {}),
            state=ALIVE,
            registered_at=now,
            last_seen=now,
        )
        previous = self.workers.get(worker_id)
        if previous is not None:
            info.heartbeats = previous.heartbeats
        self.workers[worker_id] = info
        self._note_transition(ALIVE)
        return info

    def heartbeat(self, worker_id: str) -> bool:
        """One beat; ``False`` when the worker is unknown (re-register).

        A beat revives SUSPECT workers but *not* DRAINING or DEAD ones:
        drain is a one-way door (the worker announced its own exit), and
        a dead worker must re-register so the router re-learns its
        address and capabilities.
        """
        info = self.workers.get(worker_id)
        if info is None:
            return False
        info.last_seen = self._clock()
        info.heartbeats += 1
        if info.state == SUSPECT:
            self._set_state(info, ALIVE)
        return info.state in (ALIVE, SUSPECT, DRAINING)

    def drain(self, worker_id: str) -> bool:
        """The worker says it is draining (SIGTERM): stop routing to it."""
        info = self.workers.get(worker_id)
        if info is None:
            return False
        if info.state != DEAD:
            self._set_state(info, DRAINING)
            info.last_seen = self._clock()
        return True

    def sweep(self) -> list[tuple[str, str]]:
        """Apply the missed-heartbeat ladder; returns the transitions.

        Call periodically (the router does, at half the heartbeat
        interval).  Returns ``(worker_id, new_state)`` pairs for logging.
        """
        now = self._clock()
        transitions = []
        for info in self.workers.values():
            misses = (now - info.last_seen) / self.heartbeat_interval_s
            if info.state in (ALIVE, SUSPECT, DRAINING):
                if misses >= DEFAULT_EVICT_MISSES:
                    self._set_state(info, DEAD)
                    transitions.append((info.worker_id, DEAD))
                elif info.state == ALIVE and misses >= DEFAULT_SUSPECT_MISSES:
                    self._set_state(info, SUSPECT)
                    transitions.append((info.worker_id, SUSPECT))
        return transitions

    def mark_suspect(self, worker_id: str) -> None:
        """A data-plane failure (dead channel) is evidence, not proof."""
        info = self.workers.get(worker_id)
        if info is not None and info.state == ALIVE:
            self._set_state(info, SUSPECT)

    # ------------------------------------------------------------------
    # Routing views
    # ------------------------------------------------------------------

    def state_of(self, worker_id: str) -> str | None:
        info = self.workers.get(worker_id)
        return None if info is None else info.state

    def address_of(self, worker_id: str) -> str | None:
        info = self.workers.get(worker_id)
        return None if info is None else info.address

    def routable(self, candidates) -> list[str]:
        """The candidates new work may go to, in preference order.

        ALIVE workers first (in candidate order), then SUSPECT ones —
        a suspect owner is still *tried* once the router has tried every
        healthy replica, but never preferred over one.  DRAINING and
        DEAD workers are excluded: that exclusion is the routing half of
        drain-aware failover.
        """
        alive = [w for w in candidates if self.state_of(w) == ALIVE]
        suspect = [w for w in candidates if self.state_of(w) == SUSPECT]
        return alive + suspect

    def counts(self) -> dict[str, int]:
        counts = {state: 0 for state in WORKER_STATES}
        for info in self.workers.values():
            counts[info.state] += 1
        return counts

    def snapshot(self) -> dict:
        return {
            "workers": {
                worker_id: info.as_dict()
                for worker_id, info in sorted(self.workers.items())
            },
            "counts": self.counts(),
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "suspect_misses": DEFAULT_SUSPECT_MISSES,
            "evict_misses": DEFAULT_EVICT_MISSES,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _set_state(self, info: WorkerInfo, state: str) -> None:
        if info.state != state:
            info.state = state
            self._note_transition(state)

    def _note_transition(self, state: str) -> None:
        _TRANSITIONS.inc(state=state)
        for name, value in self.counts().items():
            _WORKERS.set(value, state=name)
