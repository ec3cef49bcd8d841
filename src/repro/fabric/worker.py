"""A fabric worker: one shard-serving daemon that phones home.

:class:`FabricWorker` *is* a classification daemon — same wire protocol,
same coalescer, same metrics — serving the shard of the library its ring
position owns (the CLI builds that shard with
:meth:`HashRing.shard_filter` + :meth:`ClassLibrary.subset`).  On top of
the daemon it runs the fabric's control-plane half:

* **register** with the router on startup (retried with the fabric's
  capped backoff until the router exists — start order never matters),
  announcing its address, ring spec, and capabilities;
* **heartbeat** at the cadence the router's registration reply dictates;
  a ``known: false`` heartbeat reply means the router restarted and lost
  its registry, so the worker simply re-registers;
* **drain notice** on SIGTERM, *before* draining its own backlog — the
  router stops routing new work to it immediately while the already
  dispatched requests finish on the still-open channels.  That ordering
  is what makes failover drain-aware rather than lossy.

Control-plane calls are deliberately one-shot connections (dial, one
line, one reply, close): they are rare, and a broken control call must
never entangle the data path.
"""

from __future__ import annotations

import asyncio
import json

from repro.fabric.backoff import RetryPolicy
from repro.fabric.registry import DEFAULT_HEARTBEAT_INTERVAL_S
from repro.fabric.ring import HashRing
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.server import ClassificationService

__all__ = ["FabricWorker"]

#: Ceiling for one control-plane round trip (register/heartbeat/drain).
CONTROL_TIMEOUT_S = 2.0

#: Backoff between registration tries; the loop retries forever, so
#: only the delay schedule is read.
REGISTER_BACKOFF = RetryPolicy(base_ms=100.0, cap_ms=2000.0)


class FabricWorker(ClassificationService):
    """A classification daemon that registers and heartbeats with a router.

    Args:
        library: this worker's **shard** of the class library (already
            filtered to the arcs ``worker_id`` owns on ``ring``).
        worker_id: this worker's ring identity.
        router_address: ``host:port`` of the router's client port (the
            control plane shares it).
        ring: the fabric's ring spec; registration announces it and the
            router rejects mismatches.
        Remaining keyword arguments go to :class:`ClassificationService`.
    """

    def __init__(
        self,
        library,
        worker_id: str,
        router_address: str,
        ring: HashRing,
        **service_kwargs,
    ) -> None:
        super().__init__(library, **service_kwargs)
        self.worker_id = worker_id
        self.router_address = router_address
        self.ring = ring
        #: Replaced by the router's cadence from its registration reply.
        self.heartbeat_interval_s = DEFAULT_HEARTBEAT_INTERVAL_S
        self.registered = False
        self._control_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._control_task = asyncio.ensure_future(self._control_loop())

    async def _drain(self) -> None:
        """Drain notice to the router first, then answer the backlog."""
        if self._control_task is not None:
            # Before Python 3.12, asyncio.wait_for returns its result
            # instead of raising when the cancel lands as its inner call
            # completes, and the heartbeat loop would run on forever.
            # So cancel until the task has really ended.
            while not self._control_task.done():
                self._control_task.cancel()
                await asyncio.wait([self._control_task], timeout=0.1)
            self._control_task = None
        try:
            await self._control_call(
                {"op": "drain", "worker_id": self.worker_id}
            )
        except (OSError, ValueError, asyncio.TimeoutError):
            pass  # router gone; nothing left to stop routing
        await super()._drain()

    def _ready_message(self) -> str:
        return (
            f"worker {self.worker_id} serving {self.library.num_classes} "
            f"classes on {self.address} "
            f"(ring {','.join(self.ring.nodes)}, router {self.router_address})"
        )

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    async def _control_loop(self) -> None:
        """Register (with backoff, forever), then heartbeat; re-register
        whenever the router stops recognising us."""
        while True:
            await self._register_with_backoff()
            while True:
                await asyncio.sleep(self.heartbeat_interval_s)
                try:
                    reply = await self._control_call(
                        {"op": "heartbeat", "worker_id": self.worker_id}
                    )
                except (OSError, ValueError, asyncio.TimeoutError):
                    continue  # router unreachable; keep beating
                result = reply.get("result", {})
                if reply.get("ok") and not result.get("known", True):
                    # The router restarted with an empty registry.
                    self.registered = False
                    break

    async def _register_with_backoff(self) -> None:
        retry = 0
        while True:
            try:
                reply = await self._control_call(self._register_payload())
            except (OSError, ValueError, asyncio.TimeoutError):
                reply = None
            if reply is not None and reply.get("ok"):
                self.registered = True
                interval = reply.get("result", {}).get("heartbeat_interval_s")
                if isinstance(interval, (int, float)) and interval > 0:
                    self.heartbeat_interval_s = float(interval)
                return
            if reply is not None and not reply.get("ok"):
                # Typed rejection (ring mismatch, bad payload): retrying
                # with the same payload cannot succeed — log loudly and
                # park instead of hammering the router.
                error = reply.get("error", {})
                print(
                    f"worker {self.worker_id}: registration rejected: "
                    f"[{error.get('type')}] {error.get('message')}",
                    flush=True,
                )
                await asyncio.sleep(60.0)
                continue
            await asyncio.sleep(
                REGISTER_BACKOFF.delay_ms(min(retry, 16)) / 1000.0
            )
            retry += 1

    def _register_payload(self) -> dict:
        return {
            "op": "register",
            "worker": {
                "worker_id": self.worker_id,
                "address": self.address,
                "ring": self.ring.spec(),
                "arities": sorted(self.library.arities()),
                "classes": self.library.num_classes,
                "learning": self.coalescer.learner is not None,
                "pid": self.identity()["pid"],
            },
        }

    async def _control_call(self, payload: dict) -> dict:
        """One-shot NDJSON round trip to the router's client port."""
        host, _, port_text = self.router_address.rpartition(":")
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                host, int(port_text), limit=MAX_LINE_BYTES + 2
            ),
            CONTROL_TIMEOUT_S,
        )
        try:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), CONTROL_TIMEOUT_S)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if not line:
            raise ConnectionError("router closed the control connection")
        reply = json.loads(line)
        if not isinstance(reply, dict):
            raise ValueError(f"router sent a non-object reply: {reply!r}")
        return reply

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _healthz(self) -> dict:
        payload = super()._healthz()
        payload.update(
            worker_id=self.worker_id,
            router=self.router_address,
            registered=self.registered,
            ring=self.ring.spec(),
        )
        return payload

    def identity(self) -> dict:
        identity = super().identity()
        identity.update(
            role="worker",
            worker_id=self.worker_id,
            router=self.router_address,
            registered=self.registered,
            ring=self.ring.spec(),
        )
        return identity
