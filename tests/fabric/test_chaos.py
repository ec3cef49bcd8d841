"""Chaos soak: a real subprocess fleet, hurt mid-stream.

These are the end-to-end robustness tests the fabric exists for.  A
router and three workers run as real ``python -m repro`` subprocesses
(the exact entry points operators use); a client streams queries while
:class:`ChaosFleet` injects faults.  The contract under every fault:

* every query **terminates** — a verified witness or a typed
  :class:`ServiceError`, never a hang (the client socket timeout is the
  hang detector: it failing the test means the router broke the
  never-hang promise);
* every answered witness verifies and names the same class the offline
  library does — failover must be *correct*, not merely live.
"""

import json
import time

import pytest

from repro.core.truth_table import TruthTable
from repro.fabric.chaos import ChaosFleet, wait_until
from repro.service import ServiceClient, ServiceError, ServiceUnavailableError
from repro.service.client import http_get

pytestmark = [pytest.mark.slow, pytest.mark.integration]

RING = ("w0", "w1", "w2")

#: Aggressive failure-detection knobs so the soak converges in seconds.
ROUTER_KNOBS = {
    "heartbeat_interval_s": 0.2,
    "timeout_ms": 1000,
    "base_ms": 10,
    "cap_ms": 80,
}


@pytest.fixture()
def fleet(library_dir):
    with ChaosFleet(library_dir, RING) as fleet:
        fleet.start(**ROUTER_KNOBS)
        daemons = [fleet.router, *fleet.workers.values()]
        yield fleet
    # A racer whose failure nobody looked at is a router bug, even when
    # every query was answered.
    for daemon in daemons:
        assert "never retrieved" not in daemon.output(), daemon.name


def stream_queries(fleet, values, fault_at=None, fault=None):
    """Drive ``values`` through the router, injecting ``fault()`` once.

    Returns ``(answered, failed)``: verified results by value, and the
    typed error codes of queries the router refused.  Anything else —
    a hang (socket timeout), an unverified witness, an untyped error —
    fails the test immediately.
    """
    answered: dict[int, dict] = {}
    failed: dict[int, str] = {}
    with ServiceClient(port=fleet.router.port, timeout=15.0) as client:
        for position, value in enumerate(values):
            if fault_at is not None and position == fault_at:
                fault()
            table = TruthTable(3, value)
            try:
                result = client.match(table)
            except ServiceUnavailableError:
                raise  # the router hung or hung up: never a typed refusal
            except ServiceError as exc:
                failed[value] = exc.error_type
                continue
            assert result["hit"], f"library is exhaustive; 0x{value:02x} must hit"
            assert ServiceClient.verify(result, table)
            answered[value] = result
    return answered, failed


def assert_matches_offline(answered, tiny_library):
    for value, result in answered.items():
        offline = tiny_library.match(TruthTable(3, value))
        assert result["class_id"] == offline.class_id


class TestKillSoak:
    def test_sigkill_one_worker_mid_stream(self, fleet, tiny_library):
        # Two full passes over every n=3 function, one worker SIGKILLed
        # a third of the way in.  Replication (R=2) means every shard
        # keeps a live holder, so the soak demands MORE than liveness:
        # every single query must come back verified.
        values = list(range(256)) * 2
        victim = fleet.workers["w1"]
        answered, failed = stream_queries(
            fleet,
            values,
            fault_at=len(values) // 3,
            fault=victim.kill,
        )
        assert not failed, f"replica held every shard, yet: {failed}"
        assert len(answered) == 256
        assert_matches_offline(answered, tiny_library)
        assert not victim.alive
        # The router must have noticed: the victim leaves the alive set.
        status, body = http_get(fleet.router.address, "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["registry"]["workers"]["w1"]["state"] != "alive"
        # Failing over took retries (dead channel) — they were counted.
        assert stats["fabric"]["retries"] >= 1

    def test_stalled_worker_times_out_then_recovers(self, fleet, tiny_library):
        # SIGSTOP is the gray failure: the socket accepts, nothing
        # answers.  Timeouts + replica retry must carry every query.
        victim = fleet.workers["w2"]
        values = list(range(0, 256, 3))
        answered, failed = stream_queries(
            fleet,
            values,
            fault_at=len(values) // 4,
            fault=victim.stall,
        )
        assert not failed
        assert_matches_offline(answered, tiny_library)
        victim.resume()
        assert victim.alive
        # After SIGCONT, heartbeats resume and the worker rejoins.
        assert wait_until(
            lambda: json.loads(
                http_get(fleet.router.address, "/v1/stats")[1]
            )["registry"]["workers"]["w2"]["state"] == "alive",
            timeout_s=15.0,
        ), "resumed worker never rejoined the alive set"


class TestDrainFailover:
    def test_sigterm_drains_politely_and_queries_keep_answering(
        self, fleet, tiny_library
    ):
        # SIGTERM is the polite death: drain notice first (router stops
        # routing new work there), backlog answered, clean exit 0.
        victim = fleet.workers["w0"]
        values = list(range(256))
        answered, failed = stream_queries(
            fleet,
            values,
            fault_at=64,
            fault=victim.term,
        )
        assert not failed
        assert len(answered) == 256
        assert_matches_offline(answered, tiny_library)
        # The drain must end in a clean exit, not a kill.
        assert victim.wait(timeout_s=30.0) == 0
        status, body = http_get(fleet.router.address, "/v1/stats")
        assert status == 200
        state = json.loads(body)["registry"]["workers"]["w0"]["state"]
        assert state in ("draining", "dead")


class TestFleetHygiene:
    def test_stop_all_leaves_no_processes(self, library_dir):
        fleet = ChaosFleet(library_dir, RING)
        fleet.start(**ROUTER_KNOBS)
        daemons = [fleet.router, *fleet.workers.values()]
        # Hurt one of everything first: teardown must cope with a
        # stalled worker (SIGCONT before SIGTERM) and a dead one.
        fleet.workers["w1"].stall()
        fleet.workers["w2"].kill()
        t0 = time.monotonic()
        fleet.stop_all()
        assert time.monotonic() - t0 < 30.0
        for daemon in daemons:
            assert not daemon.alive
        assert fleet.router is None and not fleet.workers
