"""Worker trust-state machine, driven by an injected clock."""

import pytest

from repro.fabric.registry import (
    ALIVE,
    DEAD,
    DRAINING,
    SUSPECT,
    WorkerRegistry,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def registry(clock):
    return WorkerRegistry(heartbeat_interval_s=1.0, clock=clock)


class TestLadder:
    def test_fresh_worker_is_alive(self, registry):
        registry.register("w0", "127.0.0.1:9000")
        assert registry.state_of("w0") == ALIVE

    def test_missed_beats_suspect_then_evict(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000")
        clock.advance(2.9)
        assert registry.sweep() == []
        clock.advance(0.2)  # 3.1 intervals missed
        assert registry.sweep() == [("w0", SUSPECT)]
        clock.advance(4.0)  # 7.1 missed — still suspect
        assert registry.sweep() == []
        assert registry.state_of("w0") == SUSPECT
        clock.advance(1.0)  # 8.1 missed — evicted
        assert registry.sweep() == [("w0", DEAD)]

    def test_heartbeat_revives_suspect(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000")
        clock.advance(3.5)
        registry.sweep()
        assert registry.state_of("w0") == SUSPECT
        assert registry.heartbeat("w0") is True
        assert registry.state_of("w0") == ALIVE

    def test_heartbeat_does_not_revive_dead(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000")
        clock.advance(9.0)
        registry.sweep()
        assert registry.state_of("w0") == DEAD
        assert registry.heartbeat("w0") is False
        assert registry.state_of("w0") == DEAD

    def test_unknown_heartbeat_asks_for_reregistration(self, registry):
        assert registry.heartbeat("ghost") is False

    def test_reregistration_revives_dead(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000")
        clock.advance(9.0)
        registry.sweep()
        registry.register("w0", "127.0.0.1:9100")
        assert registry.state_of("w0") == ALIVE
        assert registry.address_of("w0") == "127.0.0.1:9100"


class TestDrain:
    def test_drain_is_one_way(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000")
        assert registry.drain("w0") is True
        assert registry.state_of("w0") == DRAINING
        # Heartbeats keep arriving while the backlog drains — they must
        # NOT put the worker back into rotation.
        assert registry.heartbeat("w0") is True
        assert registry.state_of("w0") == DRAINING

    def test_drain_unknown_worker(self, registry):
        assert registry.drain("ghost") is False

    def test_silent_draining_worker_is_eventually_evicted(
        self, registry, clock
    ):
        registry.register("w0", "127.0.0.1:9000")
        registry.drain("w0")
        clock.advance(9.0)
        assert registry.sweep() == [("w0", DEAD)]


class TestRouting:
    def test_routable_prefers_alive_over_suspect(self, registry, clock):
        for worker_id in ("w0", "w1", "w2"):
            registry.register(worker_id, f"127.0.0.1:900{worker_id[-1]}")
        registry.mark_suspect("w0")
        assert registry.routable(["w0", "w1"]) == ["w1", "w0"]

    def test_routable_excludes_draining_and_dead(self, registry, clock):
        for worker_id in ("w0", "w1", "w2"):
            registry.register(worker_id, "127.0.0.1:9000")
        registry.drain("w1")
        clock.advance(9.0)
        registry.sweep()  # everyone dead except... all dead actually
        registry.register("w2", "127.0.0.1:9002")
        assert registry.routable(["w0", "w1", "w2"]) == ["w2"]

    def test_mark_suspect_only_demotes_alive(self, registry):
        registry.register("w0", "127.0.0.1:9000")
        registry.drain("w0")
        registry.mark_suspect("w0")
        assert registry.state_of("w0") == DRAINING

    def test_counts_and_snapshot(self, registry, clock):
        registry.register("w0", "127.0.0.1:9000", {"classes": 18})
        registry.register("w1", "127.0.0.1:9001")
        registry.drain("w1")
        counts = registry.counts()
        assert counts["alive"] == 1 and counts["draining"] == 1
        snapshot = registry.snapshot()
        assert snapshot["workers"]["w0"]["capabilities"] == {"classes": 18}
        assert snapshot["counts"] == counts


class TestValidation:
    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            WorkerRegistry(heartbeat_interval_s=0.0)
