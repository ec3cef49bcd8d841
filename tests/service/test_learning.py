"""Service-level learn-on-miss tests.

The contract of ``serve --learn``: the *first* query of an unknown class
is already answered as a verified hit (the coalescer mints in-batch and
upgrades the reply), every identical query after it hits — through the
match cache or, with the cache disabled, through the library itself —
and exactly one class is minted per distinct orbit.  Stopping the
service drains the WAL: segments are compacted into the on-disk image.

``classes_minted`` in ``stats`` is process-wide, so tests read its
growth across the traffic they send.
"""

import pytest

from repro import obs
from repro.core.truth_table import TruthTable
from repro.library import ClassLibrary, LearningLibrary, list_segments
from repro.service import ServiceClient, ThreadedService

MISS = TruthTable.from_hex(6, "deadbeefcafe4242")


@pytest.fixture()
def learner(tiny_library, tmp_path):
    tiny_library.save(tmp_path)
    return LearningLibrary.open(tmp_path)


def serve(learner, **kwargs):
    return ThreadedService(learner.library, learner=learner, **kwargs)


class TestLearnOnMiss:
    def test_second_identical_miss_is_a_verified_cached_hit(self, learner):
        with serve(learner) as svc, ServiceClient(port=svc.port) as client:
            minted_before = client.stats()["classes_minted"]
            first = client.match(MISS)
            assert first["hit"] and not first["cached"]
            assert ServiceClient.verify(first, MISS)

            second = client.match(MISS)
            assert second["hit"] and second["cached"]
            assert second["class_id"] == first["class_id"]
            assert ServiceClient.verify(second, MISS)

            stats = client.stats()
            assert stats["classes_minted"] == minted_before + 1
            assert stats["learning"]["classes_minted"] == 1
            assert stats["learning"]["wal_segments"] == 1

    def test_mint_moves_only_the_library_counter(self, learner):
        reg = obs.registry()
        minted = reg.get("repro_library_classes_minted_total")
        assert [
            family.name for family in reg.families() if "minted" in family.name
        ] == [minted.name]
        before = minted.value()
        with serve(learner) as svc, ServiceClient(port=svc.port) as client:
            assert client.match(MISS)["hit"]
            assert client.stats()["classes_minted"] == before + 1
        assert minted.value() == before + 1

    def test_minted_class_survives_cache_disablement(self, learner):
        with serve(learner, cache_size=0) as svc:
            with ServiceClient(port=svc.port) as client:
                first = client.match(MISS)
                second = client.match(MISS)
        # No cache: the second answer had to come from the library the
        # mint grew, and must not have minted again.
        assert first["hit"] and second["hit"]
        assert second["class_id"] == first["class_id"]
        assert not second["cached"]
        assert learner.minted == 1

    def test_npn_image_of_learned_miss_hits_without_second_mint(
        self, learner
    ):
        image = ~MISS.flip_inputs(0b001101)
        with serve(learner) as svc, ServiceClient(port=svc.port) as client:
            minted_before = client.stats()["classes_minted"]
            client.match(MISS)
            result = client.match(image)
            assert result["hit"]
            assert ServiceClient.verify(result, image)
            assert client.stats()["classes_minted"] == minted_before + 1

    def test_healthz_advertises_learning(self, learner, tiny_library):
        with serve(learner) as svc:
            assert svc.service.coalescer.learner is learner
        with ThreadedService(tiny_library) as svc:
            assert svc.service.coalescer.learner is None

    def test_without_learner_misses_stay_misses(self, tiny_library):
        with ThreadedService(tiny_library) as svc:
            with ServiceClient(port=svc.port) as client:
                minted_before = client.stats()["classes_minted"]
                result = client.match(MISS)
                assert result == {"hit": False, "n": 6, "cached": False}
                assert client.stats()["classes_minted"] == minted_before


class TestDrainCompaction:
    def test_stop_compacts_the_wal(self, learner, tmp_path):
        with serve(learner) as svc:
            with ServiceClient(port=svc.port) as client:
                assert client.match(MISS)["hit"]
            assert len(list_segments(tmp_path)) == 1
        # Drain hook ran: the segment merged into the image.
        assert list_segments(tmp_path) == []
        assert learner.compactions == 1

        reloaded = ClassLibrary.load(tmp_path)
        hit = reloaded.match(MISS)
        assert hit is not None and hit.verify(MISS)

    def test_mismatched_learner_library_is_rejected(self, learner):
        foreign = ClassLibrary()
        with pytest.raises(ValueError):
            ThreadedService(foreign, learner=learner).start()
