"""Learner lock: one live learner per library directory, fail-fast.

Two learners appending to one ``wal/`` race on segment creation and
corrupt the replay order; the ``wal/LOCK`` pid file turns that latent
race into an immediate, explainable :class:`LibraryLockedError` at open
time.  Stale locks — a dead holder, an unparseable file, or our own pid
from an earlier open in this process — are taken over silently.
"""

import os
import subprocess
import sys

import pytest

from repro.core.truth_table import TruthTable
from repro.library import LearningLibrary, LibraryLockedError
from repro.library.wal import (
    acquire_learner_lock,
    lock_path,
    release_learner_lock,
)


def spawn_sleeper() -> subprocess.Popen:
    """A live process whose pid can hold a lock during the test."""
    return subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])


class TestAcquireRelease:
    def test_open_claims_and_close_releases(self, tmp_path):
        learner = LearningLibrary.open(tmp_path, create=True)
        path = lock_path(tmp_path)
        assert path.read_text().strip() == str(os.getpid())
        learner.close()
        assert not path.exists()

    def test_context_manager_releases(self, tmp_path):
        with LearningLibrary.open(tmp_path, create=True):
            assert lock_path(tmp_path).exists()
        assert not lock_path(tmp_path).exists()

    def test_compact_keeps_the_lock(self, tmp_path):
        # Compaction happens mid-serve; the learner is still the active
        # learner afterwards and must not open the door to a second one.
        with LearningLibrary.open(tmp_path, create=True) as learner:
            learner.learn([TruthTable.majority(3)])
            learner.compact()
            assert lock_path(tmp_path).exists()

    def test_failed_open_does_not_leak_the_lock(self, tmp_path):
        with pytest.raises(Exception):
            LearningLibrary.open(tmp_path / "nowhere")  # no image, no create
        assert not lock_path(tmp_path / "nowhere").exists()

    def test_release_is_idempotent(self, tmp_path):
        acquire_learner_lock(tmp_path)
        release_learner_lock(tmp_path)
        release_learner_lock(tmp_path)
        assert not lock_path(tmp_path).exists()

    def test_release_leaves_foreign_locks_alone(self, tmp_path):
        path = lock_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text("99999999\n")  # not our pid
        release_learner_lock(tmp_path)
        assert path.exists()


class TestConflict:
    def test_live_foreign_holder_fails_fast(self, tmp_path):
        holder = spawn_sleeper()
        try:
            path = lock_path(tmp_path)
            path.parent.mkdir(parents=True)
            path.write_text(f"{holder.pid}\n")
            with pytest.raises(LibraryLockedError, match="active learner"):
                LearningLibrary.open(tmp_path, create=True)
            assert path.read_text().strip() == str(holder.pid)  # untouched
        finally:
            holder.kill()
            holder.wait()

    def test_error_names_the_holder_pid(self, tmp_path):
        holder = spawn_sleeper()
        try:
            path = lock_path(tmp_path)
            path.parent.mkdir(parents=True)
            path.write_text(f"{holder.pid}\n")
            with pytest.raises(LibraryLockedError, match=str(holder.pid)):
                acquire_learner_lock(tmp_path)
        finally:
            holder.kill()
            holder.wait()


class TestTakeover:
    def test_own_pid_is_taken_over(self, tmp_path):
        # A learner reopened in the same process (crash recovery tests,
        # REPL sessions) must not deadlock against its own earlier open.
        first = LearningLibrary.open(tmp_path, create=True)
        first.learn([TruthTable.majority(3)])
        first.close_segment()
        second = LearningLibrary.open(tmp_path, create=True)
        assert second.library.num_classes == 1
        second.close()

    def test_dead_holder_is_taken_over(self, tmp_path):
        corpse = spawn_sleeper()
        corpse.kill()
        corpse.wait()
        path = lock_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text(f"{corpse.pid}\n")
        with LearningLibrary.open(tmp_path, create=True):
            assert path.read_text().strip() == str(os.getpid())

    def test_unparseable_lock_is_taken_over(self, tmp_path):
        path = lock_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text("not-a-pid\n")
        with LearningLibrary.open(tmp_path, create=True):
            assert path.read_text().strip() == str(os.getpid())


class TestCrossProcess:
    def test_second_process_is_locked_out(self, tmp_path):
        """The real scenario: this process learns, another process tries."""
        with LearningLibrary.open(tmp_path, create=True):
            probe = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    (
                        "import sys\n"
                        "from repro.library import ("
                        "LearningLibrary, LibraryLockedError)\n"
                        "try:\n"
                        f"    LearningLibrary.open({str(tmp_path)!r}, "
                        "create=True)\n"
                        "except LibraryLockedError as exc:\n"
                        "    print(f'locked: {exc}')\n"
                        "    sys.exit(42)\n"
                        "sys.exit(0)\n"
                    ),
                ],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH="src"),
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            )
        assert probe.returncode == 42, probe.stderr
        assert "active learner" in probe.stdout
