"""Regression: the n = 6 match, learn and build paths run numpy work on
the calling thread only.

A float contraction in the matcher's key histograms once went through
BLAS, whose worker thread then spin-waited beside every daemon batch of
a few hundred n = 6 rows; on a 2-core host that thread took more CPU
than the matcher.  The test runs the three paths in a fresh interpreter
and reads the CPU time of every *other* thread of the process from
``/proc/self/task``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = r"""
import os, random, tempfile, threading

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.library import LearningLibrary, build_library


def other_thread_ticks():
    me = str(threading.get_native_id())
    total = 0
    for task in os.listdir("/proc/self/task"):
        if task == me:
            continue
        try:
            with open(f"/proc/self/task/{task}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total


rng = random.Random(6)
reps = [TruthTable.random(6, rng) for _ in range(64)]
batches = [
    [rng.choice(reps).apply(random_transform(6, rng)) for _ in range(256)]
    for _ in range(10)
]
misses = [TruthTable.random(6, rng) for _ in range(64)]

before = other_thread_ticks()
library = build_library(reps)
for batch in batches:
    assert all(m is not None for m in library.match_many(batch))
with tempfile.TemporaryDirectory() as directory:
    learner = LearningLibrary.open(directory, create=True)
    learner.library.match_many(misses, learn=learner.learn)
    assert learner.minted == len(set(misses))
    learner.close()
print(other_thread_ticks() - before)
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
)
def test_match_learn_and_build_burn_no_cpu_in_other_threads():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ticks = int(done.stdout.split()[-1])
    assert ticks <= 1, f"other threads used {ticks} CPU ticks"
