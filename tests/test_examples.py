"""The fast examples run and print what their docstrings promise.

Each example runs in-process as ``__main__``; its output is checked for
the facts it reports.  ``classify_circuit_cuts.py``,
``signature_anatomy.py`` and ``runtime_stability.py`` are left to CI's
examples step: they take seconds, not fractions of one.
"""

import re
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture
def run_example(capsys):
    def run(name: str) -> str:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        return capsys.readouterr().out

    return run


def test_class_library(run_example):
    out = run_example("class_library.py")
    assert "All 14 NPN classes of 3-input functions" in out
    assert "orbit sizes sum to 256 = 2^8" in out
    assert "53 unique 3-input cut functions from adder8 + mult4, 6 exact NPN classes" in out


def test_library_matching(run_example):
    out = run_example("library_matching.py")
    mapped, total = map(int, re.search(r"mapped (\d+)/(\d+) cut", out).groups())
    assert 0 < mapped <= total
    assert out.count("pins:") == mapped


def test_persistent_library(run_example):
    out = run_example("persistent_library.py")
    assert re.search(r"^3\s+14\s+256\s+48\s*$", out, re.MULTILINE)
    assert re.search(r"-> n3-c[0-9a-f]+  witness ", out)


def test_quickstart(run_example):
    out = run_example("quickstart.py")
    assert "OIV  = (2, 2, 2)" in out
    assert "Classified 7 functions into 5 NPN classes" in out


def test_service_roundtrip(run_example):
    out = run_example("service_roundtrip.py")
    assert "majority -> n3-c17" in out
    assert "pipelined 300 queries, 300 witnesses re-verified offline" in out
    assert out.rstrip().endswith("daemon drained and stopped")
