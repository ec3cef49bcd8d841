"""Shared fixtures of the fabric tests.

The same exhaustive n<=3 library the service tests use — small enough
that every routed answer can be re-verified against the offline match
path, which is what makes the chaos soak a correctness test and not
just a liveness test.
"""

import pytest

from repro.library import build_library
from repro.workloads.library_corpus import exhaustive_tables


@pytest.fixture(scope="session")
def tiny_library():
    library = build_library([*exhaustive_tables(2), *exhaustive_tables(3)])
    assert library.num_classes == 4 + 14
    return library


@pytest.fixture(scope="session")
def library_dir(tiny_library, tmp_path_factory):
    """The tiny library saved to disk, for subprocess fleets."""
    path = tmp_path_factory.mktemp("fabric") / "lib"
    tiny_library.save(path)
    return path
