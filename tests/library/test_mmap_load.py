"""Memory-mapped library loading.

``ClassLibrary.load`` can memory-map the STORED ``classes.npz`` members
so N serving replicas share one page-cache image of the library.
"""

import numpy as np
import pytest

from repro.core.truth_table import TruthTable
from repro.library import ClassLibrary, build_exhaustive_library
from repro.library.store import TABLES_FILE, _mmap_tables, _read_tables


@pytest.fixture(scope="module")
def saved_lib3(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lib3")
    build_exhaustive_library(3).save(directory)
    return directory


class TestMmapLoad:
    def test_mmap_load_matches_eager_load(self, saved_lib3):
        eager = ClassLibrary.load(saved_lib3)
        mapped = ClassLibrary.load(saved_lib3, mmap_mode="r")
        assert set(mapped.classes) == set(eager.classes)
        for class_id, entry in eager.classes.items():
            other = mapped.classes[class_id]
            assert other.representative == entry.representative
            assert other.size == entry.size
            assert other.exact == entry.exact
        maj = TruthTable.majority(3)
        assert mapped.match(maj).class_id == eager.match(maj).class_id

    def test_tables_really_are_memory_mapped(self, saved_lib3):
        arrays = _read_tables(saved_lib3 / TABLES_FILE, mmap_mode="r")
        assert set(arrays) == {"ns", "sizes", "exact", "reps"}
        for name, array in arrays.items():
            assert isinstance(array, np.memmap), name

    def test_write_modes_are_rejected(self, saved_lib3):
        with pytest.raises(ValueError, match="mmap_mode"):
            ClassLibrary.load(saved_lib3, mmap_mode="w+")
        with pytest.raises(ValueError, match="mmap_mode"):
            ClassLibrary.load(saved_lib3, mmap_mode="r+")

    def test_compressed_archive_falls_back_to_eager_read(self, tmp_path):
        # A foreign tool may rewrite classes.npz with DEFLATE members;
        # the mapper must decline (offsets point at compressed bytes)
        # and the eager path must still serve the load.
        library = build_exhaustive_library(3)
        library.save(tmp_path)
        with np.load(tmp_path / TABLES_FILE) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez_compressed(tmp_path / TABLES_FILE, **arrays)
        assert _mmap_tables(tmp_path / TABLES_FILE, "r") is None
        loaded = ClassLibrary.load(tmp_path, mmap_mode="r")
        assert loaded.num_classes == library.num_classes
