"""Gather-table construction and the per-process memory cache."""

import numpy as np
import pytest

from repro.core.transforms import NPNTransform, all_transforms
from repro.kernels.gather import (
    MAX_KERNEL_VARS,
    GatherTable,
    clear_memory_cache,
    gather_table,
)


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    """Each test sees (and leaves behind) a clean process cache."""
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestConstruction:
    @pytest.mark.parametrize("n", range(0, MAX_KERNEL_VARS + 1))
    def test_shapes(self, n):
        from math import factorial

        table = gather_table(n)
        assert table.perms.shape == (factorial(n), max(n, 0))
        assert table.perm_maps.shape == (factorial(n), 1 << n)
        assert table.np_group_order == factorial(n) << n

    @pytest.mark.parametrize("n", range(1, 5))
    def test_maps_agree_with_apply_index(self, n):
        """Row ``p``, phase ``q`` maps minterm ``m`` to apply_index(m)."""
        table = gather_table(n)
        for transform in all_transforms(n, include_output=False):
            row = table.rows_for(np.array(transform.perm))
            maps = table.index_maps(
                np.array([row]), np.array([transform.input_phase])
            )[0]
            for m in range(1 << n):
                assert maps[m] == transform.apply_index(m)

    @pytest.mark.parametrize("n", range(0, MAX_KERNEL_VARS + 1))
    def test_rows_for_every_permutation(self, n):
        import itertools

        table = gather_table(n)
        perms = np.array(
            list(itertools.permutations(range(n))), dtype=np.intp
        ).reshape(table.num_perms, n)
        rows = table.rows_for(perms)
        assert rows.tolist() == list(range(table.num_perms))
        assert np.array_equal(table.perms[rows], perms)

    def test_rows_for_a_repeated_variable_is_minus_one(self):
        table = gather_table(3)
        vectors = np.array([[0, 0, 1], [2, 1, 0], [1, 1, 1]])
        assert table.rows_for(vectors).tolist() == [-1, 5, -1]

    def test_group_index_maps_order(self):
        """Block enumeration is permutation-major, phase-minor."""
        n = 3
        table = gather_table(n)
        maps = table.group_index_maps(slice(0, table.num_perms))
        expected = [
            NPNTransform(perm_row, phase, 0)
            for perm_row in [tuple(p) for p in table.perms.tolist()]
            for phase in range(1 << n)
        ]
        assert maps.shape == (table.np_group_order, 1 << n)
        for row, transform in zip(maps, expected):
            for m in range(1 << n):
                assert row[m] == transform.apply_index(m)

    def test_rejects_out_of_range_arity(self):
        with pytest.raises(ValueError, match="n <= 6"):
            gather_table(MAX_KERNEL_VARS + 1)
        with pytest.raises(ValueError):
            gather_table(-1)

    def test_memory_cache_returns_same_object(self):
        assert gather_table(5) is gather_table(5)


    def test_builds_without_writing_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for n in range(MAX_KERNEL_VARS + 1):
            gather_table(n)
        assert not any(tmp_path.rglob("*"))
