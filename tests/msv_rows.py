"""The scalar twins of the engine's flat MSV keys, for differential tests.

:func:`repro.core.msv.compute_msv` is the oracle: its nested key,
flattened in order, is the engine's row (:func:`flat_key` gives its
bytes), and :func:`scalar_shard_key` hashes that row the way the fabric
does.  Flattening lives here, not in ``src/``: no serving path needs it.
"""

from __future__ import annotations

import numpy as np

from repro.core.msv import MixedSignature, compute_msv
from repro.core.truth_table import TruthTable
from repro.fabric.ring import shard_key_of


def flatten(key) -> list[int]:
    """The integers of a nested ``compute_msv`` key, in key order."""
    if not isinstance(key, tuple):
        return [int(key)]
    return [value for part in key for value in flatten(part)]


def flat_key(signature: MixedSignature) -> bytes:
    """The oracle's key as the engine's row bytes (little-endian int64)."""
    return np.array(flatten(signature.key), dtype="<i8").tobytes()


def scalar_shard_key(table: TruthTable) -> str:
    """The shard key of one table, from its big-int MSV."""
    return shard_key_of(table.n, flat_key(compute_msv(table)))
