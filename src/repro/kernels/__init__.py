"""Vectorized NPN transform kernels — the gather-table hot path.

For ``n <= 6`` a truth table fits one ``uint64`` and applying an NPN
transform is a precomputable *index gather*, not a loop.  This package
precomputes per-arity gather tables (built on first use, memory-cached
per process) and exposes vectorized primitives on top of them:

* :func:`apply_pairwise` — each table under its own transform (the
  batched witness check);
* :func:`orbit` / :func:`orbit_chunks` — exhaustive orbit enumeration;
* :func:`canonical_min` — batched exhaustive canonical minima, and
  :func:`canonical_min_transforms` — the same plus the transform
  reaching each minimum, decoded by :func:`decode_images`;
* :func:`key_matrices` — batched matcher variable keys in int64 rows.

Transforms go in and come out as
:class:`~repro.core.transforms.TransformColumns` batches.  The matcher
(:mod:`repro.baselines.matcher`), the class library
(:mod:`repro.library`) and — through them — the online service all run
their exact-matching hot paths through these kernels; the scalar
:class:`~repro.core.transforms.NPNTransform` operations remain as
oracles, and above ``n = 6`` the scalar matcher and the influence
search take over (:func:`decode_images` decodes that search's argmin
too).  Depends on :mod:`repro.core` only.
"""

from repro.kernels.gather import (
    MAX_KERNEL_VARS,
    GatherTable,
    clear_memory_cache,
    gather_table,
)
from repro.kernels.keys import (
    KEY_WIDTH,
    KeyMatrices,
    complement_key_matrices,
    key_matrices,
)
from repro.kernels.ops import (
    apply_pairwise,
    bit_matrix,
    canonical_min,
    canonical_min_transforms,
    decode_images,
    flip_input,
    orbit,
    orbit_chunks,
    pack_rows,
)

__all__ = [
    "MAX_KERNEL_VARS",
    "GatherTable",
    "gather_table",
    "clear_memory_cache",
    "KEY_WIDTH",
    "KeyMatrices",
    "key_matrices",
    "complement_key_matrices",
    "apply_pairwise",
    "bit_matrix",
    "pack_rows",
    "flip_input",
    "orbit",
    "orbit_chunks",
    "canonical_min",
    "canonical_min_transforms",
    "decode_images",
]
