"""The face/point NPN classifier — Algorithm 1 of the paper.

For every input truth table the classifier computes the selected signature
vectors, assembles the Mixed Signature Vector, and buckets functions by
hashing it.  No transformation enumeration is performed, so (Section V-C)
the runtime is linear in the number of functions and independent of the
functions' symmetry structure.

The classifier is *sound but not exact*: equal signatures are a necessary
condition for NPN equivalence, so NPN-equivalent functions always share a
bucket (the never-split invariant), while rare non-equivalent collisions
may merge buckets.  ``#classes <= #exact classes`` always holds.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.msv import DEFAULT_PARTS, MixedSignature, compute_msv, normalize_parts
from repro.core.truth_table import TruthTable

__all__ = ["FacePointClassifier", "ClassificationResult"]


@dataclass
class ClassificationResult:
    """Outcome of one classification run."""

    parts: tuple[str, ...]
    groups: dict[MixedSignature, list[TruthTable]] = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return len(self.groups)

    @property
    def num_functions(self) -> int:
        return sum(len(members) for members in self.groups.values())

    def representatives(self) -> list[TruthTable]:
        """The first-seen member of every class."""
        return [members[0] for members in self.groups.values()]

    def class_sizes(self) -> list[int]:
        """Class sizes, descending."""
        return sorted((len(m) for m in self.groups.values()), reverse=True)

    def class_of(self, tt: TruthTable) -> list[TruthTable]:
        """All classified functions sharing ``tt``'s signature."""
        return self.groups.get(compute_msv(tt, self.parts), [])

    def buckets_digest(self) -> str:
        """Order-sensitive digest of the complete grouping.

        Covers group insertion order, member order and every member's
        table — equal digests mean byte-identical buckets.  Used to check
        that alternative engines (``repro.engine.BatchedClassifier``)
        reproduce this classifier's output exactly.
        """
        payload = repr(
            (
                self.parts,
                [
                    (signature.key, [(tt.n, tt.bits) for tt in members])
                    for signature, members in self.groups.items()
                ],
            )
        ).encode()
        return hashlib.blake2b(payload, digest_size=16).hexdigest()


class FacePointClassifier:
    """NPN classifier driven purely by signature vectors (Algorithm 1).

    Args:
        parts: which signature vectors make up the MSV.  Defaults to the
            paper's full combination ``(c0, ocv1, ocv2, oiv, osv, osdv)``
            — the "All" column of Table II.  Passing a subset reproduces
            the other columns.

    Example:
        >>> from repro import TruthTable
        >>> clf = FacePointClassifier()
        >>> maj = TruthTable.majority(3)
        >>> result = clf.classify([maj, ~maj, maj.flip_input(1)])
        >>> result.num_classes
        1
    """

    def __init__(self, parts: Iterable[str] = DEFAULT_PARTS) -> None:
        self.parts = normalize_parts(parts)

    def signature(self, tt: TruthTable) -> MixedSignature:
        """The MSV of one function under this classifier's part selection."""
        return compute_msv(tt, self.parts)

    def signatures(self, tables: Iterable[TruthTable]) -> list[MixedSignature]:
        """MSVs of many functions, in input order: a plain loop.

        The batched engine's ``signatures`` returns each MSV flat, as
        its row's bytes, from a vectorized pass.
        """
        return [self.signature(tt) for tt in tables]

    def classify(self, tables: Iterable[TruthTable]) -> ClassificationResult:
        """Group functions into NPN classes by signature hashing."""
        result = ClassificationResult(self.parts)
        groups = result.groups
        for tt in tables:
            groups.setdefault(self.signature(tt), []).append(tt)
        return result

    def count_classes(self, tables: Iterable[TruthTable]) -> int:
        """Number of classes without retaining group membership (low memory)."""
        return len({self.signature(tt) for tt in tables})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FacePointClassifier(parts={self.parts})"
