"""Mixed Signature Vector (MSV) — Algorithm 1, line 6 of the paper.

The MSV concatenates selected signature vectors into one hashable key.
Part names:

========== ==========================================================
``c0``      satisfy count of the phase-normalised function (0-ary OCV)
``ocv1``    ordered 1-ary cofactor vector
``ocv2``    ordered 2-ary cofactor vector
``oiv``     ordered influence vector
``osv``     the split pair ``(OSV1, OSV0)`` as histograms — the paper's
            runtime-saving replacement for the full ``OSV``
``osv_full``  unsplit ``OSV`` histogram (output-negation invariant)
``osdv``    the split pair ``(OSDV1, OSDV0)``
``osdv_full`` unsplit ``OSDV``
``spectral``  sorted absolute Walsh spectrum (extension, not in paper)
========== ==========================================================

Output-negation canonicalisation (Theorems 3-4): for unbalanced functions
the phase with the *smaller* satisfy count is selected and every part is
computed for that polarity; for balanced functions the full key is
evaluated for both polarities and the lexicographically smaller key wins.
This generalises the paper's rule of always storing the smaller of
``OSV1``/``OSV0`` first, and makes the whole key an NPN invariant (the
never-split property the tests enforce).

The complement-polarity key is *derived*, not recomputed: cofactor counts
complement within their face size, influence and the sensitivity profile
are unchanged, and the 0/1-split vectors simply swap.

:func:`compute_msv` is the oracle of the batched engine
(:mod:`repro.engine.signatures`), which builds the same keys as flat
integer rows over a whole packed batch; the tests hold the two
byte-identical for every part selection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.core import characteristics as chars
from repro.core.signatures import _osdv_from_buckets
from repro.core.truth_table import TruthTable

__all__ = [
    "MixedSignature",
    "SignaturePieces",
    "compute_msv",
    "compute_pieces",
    "msv_from_pieces",
    "canonical_key",
    "normalize_parts",
    "PART_NAMES",
    "DEFAULT_PARTS",
]

PART_NAMES = (
    "c0",
    "ocv1",
    "ocv2",
    "ocv3",
    "oiv",
    "osv",
    "osv_full",
    "osdv",
    "osdv_full",
    "spectral",
)

DEFAULT_PARTS = ("c0", "ocv1", "ocv2", "oiv", "osv", "osdv")


@dataclass(frozen=True)
class MixedSignature:
    """Canonical NPN-invariant signature of one Boolean function."""

    n: int
    parts: tuple[str, ...]
    key: tuple

    def digest(self) -> str:
        """Stable 16-hex-digit digest of the nested key, as
        ``repro-npn signatures`` prints it.

        No serving path uses it: the library chains and the exact
        classifier key on the flat MSV row of
        :mod:`repro.engine.signatures`, and the fabric's shard key is a
        64-bit hash of that row (:func:`repro.fabric.ring.shard_key_of`).
        """
        payload = repr((self.n, self.parts, self.key)).encode()
        return hashlib.blake2b(payload, digest_size=8).hexdigest()


def normalize_parts(parts) -> tuple[str, ...]:
    """Validate and order a part selection canonically."""
    requested = set(parts)
    unknown = requested - set(PART_NAMES)
    if unknown:
        raise ValueError(f"unknown MSV parts: {sorted(unknown)}")
    if not requested:
        raise ValueError("MSV needs at least one part")
    return tuple(name for name in PART_NAMES if name in requested)


@dataclass
class SignaturePieces:
    """Raw phase-0 characteristics of one function, before key assembly.

    Only the fields needed by the selected parts are filled; the rest stay
    ``None``.  Cofactor tuples are *unsorted* raw counts — sorting happens
    during key assembly, once the output polarity is known.
    """

    n: int
    count: int
    cof1: tuple | None = None
    cof2: tuple | None = None
    cof3: tuple | None = None
    oiv: tuple | None = None
    hist1: tuple | None = None
    hist0: tuple | None = None
    hist_full: tuple | None = None
    osdv1: tuple | None = None
    osdv0: tuple | None = None
    osdv_full: tuple | None = None
    spectral: tuple | None = None

    def key_for_phase(self, selected: tuple[str, ...], phase: int) -> tuple:
        """The concatenated key for output polarity ``phase``.

        ``phase = 1`` describes the complemented function; every part is
        derived from the phase-0 raw pieces (see module docstring).
        """
        n = self.n
        out = []
        for name in selected:
            if name == "c0":
                value = self.count if phase == 0 else (1 << n) - self.count
            elif name == "ocv1":
                value = _sorted_cofactors(self.cof1, 1 << max(n - 1, 0), phase)
            elif name == "ocv2":
                value = _sorted_cofactors(self.cof2, 1 << max(n - 2, 0), phase)
            elif name == "ocv3":
                value = _sorted_cofactors(self.cof3, 1 << max(n - 3, 0), phase)
            elif name == "oiv":
                value = self.oiv
            elif name == "osv":
                value = (
                    (self.hist1, self.hist0)
                    if phase == 0
                    else (self.hist0, self.hist1)
                )
            elif name == "osv_full":
                value = self.hist_full
            elif name == "osdv":
                value = (
                    (self.osdv1, self.osdv0)
                    if phase == 0
                    else (self.osdv0, self.osdv1)
                )
            elif name == "osdv_full":
                value = self.osdv_full
            else:  # spectral
                value = self.spectral
            out.append(value)
        return tuple(out)


def canonical_key(pieces: SignaturePieces, selected: tuple[str, ...]) -> tuple:
    """Phase-canonical key: the output-negation rule of Theorems 3-4."""
    total = 1 << pieces.n
    if 2 * pieces.count > total:
        phases = (1,)
    elif 2 * pieces.count == total:
        phases = (0, 1)
    else:
        phases = (0,)
    return min(pieces.key_for_phase(selected, q) for q in phases)


def msv_from_pieces(
    pieces: SignaturePieces, selected: tuple[str, ...]
) -> MixedSignature:
    """Assemble the canonical :class:`MixedSignature` from raw pieces."""
    return MixedSignature(pieces.n, selected, canonical_key(pieces, selected))


def compute_msv(tt: TruthTable, parts=DEFAULT_PARTS) -> MixedSignature:
    """Compute the MSV of a function for the selected signature parts."""
    selected = normalize_parts(parts)
    return msv_from_pieces(compute_pieces(tt, selected), selected)


def compute_pieces(tt: TruthTable, selected: tuple[str, ...]) -> SignaturePieces:
    """Per-function (big-int kernel) computation of the raw pieces."""
    n = tt.n
    pieces = SignaturePieces(n=n, count=tt.count_ones())
    need = set(selected)
    if "ocv1" in need:
        pieces.cof1 = chars.cofactor_counts_1ary(tt)
    if "ocv2" in need:
        pieces.cof2 = chars.cofactor_counts(tt, 2)
    if "ocv3" in need:
        pieces.cof3 = chars.cofactor_counts(tt, 3)
    if "oiv" in need:
        pieces.oiv = tuple(sorted(chars.influences(tt)))
    profile = ones = None
    if need & {"osv", "osv_full", "osdv", "osdv_full"}:
        profile = chars.sensitivity_profile(tt)
        ones = tt.bit_array().astype(bool)
    if "osv" in need:
        pieces.hist1 = _hist(profile[ones], n)
        pieces.hist0 = _hist(profile[~ones], n)
    if "osv_full" in need:
        pieces.hist_full = _hist(profile, n)
    if "osdv" in need:
        pieces.osdv1 = _osdv_for(profile, ones, n)
        pieces.osdv0 = _osdv_for(profile, ~ones, n)
    if "osdv_full" in need:
        pieces.osdv_full = _osdv_for(profile, np.ones(1 << n, dtype=bool), n)
    if "spectral" in need:
        from repro.spectral.signatures import spectral_signature

        pieces.spectral = spectral_signature(tt)
    return pieces


def _osdv_for(profile: np.ndarray, keep: np.ndarray, n: int) -> tuple[int, ...]:
    buckets = [
        ((profile == level) & keep).astype(np.int64) for level in range(n + 1)
    ]
    return _osdv_from_buckets(buckets, n)


def _hist(values: np.ndarray, n: int) -> tuple[int, ...]:
    return tuple(np.bincount(values, minlength=n + 1).tolist())


def _sorted_cofactors(
    raw: tuple[int, ...], face_size: int, phase: int
) -> tuple[int, ...]:
    if phase == 0:
        return tuple(sorted(raw))
    return tuple(sorted(face_size - c for c in raw))
