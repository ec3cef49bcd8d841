"""Baseline NPN classifiers compared against in the paper's Table III.

* :mod:`repro.baselines.exact_enum` — exhaustive canonical form (the
  "Kitty" column; exact, slow, practical for n <= 6).
* :mod:`repro.baselines.matcher` — pairwise NPN matching with signature
  pruning (the ICCAD'21 [6] style search; exact).
* :mod:`repro.baselines.exact` — bucketed exact classifier built from the
  two above (the "#Exact Classes" oracle for every table).
* :mod:`repro.baselines.guided` — exact canonical form enumerated only
  over face/point-key-respecting transforms (the paper's future work),
  registered as ``guided``.
* :mod:`repro.baselines.huang13` — Huang et al., FPT'13 (``testnpn -6``):
  ultra-fast heuristic canonical form, heavily overcounts classes.
* :mod:`repro.baselines.petkovska16` — Petkovska et al., FPL'16
  (``testnpn -7``): hierarchical canonicalisation, near-exact.
* :mod:`repro.baselines.zhou20` — Zhou et al., TC'20 (``testnpn -11``
  with the final exhaustive enumeration removed, as in the paper's
  modified ABC): signature/symmetry canonical form with flip-swap local
  search; near-exact, structure-dependent runtime.
"""

from repro.baselines.base import (
    GroupingResult,
    KeyedClassifier,
    get_classifier,
    register_classifier,
)
from repro.baselines.exact import ExactClassifier
from repro.baselines.exact_enum import ExactEnumerationClassifier, exact_npn_canonical
from repro.baselines.guided import GuidedExactClassifier
from repro.baselines.huang13 import Huang13Classifier
from repro.baselines.matcher import find_npn_transform
from repro.baselines.petkovska16 import Petkovska16Classifier
from repro.baselines.zhou20 import Zhou20Classifier

__all__ = [
    "GroupingResult",
    "KeyedClassifier",
    "get_classifier",
    "register_classifier",
    "ExactClassifier",
    "ExactEnumerationClassifier",
    "exact_npn_canonical",
    "GuidedExactClassifier",
    "find_npn_transform",
    "Huang13Classifier",
    "Petkovska16Classifier",
    "Zhou20Classifier",
    "FacePointKeyed",
]


@register_classifier
class FacePointKeyed(KeyedClassifier):
    """The paper's classifier (Algorithm 1) in the uniform baseline interface.

    Registered as ``"ours"`` so the Table III benches can instantiate all
    competitors through one registry.
    """

    name = "ours"

    def __init__(self, parts=None) -> None:
        from repro.core.msv import DEFAULT_PARTS, normalize_parts

        self.parts = normalize_parts(parts if parts is not None else DEFAULT_PARTS)

    def key(self, tt):
        from repro.core.msv import compute_msv

        return compute_msv(tt, self.parts)
