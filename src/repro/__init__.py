"""repro — face/point-characteristic NPN classification (DATE 2023 reproduction).

Public API highlights:

* :class:`repro.TruthTable` — immutable truth-table value type.
* :class:`repro.NPNTransform` — the NPN transformation group.
* :mod:`repro.core.signatures` — the paper's OCV/OIV/OSV/OSDV vectors.
* :class:`repro.FacePointClassifier` — Algorithm 1 of the paper.
* :mod:`repro.engine` — batched classification: packed ``uint64`` batches
  and vectorized signatures (``BatchedClassifier``).
* :mod:`repro.baselines` — the exact engine (``ExactClassifier``:
  signature buckets, complete matcher inside each) and the Table III
  baselines.
* :mod:`repro.aig` / :mod:`repro.workloads` — circuits, cut enumeration and
  the EPFL-like benchmark pipeline.
"""

from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable

__version__ = "0.1.0"

__all__ = ["TruthTable", "NPNTransform", "__version__"]
