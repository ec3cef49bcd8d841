"""Experiment drivers — one module per paper table/figure.

Each driver returns plain row dicts so the three consumers (the paper
experiments under ``benchmarks/``, the CLI, and EXPERIMENTS.md
generation) share one implementation.  None of them gates speed; that
is ``perfbench/``'s job.

* :mod:`repro.experiments.table1` — signature vectors of f1/f3 (Table I);
* :mod:`repro.experiments.table2` — class counts per signature-vector
  combination vs exact (Table II);
* :mod:`repro.experiments.table3` — runtime/accuracy comparison of all
  classifiers (Table III);
* :mod:`repro.experiments.fig5`   — runtime stability on consecutive
  random sets (Fig. 5);
* :mod:`repro.experiments.fig34`  — discrimination witnesses (Figs. 3-4);
* :mod:`repro.experiments.cutmatch` — EPFL-like cut functions matched
  against a class library (the paper's scenario, end to end);
* :mod:`repro.experiments.workload_cache` — shared extraction of the
  EPFL-like cut-function sets.
"""

from repro.experiments.workload_cache import benchmark_functions, scale_settings

__all__ = ["benchmark_functions", "scale_settings"]
