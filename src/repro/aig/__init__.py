"""And-Inverter Graph substrate: networks, simulation, cuts, builders.

The paper extracts its benchmark truth tables from the EPFL combinational
suite "using cut enumeration".  This package provides everything needed to
replicate that front-end in Python:

* :mod:`repro.aig.network` — AIG data structure with structural hashing;
* :mod:`repro.aig.simulate` — bit-parallel simulation and cone functions;
* :mod:`repro.aig.cuts` — k-feasible priority-cut enumeration, every
  kept cut's truth table from one simulation per circuit;
* :mod:`repro.aig.builders` — EPFL-like arithmetic/control generators.
"""

from repro.aig.network import AIG, Literal
from repro.aig.cuts import Cut, enumerate_cuts
from repro.aig.simulate import cut_function, simulate, simulate_words

__all__ = [
    "AIG",
    "Literal",
    "Cut",
    "enumerate_cuts",
    "simulate",
    "simulate_words",
    "cut_function",
]
