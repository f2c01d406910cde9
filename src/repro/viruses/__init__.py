"""Diagnostic dI/dt stress tests ("viruses") and their generator.

Section III.C of the paper evolves **dI/dt (voltage-noise) viruses**:
instruction loops that switch CPU power at the PDN's first-order
resonant frequency, generated by a genetic algorithm whose fitness is
the radiated-EM amplitude sensed near the package
(:mod:`repro.viruses.genetic`, :mod:`repro.viruses.didt`). Figures 6
and 7 run them. The DRAM data-pattern benchmarks (DPBenches) of
Figure 8a are the patterns of
:class:`repro.dram.errors_model.PatternKind`;
:mod:`repro.viruses.dpbench` packages them as standalone write/wait/read
benchmarks (library only, kept with its unit tests).
"""

from repro.viruses.genetic import GaConfig, GaResult, GeneticAlgorithm, Individual
from repro.viruses.didt import DidtSearch, DidtVirus, evolve_didt_virus, random_search_baseline
from repro.viruses.dpbench import DataPatternBenchmark, dpbench_suite

__all__ = [
    "DataPatternBenchmark",
    "DidtSearch",
    "DidtVirus",
    "GaConfig",
    "GaResult",
    "GeneticAlgorithm",
    "Individual",
    "dpbench_suite",
    "evolve_didt_virus",
    "random_search_baseline",
]
