"""CPU-side behavioural models.

This package models the parts of the core the characterization study
exercises:

- a mini ARMv8-like instruction set with per-class energy/current
  activity (:mod:`repro.cpu.isa`),
- kernels/loops and an execution model that turns an instruction loop
  into a per-cycle supply-current waveform plus performance counters
  (:mod:`repro.cpu.execution`),
- the run-outcome taxonomy shared with the campaign framework
  (:mod:`repro.cpu.outcomes`), and the fault-site -> outcome
  classification (:mod:`repro.cpu.faults`, library only, kept with its
  unit tests).
"""

from repro.cpu.isa import (
    INSTRUCTION_SPECS,
    InstrClass,
    InstructionSpec,
    spec_of,
)
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.cpu.execution import ExecutionModel, ExecutionProfile, PerfCounters
from repro.cpu.outcomes import RunOutcome
from repro.cpu.faults import FaultSite, classify_fault

__all__ = [
    "ExecutionModel",
    "ExecutionProfile",
    "FaultSite",
    "INSTRUCTION_SPECS",
    "InstrClass",
    "InstructionLoop",
    "InstructionSpec",
    "PerfCounters",
    "RunOutcome",
    "classify_fault",
    "spec_of",
    "square_wave_loop",
]
