"""Mini ARMv8-like instruction set with activity signatures.

The dI/dt-virus generator (Section III.C) evolves *loops of instructions*
whose execution makes the CPU's supply current swing between high and low
power. What matters for that search is not architectural semantics but
each instruction class's *activity signature*: how much current it draws,
how long it occupies the pipeline, and which functional unit it lights
up. This module defines those signatures for a representative subset of
the ARMv8 ISA as implemented by the X-Gene2.

Relative current weights are loosely modelled on published per-class
energy characterizations of ARM cores: wide SIMD/FP multiplies draw the
most, dependent integer chains and NOPs the least, and memory operations
sit in between (more when they miss).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class InstrClass(enum.Enum):
    """Functional grouping of instructions for the activity model."""

    NOP = "nop"
    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_FMA = "fp_fma"
    SIMD = "simd"
    LOAD_L1 = "load_l1"
    LOAD_L2 = "load_l2"
    LOAD_DRAM = "load_dram"
    STORE = "store"
    BRANCH = "branch"
    SERIALIZE = "serialize"  # barriers / dependent chains that stall issue


@dataclass(frozen=True)
class InstructionSpec:
    """Activity signature of one instruction class.

    Attributes
    ----------
    klass:
        The instruction class.
    current:
        Relative supply-current draw while the instruction is in flight,
        normalized so the hungriest class (SIMD FMA bursts) is 1.0 and an
        idle/NOP cycle is near the static floor.
    cycles:
        Average occupancy in core cycles (issue-to-retire contribution
        under steady state for a loop of this class).
    uses_fp:
        Whether the FP/SIMD unit is exercised (for component viruses).
    touches_memory:
        Whether the instruction generates a cache/DRAM access.
    ipc_weight:
        Contribution to the throughput estimate: instructions of this
        class achieve roughly ``ipc_weight`` instructions per cycle when
        executed back-to-back on the X-Gene2's 4-wide core.
    """

    klass: InstrClass
    current: float
    cycles: float
    uses_fp: bool
    touches_memory: bool
    ipc_weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.current <= 1.0:
            raise ValueError(f"current must be in [0,1], got {self.current}")
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")


#: Signature table. ``current`` calibrated so a pure high-power loop
#: (SIMD/FP_FMA) versus a pure low-power loop (NOP/SERIALIZE) yields a
#: normalized current swing of ~0.9, the headroom the GA exploits.
INSTRUCTION_SPECS: Dict[InstrClass, InstructionSpec] = {
    InstrClass.NOP: InstructionSpec(InstrClass.NOP, 0.08, 1.0, False, False, 4.0),
    InstrClass.INT_ALU: InstructionSpec(InstrClass.INT_ALU, 0.30, 1.0, False, False, 3.0),
    InstrClass.INT_MUL: InstructionSpec(InstrClass.INT_MUL, 0.45, 3.0, False, False, 1.0),
    InstrClass.INT_DIV: InstructionSpec(InstrClass.INT_DIV, 0.22, 12.0, False, False, 0.08),
    InstrClass.FP_ADD: InstructionSpec(InstrClass.FP_ADD, 0.55, 3.0, True, False, 2.0),
    InstrClass.FP_MUL: InstructionSpec(InstrClass.FP_MUL, 0.70, 4.0, True, False, 2.0),
    InstrClass.FP_FMA: InstructionSpec(InstrClass.FP_FMA, 0.88, 4.0, True, False, 2.0),
    InstrClass.SIMD: InstructionSpec(InstrClass.SIMD, 1.00, 4.0, True, False, 2.0),
    InstrClass.LOAD_L1: InstructionSpec(InstrClass.LOAD_L1, 0.40, 2.0, False, True, 2.0),
    InstrClass.LOAD_L2: InstructionSpec(InstrClass.LOAD_L2, 0.48, 8.0, False, True, 0.5),
    InstrClass.LOAD_DRAM: InstructionSpec(InstrClass.LOAD_DRAM, 0.35, 90.0, False, True, 0.05),
    InstrClass.STORE: InstructionSpec(InstrClass.STORE, 0.42, 2.0, False, True, 2.0),
    InstrClass.BRANCH: InstructionSpec(InstrClass.BRANCH, 0.25, 1.0, False, False, 2.0),
    InstrClass.SERIALIZE: InstructionSpec(InstrClass.SERIALIZE, 0.10, 6.0, False, False, 0.15),
}

#: Classes available to the genetic virus search (its genome alphabet).
GA_ALPHABET: Tuple[InstrClass, ...] = tuple(INSTRUCTION_SPECS)

#: The lowest/highest steady-state currents achievable with single-class
#: loops -- the theoretical swing bounds for any instruction sequence.
MIN_CLASS_CURRENT = min(spec.current for spec in INSTRUCTION_SPECS.values())
MAX_CLASS_CURRENT = max(spec.current for spec in INSTRUCTION_SPECS.values())


def spec_of(klass: InstrClass) -> InstructionSpec:
    """Look up the signature of an instruction class."""
    return INSTRUCTION_SPECS[klass]
