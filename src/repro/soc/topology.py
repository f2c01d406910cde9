"""Static topology of the X-Gene2 Server-on-Chip.

Mirrors Section II of the paper: 4 processor modules (PMDs), each with two
64-bit ARMv8 cores at 2.4 GHz; per-core 32 KB L1I and 32 KB L1D; a 256 KB
L2 per PMD shared by its two cores; an 8 MB L3 shared through the
cache-coherent Central Switch (CSW); two Memory Controller Bridges (MCBs),
each connected to two DDR3 Memory Control Units (MCUs); each MCU drives
one DDR3 channel with up to two DIMMs of two ranks each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError

NUM_PMDS = 4
CORES_PER_PMD = 2
NUM_CORES = NUM_PMDS * CORES_PER_PMD

L1I_BYTES = 32 * 1024
L1D_BYTES = 32 * 1024
L2_BYTES_PER_PMD = 256 * 1024
L3_BYTES = 8 * 1024 * 1024
CACHE_LINE_BYTES = 64

NUM_MCBS = 2
MCUS_PER_MCB = 2
DIMMS_PER_MCU = 2
RANKS_PER_DIMM = 2

NOMINAL_FREQ_GHZ = 2.4
#: The reduced frequency used by the paper's Figure 5 tradeoff analysis.
REDUCED_FREQ_GHZ = 1.2


@dataclass(frozen=True)
class CoreId:
    """Identifies one core as ``(pmd, lane)``; ``lane`` is 0 or 1."""

    pmd: int
    lane: int

    def __post_init__(self) -> None:
        if not 0 <= self.pmd < NUM_PMDS:
            raise TopologyError(f"pmd index {self.pmd} outside 0..{NUM_PMDS - 1}")
        if not 0 <= self.lane < CORES_PER_PMD:
            raise TopologyError(f"lane index {self.lane} outside 0..{CORES_PER_PMD - 1}")

    @property
    def linear(self) -> int:
        """Flat core index 0..7, the numbering the paper uses."""
        return self.pmd * CORES_PER_PMD + self.lane

    @classmethod
    def from_linear(cls, index: int) -> "CoreId":
        """Build a :class:`CoreId` from a flat index 0..7."""
        if not 0 <= index < NUM_CORES:
            raise TopologyError(f"core index {index} outside 0..{NUM_CORES - 1}")
        return cls(pmd=index // CORES_PER_PMD, lane=index % CORES_PER_PMD)

    def __str__(self) -> str:
        return f"core{self.linear}(pmd{self.pmd}.{self.lane})"
