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
from typing import Iterator, List, Tuple

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


@dataclass(frozen=True)
class SocTopology:
    """Queryable description of the SoC component tree.

    The topology is fixed for the X-Gene2 but kept as a value object so
    tests (and hypothetical other platforms) can instantiate variants.
    """

    num_pmds: int = NUM_PMDS
    cores_per_pmd: int = CORES_PER_PMD
    l1i_bytes: int = L1I_BYTES
    l1d_bytes: int = L1D_BYTES
    l2_bytes_per_pmd: int = L2_BYTES_PER_PMD
    l3_bytes: int = L3_BYTES
    cache_line_bytes: int = CACHE_LINE_BYTES
    num_mcbs: int = NUM_MCBS
    mcus_per_mcb: int = MCUS_PER_MCB
    dimms_per_mcu: int = DIMMS_PER_MCU
    ranks_per_dimm: int = RANKS_PER_DIMM
    nominal_freq_ghz: float = NOMINAL_FREQ_GHZ

    def __post_init__(self) -> None:
        for name in ("num_pmds", "cores_per_pmd", "num_mcbs", "mcus_per_mcb",
                     "dimms_per_mcu", "ranks_per_dimm"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be positive")

    @property
    def num_cores(self) -> int:
        return self.num_pmds * self.cores_per_pmd

    @property
    def num_mcus(self) -> int:
        return self.num_mcbs * self.mcus_per_mcb

    @property
    def num_dimms(self) -> int:
        return self.num_mcus * self.dimms_per_mcu

    @property
    def num_ranks(self) -> int:
        return self.num_dimms * self.ranks_per_dimm

    def cores(self) -> Iterator[CoreId]:
        """Iterate all cores in linear order."""
        for index in range(self.num_cores):
            yield CoreId.from_linear(index)

    def pmd_cores(self, pmd: int) -> List[CoreId]:
        """The cores belonging to PMD ``pmd``."""
        if not 0 <= pmd < self.num_pmds:
            raise TopologyError(f"pmd index {pmd} outside 0..{self.num_pmds - 1}")
        return [CoreId(pmd, lane) for lane in range(self.cores_per_pmd)]

    def l2_sharers(self, core: CoreId) -> List[CoreId]:
        """Cores sharing an L2 with ``core`` (its PMD siblings)."""
        return self.pmd_cores(core.pmd)

    def mcu_of_dimm(self, dimm: int) -> int:
        """MCU index serving DIMM ``dimm``."""
        if not 0 <= dimm < self.num_dimms:
            raise TopologyError(f"dimm index {dimm} outside 0..{self.num_dimms - 1}")
        return dimm // self.dimms_per_mcu

    def mcb_of_mcu(self, mcu: int) -> int:
        """MCB index bridging MCU ``mcu`` to the central switch."""
        if not 0 <= mcu < self.num_mcus:
            raise TopologyError(f"mcu index {mcu} outside 0..{self.num_mcus - 1}")
        return mcu // self.mcus_per_mcb

    def dimm_rank_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(dimm, rank)`` pairs across the whole board."""
        for dimm in range(self.num_dimms):
            for rank in range(self.ranks_per_dimm):
                yield dimm, rank
