"""Multiprogram workload mixes (the Figure 5 scenario).

When different programs run on different cores their resonant current
phases decorrelate: each core excites the shared PDN with an independent
phase, so the per-core worst-case excitation averages out rather than
adding up. The mix's effective resonant swing is therefore the *mean* of
its members' swings -- which is why the paper's 8-benchmark mix has a
chip Vmin (915 mV on TTT including the weakest core) below what the most
aggressive member alone would produce on that core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import WorkloadError
from repro.soc.chip import Chip
from repro.soc.topology import CoreId, NUM_CORES
from repro.workloads.base import Workload
from repro.workloads.spec import spec_workload

#: The eight programs of the paper's Figure 5 experiment.
FIGURE5_BENCHMARKS = (
    "bwaves", "cactusADM", "dealII", "gromacs",
    "leslie3d", "mcf", "milc", "namd",
)


@dataclass(frozen=True)
class MultiprogramMix:
    """A set of workloads pinned one-per-core."""

    members: tuple

    def __post_init__(self) -> None:
        if not 1 <= len(self.members) <= NUM_CORES:
            raise WorkloadError(f"a mix holds 1..{NUM_CORES} workloads")

    @classmethod
    def of(cls, workloads: Sequence[Workload]) -> "MultiprogramMix":
        return cls(tuple(workloads))

    @property
    def name(self) -> str:
        return "mix(" + "+".join(w.name for w in self.members) + ")"

    @property
    def resonant_swing(self) -> float:
        """Effective chip-level swing: decorrelated phase average."""
        return sum(w.resonant_swing for w in self.members) / len(self.members)

    def placement(self) -> Dict[CoreId, Workload]:
        """Pin members to cores in linear order."""
        return {CoreId.from_linear(i): w for i, w in enumerate(self.members)}

    def per_pmd_vmin_mv(self, chip: Chip, freq_ghz: float = 2.4) -> Dict[int, float]:
        """Vmin per PMD: the binding constraint for per-PMD frequency
        scaling (the Figure 5 ladder)."""
        result: Dict[int, float] = {}
        for core in self.placement():
            vmin = chip.vmin_mv(core, self.resonant_swing, freq_ghz)
            result[core.pmd] = max(result.get(core.pmd, 0.0), vmin)
        return result


def figure5_mix() -> MultiprogramMix:
    """The paper's 8-benchmark simultaneous workload."""
    return MultiprogramMix.of([spec_workload(n) for n in FIGURE5_BENCHMARKS])


#: Phase-alignment gain per additional core for copies of one program.
#: Identical code on every core executes the same loop shapes, so the
#: per-core resonant excitations partially align instead of averaging
#: out -- multi-process runs of a single program are *more* stressful
#: than the program alone, one of the paper's "multi-process setup"
#: observations.
HOMOGENEOUS_ALIGNMENT_PER_CORE = 0.06


@dataclass(frozen=True)
class HomogeneousMix:
    """N copies of one program pinned to N cores (multi-process setup)."""

    workload: Workload
    copies: int

    def __post_init__(self) -> None:
        if not 1 <= self.copies <= NUM_CORES:
            raise WorkloadError(f"copies must be 1..{NUM_CORES}")

    @property
    def name(self) -> str:
        return f"{self.workload.name}x{self.copies}"

    @property
    def resonant_swing(self) -> float:
        """Member swing amplified by partial phase alignment, capped at 1."""
        gain = 1.0 + HOMOGENEOUS_ALIGNMENT_PER_CORE * (self.copies - 1)
        return min(1.0, self.workload.resonant_swing * gain)
