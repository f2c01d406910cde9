"""Figure 7: exposing inter-chip process variation with the EM virus.

The virus, being the worst-case stimulus, reveals how much margin each
part *really* has: the paper reports ~60 mV of margin on TTT (so at
least 50 mV is shaveable), ~20 mV on TFF, and effectively zero on TSS
(the virus crashes it 10 mV below nominal) -- the TSS part should stay
at the manufacturer's nominal voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    RunOptions,
    VminTask,
    format_table,
    map_units,
    vmin_search_unit,
)
from repro.experiments.fig6_virus_vs_nas import virus_as_workload
from repro.rand import SeedLike, derive_seed, resolve_seed
from repro.soc.corners import NOMINAL_PMD_MV, ProcessCorner
from repro.viruses.didt import DidtVirus, GaSearchTask, didt_search_unit

#: Paper-reported virus margins below the 980 mV nominal (mV).
PAPER_MARGINS_MV: Dict[str, float] = {"TTT": 60.0, "TFF": 20.0, "TSS": 0.0}


@dataclass(frozen=True)
class Figure7Result:
    """Per-chip virus Vmin and margin."""

    viruses: Dict[str, DidtVirus]
    virus_vmin_mv: Dict[str, float]

    def margin_mv(self, corner: str) -> float:
        return NOMINAL_PMD_MV - self.virus_vmin_mv[corner]

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(corner, virus Vmin, measured margin, paper margin) rows."""
        return [
            (corner, self.virus_vmin_mv[corner], self.margin_mv(corner),
             PAPER_MARGINS_MV[corner])
            for corner in ("TTT", "TFF", "TSS")
        ]

    @property
    def ordering_matches_paper(self) -> bool:
        """TTT margin > TFF margin > TSS margin (~zero)."""
        return (self.margin_mv("TTT") > self.margin_mv("TFF")
                > self.margin_mv("TSS"))

    @property
    def tss_margin_negligible(self) -> bool:
        """TSS should have at most one regulator step of margin."""
        return self.margin_mv("TSS") <= 10.0

    def format(self) -> str:
        lines = ["Figure 7: inter-chip process variation under the EM virus"]
        lines.append(format_table(
            ("chip", "virus Vmin mV", "margin mV", "paper margin mV"),
            [(c, f"{v:.0f}", f"{m:.0f}", f"{p:.0f}") for c, v, m, p in self.rows()],
        ))
        return "\n".join(lines)


def run_figure7(seed: SeedLike = None, repetitions: int = 10,
                generations: int = 25, population: int = 32,
                jobs: int = 1,
                options: RunOptions = RunOptions()) -> Figure7Result:
    """Evolve one virus per chip and measure each on its own part.

    As in the paper's per-part characterization, each reference chip
    gets its own EM-guided search. The three GA arms are independent
    work units keyed by integer seeds derived from the campaign seed,
    sharded through the same supervised process-parallel engine as the
    Vmin ladders -- bit-identical at any ``jobs`` count. ``options``
    sets the supervisor's deadline and retry budget and any injected
    faults (lost units re-execute; results unchanged).
    """
    base = resolve_seed(seed)
    corners = list(ProcessCorner)
    ga_tasks: List[GaSearchTask] = [
        (derive_seed(base, "fig7-ga", idx), generations, population, 3)
        for idx in range(len(corners))]
    viruses = [virus for virus, _ in map_units(didt_search_unit, ga_tasks,
                                               jobs, options).unwrap()]
    tasks: List[VminTask] = [
        (base, corner, virus_as_workload(virus), repetitions)
        for corner, virus in zip(corners, viruses)]
    results = map_units(vmin_search_unit, tasks, jobs, options).unwrap()
    vmin_mv: Dict[str, float] = {
        corner.value: result.safe_vmin_mv
        for corner, result in zip(corners, results)
    }
    return Figure7Result(
        viruses={corner.value: virus
                 for corner, virus in zip(corners, viruses)},
        virus_vmin_mv=vmin_mv)


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_figure7
