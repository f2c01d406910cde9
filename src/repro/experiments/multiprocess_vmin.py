"""Extension experiment: single-process vs multi-process Vmin.

The paper's methodology section states the workload characterization ran
"in both single-process and multi-process setups" (Section I). This
driver regenerates that comparison explicitly: for each SPEC program,
the Vmin of one instance on the most robust core vs eight aligned copies
across all cores (worst occupied core), plus the heterogeneous Figure 5
mix as the decorrelated reference point.

Expected shape:

- homogeneous multi-process Vmin > single-process Vmin (phase-aligned
  copies excite the PDN harder, and the weakest core now binds);
- the heterogeneous mix sits *below* the worst homogeneous run at equal
  core count (decorrelation), the effect the Figure 5 ladder exploits;
- everything stays below the dI/dt virus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.vmin import VminSearch
from repro.experiments.common import format_table, vmin_searches
from repro.rand import SeedLike
from repro.soc.corners import ProcessCorner
from repro.soc.topology import CoreId, NUM_CORES
from repro.workloads.base import CpuWorkload, Workload
from repro.workloads.mixes import HomogeneousMix, figure5_mix
from repro.workloads.spec import spec_suite


def _as_workload(name: str, swing: float, template: Workload) -> Workload:
    """Wrap a mix swing as a runnable workload signature."""
    cpu = template.cpu
    return Workload(CpuWorkload(
        name=name, suite="mix", resonant_swing=swing, ipc=cpu.ipc,
        fp_ratio=cpu.fp_ratio, mem_ratio=cpu.mem_ratio,
        branch_ratio=cpu.branch_ratio, l2_miss_ratio=cpu.l2_miss_ratio,
        sdc_bias=cpu.sdc_bias))


@dataclass(frozen=True)
class MultiprocessResult:
    """Per-program single vs 8-copy Vmin, plus the heterogeneous mix."""

    single_vmin_mv: Dict[str, float]
    multi_vmin_mv: Dict[str, float]
    hetero_mix_vmin_mv: float

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(program, single, x8, uplift) rows."""
        return [
            (name, self.single_vmin_mv[name], self.multi_vmin_mv[name],
             self.multi_vmin_mv[name] - self.single_vmin_mv[name])
            for name in sorted(self.single_vmin_mv,
                               key=self.single_vmin_mv.get)
        ]

    @property
    def worst_multi_mv(self) -> float:
        return max(self.multi_vmin_mv.values())

    @property
    def decorrelation_gain_mv(self) -> float:
        """How much the heterogeneous mix undercuts the worst x8 run."""
        return self.worst_multi_mv - self.hetero_mix_vmin_mv

    def format(self) -> str:
        lines = ["Single-process vs multi-process (x8) Vmin, TTT chip"]
        lines.append(format_table(
            ("program", "single mV", "x8 mV", "uplift mV"),
            [(n, f"{a:.0f}", f"{b:.0f}", f"{d:+.0f}")
             for n, a, b, d in self.rows()],
        ))
        lines.append(
            f"heterogeneous 8-mix Vmin {self.hetero_mix_vmin_mv:.0f} mV -- "
            f"{self.decorrelation_gain_mv:.0f} mV below the worst "
            "homogeneous x8 run (phase decorrelation)"
        )
        return "\n".join(lines)


def run_multiprocess_study(seed: SeedLike = None,
                           repetitions: int = 5) -> MultiprocessResult:
    """Run the comparison on the reference TTT part."""
    search: VminSearch = vmin_searches(
        seed=seed, repetitions=repetitions)[ProcessCorner.TTT]
    chip = search.executor.chip
    robust = chip.strongest_core()
    all_cores = tuple(CoreId.from_linear(i) for i in range(NUM_CORES))

    single: Dict[str, float] = {}
    multi: Dict[str, float] = {}
    for workload in spec_suite():
        single[workload.name] = search.search(
            workload, cores=(robust,)).safe_vmin_mv
        mix = HomogeneousMix(workload, copies=NUM_CORES)
        multi[workload.name] = search.search(
            _as_workload(mix.name, mix.resonant_swing, workload),
            cores=all_cores).safe_vmin_mv

    hetero = figure5_mix()
    hetero_result = search.search(
        _as_workload(hetero.name, hetero.resonant_swing,
                     hetero.members[0]),
        cores=all_cores)
    return MultiprocessResult(
        single_vmin_mv=single,
        multi_vmin_mv=multi,
        hetero_mix_vmin_mv=hetero_result.safe_vmin_mv,
    )


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_multiprocess_study
