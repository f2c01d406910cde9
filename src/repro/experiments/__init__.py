"""Experiment drivers: one module per table/figure of the paper.

Each driver returns a structured result object with a ``rows()`` method
(printable series matching the paper's presentation) and records the
paper's reported values alongside the measured ones, so the CLI, the
report and EXPERIMENTS.md can compare shapes directly.

| Module                     | Reproduces                               |
|----------------------------|------------------------------------------|
| ``fig4_spec_vmin``         | Fig. 4: SPEC Vmin on TTT/TFF/TSS          |
| ``fig5_tradeoff``          | Fig. 5: power/performance ladder          |
| ``fig6_virus_vs_nas``      | Fig. 6: EM virus vs NAS Vmin              |
| ``fig7_interchip``         | Fig. 7: inter-chip margins under virus    |
| ``table1_weak_cells``      | Table I: weak cells per bank, 50/60 degC  |
| ``fig8a_ber``              | Fig. 8a: BER, DPBenches vs Rodinia        |
| ``fig8b_refresh_power``    | Fig. 8b: DRAM power savings at 35x TREFP  |
| ``fig9_jammer``            | Fig. 9: per-domain server power, Jammer   |
| ``stencil_scheduling``     | Sec. IV.C: access-pattern scheduling      |
| ``multiprocess_vmin``      | (extension) single- vs multi-process Vmin |
| ``ablations``              | (ablation) GA vs random; ECC vs temp      |
"""

from repro.experiments.fig4_spec_vmin import Figure4Result, run_figure4
from repro.experiments.fig5_tradeoff import Figure5Result, run_figure5
from repro.experiments.fig6_virus_vs_nas import Figure6Result, run_figure6
from repro.experiments.fig7_interchip import Figure7Result, run_figure7
from repro.experiments.table1_weak_cells import Table1Result, run_table1
from repro.experiments.fig8a_ber import Figure8aResult, run_figure8a
from repro.experiments.fig8b_refresh_power import Figure8bResult, run_figure8b
from repro.experiments.fig9_jammer import Figure9Result, run_figure9
from repro.experiments.stencil_scheduling import StencilResult, run_stencil_study
from repro.experiments.multiprocess_vmin import (
    MultiprocessResult,
    run_multiprocess_study,
)
from repro.experiments.ablations import (
    EccAblationResult,
    GaAblationResult,
    run_ecc_ablation,
    run_ga_ablation,
)

#: Experiment id -> driver callable. Every driver accepts ``seed=`` and
#: returns a result object with ``rows()``/``format()``; the CLI and the
#: golden-digest tests both enumerate experiments from this single map,
#: so a new module only needs one entry here to appear everywhere.
REGISTRY = {
    "fig4": run_figure4,
    "fig5": run_figure5,
    "fig6": run_figure6,
    "fig7": run_figure7,
    "table1": run_table1,
    "fig8a": run_figure8a,
    "fig8b": run_figure8b,
    "fig9": run_figure9,
    "stencil": run_stencil_study,
    "multiprocess": run_multiprocess_study,
    "ablation-ga": run_ga_ablation,
    "ablation-ecc": run_ecc_ablation,
}

#: Experiment id -> reduced budgets for a quick smoke pass (``run
#: --fast``, ``report --fast``, and ``pipeline --fast`` for
#: :func:`~repro.experiments.pipeline.run_pipeline`). The drivers'
#: defaults are the full budgets; ids without an entry take no budget.
FAST = {
    "fig4": {"repetitions": 3},
    "fig5": {"repetitions": 3},
    "fig6": {"repetitions": 3, "generations": 8, "population": 16},
    "fig7": {"repetitions": 3, "generations": 8, "population": 16},
    "table1": {"regulate": False, "sample_devices": 24},
    "fig9": {"repetitions": 3},
    "multiprocess": {"repetitions": 3},
    "ablation-ga": {"generations": 8, "population": 16},
    "pipeline": {"benchmarks": 2, "repetitions": 2},
}

__all__ = [
    "EccAblationResult",
    "FAST",
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "Figure8aResult",
    "Figure8bResult",
    "Figure9Result",
    "GaAblationResult",
    "MultiprocessResult",
    "REGISTRY",
    "StencilResult",
    "Table1Result",
    "run_ecc_ablation",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8a",
    "run_figure8b",
    "run_figure9",
    "run_ga_ablation",
    "run_multiprocess_study",
    "run_stencil_study",
    "run_table1",
]
