#!/usr/bin/env python3
"""Watch the EM-guided genetic search craft a dI/dt virus.

Shows the methodology of paper Section III.C / IV.B step by step:

1. evolve instruction loops with EM amplitude as fitness, printing the
   best individual per generation,
2. validate the EM proxy: compare the virus's realized PDN droop and
   normalized resonant swing against hand-written comparison loops,
3. confirm with (simulated) Vmin testing that the virus out-stresses
   every conventional workload -- the paper's Figure 6 argument.

Run:  python examples/virus_evolution.py
"""

from repro.core.executor import CampaignExecutor
from repro.core.vmin import VminSearch
from repro.cpu.isa import InstrClass
from repro.cpu.kernels import InstructionLoop, square_wave_loop
from repro.experiments.fig6_virus_vs_nas import virus_as_workload
from repro.pdn.droop import analyze_loop
from repro.pdn.rlc import PdnModel
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_reference_chips
from repro.viruses.didt import DidtSearch
from repro.viruses.genetic import GaConfig
from repro.workloads.nas import nas_suite

SEED = 1


def main() -> None:
    pdn = PdnModel()
    print(f"PDN first-order resonance: "
          f"{pdn.params.resonant_freq_hz / 1e6:.1f} MHz "
          f"(Q = {pdn.params.quality_factor:.1f})")
    res_cycles = 2.4e9 / pdn.params.resonant_freq_hz
    print(f"-> at 2.4 GHz one resonance period is {res_cycles:.0f} cycles\n")

    print("generation | best EM amplitude | best loop")
    search = DidtSearch(config=GaConfig(population_size=32, generations=20),
                        seed=SEED)
    ga = __import__("repro.viruses.genetic", fromlist=["GeneticAlgorithm"])
    engine = ga.GeneticAlgorithm(
        search.fitness.batch, config=search.config, seed=SEED)
    result = engine.run(progress=lambda gen, best: print(
        f"{gen:10d} | {best.fitness:17.4f} | {best.loop.describe()[:48]}"))
    virus, _ = search.run()
    print(f"\nafter local polish: {virus.summary()}\n")

    print("EM-proxy validation against hand-written loops:")
    comparisons = {
        "evolved virus": virus.loop,
        "resonant square wave": square_wave_loop(
            InstrClass.SIMD, InstrClass.NOP, int(res_cycles / 2)),
        "off-resonance square": square_wave_loop(
            InstrClass.SIMD, InstrClass.NOP, int(res_cycles / 8)),
        "flat integer loop": InstructionLoop.of([InstrClass.INT_ALU] * 32),
    }
    for name, loop in comparisons.items():
        analysis = analyze_loop(loop)
        em = search.fitness.batch([loop])[0]
        print(f"  {name:22s} swing {analysis.resonant_swing:5.3f}  "
              f"droop {analysis.droop_mv:6.1f} mV  em {em:6.4f}")

    print("\nVmin validation on the TTT part (the Figure 6 check):")
    chip = build_reference_chips(seed=SEED)[ProcessCorner.TTT]
    vmin_search = VminSearch(CampaignExecutor(chip, seed=SEED), repetitions=5)
    core = chip.strongest_core()
    virus_vmin = vmin_search.search(virus_as_workload(virus), cores=(core,))
    print(f"  {'em-virus':10s} Vmin {virus_vmin.safe_vmin_mv:5.0f} mV")
    worst_nas = 0.0
    for workload in nas_suite():
        result = vmin_search.search(workload, cores=(core,))
        worst_nas = max(worst_nas, result.safe_vmin_mv)
        print(f"  {workload.name:10s} Vmin {result.safe_vmin_mv:5.0f} mV")
    print(f"\nvirus exceeds the worst NAS workload by "
          f"{virus_vmin.safe_vmin_mv - worst_nas:.0f} mV -- "
          "EM amplitude is a faithful voltage-noise proxy")


if __name__ == "__main__":
    main()
