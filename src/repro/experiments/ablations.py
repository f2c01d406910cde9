"""Ablations of two design choices behind the paper's headline results.

- ``ablation-ga`` (Figures 6/7): the EM-guided GA plus polish against
  random loops drawn with the same evaluation budget.
- ``ablation-ecc`` (Table I): SECDED against one parity bit and against
  no ECC, scored on the words the MCU scrub reads back over a 45-70 degC
  testbed sweep; SECDED stops being clean above the paper's 60 degC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.cells import DramDevicePopulation
from repro.dram.controller import MemoryControlUnit, ScrubResult
from repro.experiments.common import RunOptions, format_table, map_units
from repro.rand import SeedLike, resolve_seed
from repro.thermal.testbed import ThermalTestbed, ZoneConfig
from repro.units import RELAXED_REFRESH_S
from repro.viruses.didt import DidtVirus, didt_search_unit, random_search_unit
from repro.viruses.genetic import GaConfig

#: Setpoints of the ECC sweep, bracketing Table I's 50 and 60 degC.
SWEEP_TEMPS_C = (45.0, 50.0, 55.0, 60.0, 65.0, 70.0)

#: Devices (of 72) whose eight banks the ECC sweep scrubs.
SWEEP_DEVICES = 24


def _verdict(ok: bool) -> str:
    return "OK" if ok else "FAILED"


def ablation_arm_unit(task: Tuple[int, int, int, Optional[int]]) -> DidtVirus:
    """Worker body: the GA arm (``budget`` None) or the random arm."""
    seed, generations, population, budget = task
    if budget is None:
        return didt_search_unit((seed, generations, population, 3))[0]
    return random_search_unit((seed, budget))


@dataclass(frozen=True)
class GaAblationResult:
    """The GA-evolved virus and the best random loop of equal budget."""

    budget: int
    ga: DidtVirus
    random: DidtVirus

    @property
    def ga_wins(self) -> bool:
        """The GA reaches the full resonant swing and beats random search."""
        return self.ga.resonant_swing >= self.random.resonant_swing \
            and self.ga.resonant_swing > 0.95

    def rows(self) -> List[Tuple[str, float, float]]:
        """(search, normalized swing, droop mV) per arm."""
        return [(name, virus.resonant_swing, virus.droop_mv)
                for name, virus in (("GA+polish", self.ga),
                                    ("random", self.random))]

    def format(self) -> str:
        return "\n".join([
            "Ablation: GA-evolved virus vs random search (equal budget)",
            f"evaluation budget: {self.budget} loop evaluations each",
            format_table(("search", "swing", "droop mV"),
                         [(n, f"{s:.3f}", f"{d:.1f}")
                          for n, s, d in self.rows()]),
            f"GA advantage: "
            f"{self.ga.resonant_swing - self.random.resonant_swing:+.3f} "
            "normalized swing",
            f"shape check: GA swing >= random and > 0.95 -- "
            f"{_verdict(self.ga_wins)}",
        ])


def run_ga_ablation(seed: SeedLike = None, generations: int = 25,
                    population: int = 32, jobs: int = 1,
                    options: RunOptions = RunOptions()) -> GaAblationResult:
    """Race the GA against random search with the GA's evaluation budget.

    The budget follows from the GA config, so both arms shard through
    :func:`map_units` at once; ``jobs`` and ``options`` act as in fig6.
    """
    base = resolve_seed(seed)
    config = GaConfig(population_size=population, generations=generations)
    budget = config.population_size + config.generations * (
        config.population_size - config.elite_count)
    arms = [(base, generations, population, None),
            (base, generations, population, budget)]
    ga, random = map_units(ablation_arm_unit, arms, jobs, options).unwrap()
    return GaAblationResult(budget=budget, ga=ga, random=random)


@dataclass(frozen=True)
class EccSweepPoint:
    """One setpoint of the sweep: held temperature, cells, scrubbed words."""

    temp_c: float
    held_c: float
    weak_cells: int
    scrub: ScrubResult

    def outcomes(self) -> Dict[str, Tuple[int, int, int]]:
        """(corrected, detected, silent) corrupted words per scheme; parity
        detects exactly the words with an odd number of failing bits."""
        s = self.scrub
        return {
            "secded": (s.corrected_words, s.uncorrectable_words,
                       s.miscorrected_words),
            "parity": (0, s.words_scanned - s.even_words, s.even_words),
            "none": (0, 0, s.words_scanned),
        }


@dataclass(frozen=True)
class EccAblationResult:
    """ECC strength over the temperature sweep at the relaxed TREFP."""

    trefp_s: float
    devices: int
    points: Tuple[EccSweepPoint, ...]

    @property
    def shape_ok(self) -> bool:
        """Counts grow with temperature, SECDED is clean at <= 60 degC,
        and at 60 degC parity corrects nothing but detects errors."""
        counts = [p.weak_cells for p in self.points]
        secded_clean = all(p.scrub.residual_word_errors == 0
                           for p in self.points if p.temp_c <= 60.0)
        parity_60 = next(p for p in self.points
                         if p.temp_c == 60.0).outcomes()["parity"]
        return counts == sorted(counts) and secded_clean \
            and parity_60[0] == 0 and parity_60[1] > 0

    def rows(self) -> List[Tuple[float, float, int, str, int, int, int]]:
        """(set, held, weak cells, scheme, corrected, detected, silent)."""
        return [(p.temp_c, p.held_c, p.weak_cells, scheme) + counts
                for p in self.points
                for scheme, counts in p.outcomes().items()]

    def format(self) -> str:
        first_residual = next((f"{p.temp_c:.0f} degC" for p in self.points
                               if p.scrub.residual_word_errors), "none")
        table = format_table(
            ("set degC", "held degC", "weak cells", "scheme", "corrected",
             "detected", "silent"),
            [(f"{t:.0f}", f"{h:.2f}", w, scheme, *counts)
             if scheme == "secded" else ("", "", "", scheme, *counts)
             for t, h, w, scheme, *counts in self.rows()])
        return "\n".join([
            f"Ablation: ECC strength vs DRAM temperature ({self.devices} "
            f"devices, TREFP = {self.trefp_s}s)",
            table,
            f"first residual (beyond-SECDED) errors at: {first_residual}",
            "shape check: weak cells non-decreasing, SECDED clean at "
            "<= 60 degC, parity corrects none and detects some at 60 degC -- "
            f"{_verdict(self.shape_ok)}",
        ])


def run_ecc_ablation(seed: SeedLike = None) -> EccAblationResult:
    """Sweep one testbed zone over :data:`SWEEP_TEMPS_C` and score the
    scrub of :data:`SWEEP_DEVICES` devices' banks under each scheme."""
    base = resolve_seed(seed)
    # The default profile (62 degC) would reject the 65 and 70 degC points.
    population = DramDevicePopulation(seed=base, profile_interval_s=4.0,
                                      profile_temp_c=72.0)
    cells = population.device_cells(range(SWEEP_DEVICES))
    mcu = MemoryControlUnit(0, trefp_s=RELAXED_REFRESH_S)
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=SWEEP_TEMPS_C[0])],
                             seed=base)
    points = []
    for temp in SWEEP_TEMPS_C:
        testbed.set_setpoint(0, temp)
        held = testbed.run(600.0)[0].final_c
        points.append(EccSweepPoint(
            temp_c=temp, held_c=held,
            weak_cells=sum(cells.unique_locations(mcu.trefp_s, temp)),
            scrub=mcu.scrub_bank(cells, temp)))
    return EccAblationResult(trefp_s=mcu.trefp_s, devices=SWEEP_DEVICES,
                             points=tuple(points))
