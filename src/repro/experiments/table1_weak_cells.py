"""Table I: weak-cell (unique error location) counts per DRAM bank.

The paper profiles 72 DRAM chips at 50 and 60 degC under the 35x relaxed
refresh period with the DPBench suite and reports the unique error
locations per bank index:

    50 degC: 180 213 228 230 163 198 204 208   (bank-to-bank spread 41 %)
    60 degC: 3358 3610 3641 3842 3293 3448 3601 3540   (spread 16 %)

We read these as *board-level aggregates* (totals per bank index across
the 72 devices): the per-device reading would put thousands of weak
bits in every bank, which would force double-bit codewords and
contradict the paper's headline "all manifested errors are corrected by
ECC" -- the aggregate reading keeps per-device densities low enough for
SECDED, exactly as observed (see repro.dram.retention).

Our driver profiles the simulated 72-device population on the thermal
testbed (regulated to each setpoint), reports the per-bank-index totals,
the spread statistics, and the ECC scrub verdict over every device's
banks. Regulation is fault-tolerant and measurement-gated: a
``thermal`` fault seed injects a deterministic rig-fault schedule, a
round whose zones were not steady-in-band is re-regulated, and devices
on zones the safe-state quarantined are excluded and surfaced as typed
:class:`~repro.thermal.monitor.ZoneQuarantine` records -- never profiled
at a silently wrong temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.dram.cells import DramDevicePopulation
from repro.dram.controller import MemoryControlUnit, ScrubResult
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import ConfigurationError
from repro.experiments.common import (
    RunOptions,
    format_quarantine_lines,
    format_table,
    map_units,
    regulate_to_setpoint,
)
from repro.rand import SeedLike, resolve_seed
from repro.thermal.monitor import ZoneQuarantine
from repro.thermal.testbed import NUM_ZONES, ThermalTestbed, ZoneConfig
from repro.units import RELAXED_REFRESH_S

#: Paper-reported per-bank counts for the representative device.
PAPER_COUNTS: Dict[float, Tuple[int, ...]] = {
    50.0: (180, 213, 228, 230, 163, 198, 204, 208),
    60.0: (3358, 3610, 3641, 3842, 3293, 3448, 3601, 3540),
}

PAPER_SPREAD_PCT: Dict[float, float] = {50.0: 41.0, 60.0: 16.0}


def spread_pct(counts: List[int]) -> float:
    """Bank-to-bank spread: (max - min) / min, in percent."""
    if not counts or min(counts) == 0:
        raise ConfigurationError("cannot compute spread of empty/zero counts")
    return (max(counts) - min(counts)) / min(counts) * 100.0


@dataclass(frozen=True)
class Table1Result:
    """Per-bank-index totals at both temperatures plus ECC verdict.

    ``thermal_quarantine`` lists zones the testbed's safe-state tripped
    (typed records, mirroring the supervisor's ``UnitFailure`` contract)
    and ``excluded_devices`` the devices those zones carry -- excluded
    from every count rather than measured at an untrusted temperature.
    """

    counts: Dict[float, Tuple[int, ...]]        # temp -> 8 bank totals
    per_chip_totals: Dict[float, Tuple[int, ...]]  # temp -> totals per device
    scrubs: Dict[float, ScrubResult]            # aggregated over all devices
    regulation_ok: bool
    thermal_quarantine: Tuple[ZoneQuarantine, ...] = ()
    excluded_devices: Tuple[int, ...] = ()
    regulation_rounds: Dict[float, int] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, ...]]:
        rows = []
        for temp in sorted(self.counts):
            rows.append((f"{temp:.0f} degC",) + tuple(str(c) for c in self.counts[temp]))
        return rows

    def measured_spread_pct(self, temp_c: float) -> float:
        return spread_pct(list(self.counts[temp_c]))

    def temperature_amplification(self) -> float:
        """Mean count ratio 60 degC / 50 degC (paper: ~17x)."""
        mean50 = sum(self.counts[50.0]) / len(self.counts[50.0])
        mean60 = sum(self.counts[60.0]) / len(self.counts[60.0])
        return mean60 / mean50

    @property
    def all_errors_corrected(self) -> bool:
        """The headline ECC claim at <= 60 degC."""
        return all(s.all_corrected for s in self.scrubs.values())

    def chip_to_chip_variation(self, temp_c: float) -> float:
        """Max/min total weak cells across the devices."""
        totals = self.per_chip_totals[temp_c]
        return max(totals) / max(1, min(totals))

    def format(self) -> str:
        lines = ["Table I: unique error locations per bank index "
                 "(72 devices, 35x relaxed refresh)"]
        header = ("temp",) + tuple(f"bank{i}" for i in range(8))
        lines.append(format_table(header, self.rows()))
        for temp in sorted(self.counts):
            if min(self.counts[temp], default=0) > 0:
                spread = f"spread {self.measured_spread_pct(temp):.0f}% " \
                    f"(paper {PAPER_SPREAD_PCT[temp]:.0f}%)"
            else:
                spread = "spread n/a (no measurable devices)"
            lines.append(
                f"{temp:.0f} degC: {spread}, ECC scrub: "
                f"{'all corrected' if self.scrubs[temp].all_corrected else 'RESIDUAL ERRORS'}"
            )
        if all(sum(self.counts.get(t, ())) > 0 for t in (50.0, 60.0)):
            lines.append(
                f"60/50 degC amplification: "
                f"{self.temperature_amplification():.1f}x")
            lines.append(
                f"chip-to-chip variation (max/min totals): "
                f"{self.chip_to_chip_variation(60.0):.1f}x at 60 degC"
            )
        if self.excluded_devices:
            lines.append(
                f"{len(self.excluded_devices)} device(s) excluded on "
                "quarantined thermal zones: "
                + " ".join(str(d) for d in self.excluded_devices))
        lines.extend(format_quarantine_lines(self.thermal_quarantine))
        return "\n".join(lines)


def merge_scrubs(results: List[ScrubResult]) -> ScrubResult:
    """One scrub result summing the counts of ``results``."""
    return ScrubResult(
        raw_bit_errors=sum(r.raw_bit_errors for r in results),
        corrected_words=sum(r.corrected_words for r in results),
        uncorrectable_words=sum(r.uncorrectable_words for r in results),
        miscorrected_words=sum(r.miscorrected_words for r in results),
        words_scanned=sum(r.words_scanned for r in results),
        even_words=sum(r.even_words for r in results),
    )


def _profile_device_chunk(task: Tuple[int, Tuple[int, ...], Tuple[float, ...]]
                          ) -> Dict[float, Tuple[List[int], List[int],
                                                 List[ScrubResult]]]:
    """Worker body: profile a contiguous chunk of devices.

    Rebuilds the device population from the integer seed (every bank
    draws its weak cells from a ``weakcells-d{dev}-b{bank}`` substream,
    so a bank samples identically in any process) and returns, per
    temperature, the chunk's bank totals, per-device totals, and SECDED
    scrub results in device order. Each device's 8 banks are sampled
    once, in one pass, into one flat view; the view is queried and
    scrubbed once per temperature and released before the next device
    is sampled.
    """
    seed, devices, temps = task
    geometry = DEFAULT_GEOMETRY
    population = DramDevicePopulation(geometry=geometry, seed=seed)
    mcu = MemoryControlUnit(index=0, geometry=geometry,
                            trefp_s=RELAXED_REFRESH_S)
    out: Dict[float, Tuple[List[int], List[int], List[ScrubResult]]] = {
        temp: ([0] * geometry.banks_per_device, [], []) for temp in temps}
    for dev in devices:
        cells = population.device_cells([dev])
        for temp, (bank_totals, chip_totals, device_scrubs) in out.items():
            per_bank = cells.unique_locations(RELAXED_REFRESH_S, temp)
            chip_totals.append(sum(per_bank))
            for bank, value in enumerate(per_bank):
                bank_totals[bank] += value
            device_scrubs.append(mcu.scrub_bank(cells, temp))
    return out


def _device_chunks(devices: Union[int, Sequence[int]],
                   jobs: int) -> List[Tuple[int, ...]]:
    """Contiguous device chunks, one per worker slot.

    ``devices`` is either a device count (chunk ``range(devices)``) or
    an explicit ascending device-id list (the gated path, with
    quarantined devices already excluded). Chunks stay in ascending
    device order so concatenating chunk results reproduces the serial
    per-device ordering exactly.
    """
    ids = tuple(range(devices)) if isinstance(devices, int) \
        else tuple(devices)
    if not ids:
        return []
    chunk_count = max(1, min(jobs, len(ids)))
    size = -(-len(ids) // chunk_count)  # ceil division
    return [ids[lo:lo + size] for lo in range(0, len(ids), size)]


def run_table1(seed: SeedLike = None,
               temps_c: Tuple[float, float] = (50.0, 60.0),
               sample_devices: int = 72,
               regulate: bool = True,
               jobs: int = 1,
               options: RunOptions = RunOptions()) -> Table1Result:
    """Profile the population at both setpoints.

    ``regulate=True`` actually runs the 8-zone PID testbed to each
    setpoint first -- exercising the full measurement chain the paper
    used -- and gates the profiling on measurement validity: a round
    whose belief was not steady within 1 degC of setpoint is
    deterministically re-regulated (up to 3 windows of
    :data:`~repro.experiments.common.REGULATION_S` virtual seconds
    each), and zones the safe-state quarantined have their devices
    excluded and surfaced as typed records. Thermal faults in
    ``options`` (a ``thermal`` seed, or a fixed plan with thermal
    faults) are injected into that chain and imply ``regulate=True``;
    with only recoverable faults the result rows are bit-identical to
    the clean run. Every profiled device's banks pass through the real
    SECDED scrub; the verdict aggregates all of them.

    ``jobs > 1`` shards the device profiling across a process pool in
    contiguous device chunks; per-bank sampling is substream-seeded per
    (device, bank), so the merged totals are identical to the serial
    pass at any worker count. Thermal regulation stays in the parent.
    Execution is supervised: ``options`` also sets the deadline, the
    retry budget and any process faults the engine recovers from.
    """
    base = resolve_seed(seed)
    geometry = DEFAULT_GEOMETRY
    sample_devices = min(sample_devices, geometry.num_devices)
    plan = options.thermal_plan(NUM_ZONES)
    regulate = regulate or plan is not None
    regulation_ok = True
    quarantines: Tuple[ZoneQuarantine, ...] = ()
    rounds_used: Dict[float, int] = {}
    devices: Sequence[int] = range(sample_devices)
    excluded: Tuple[int, ...] = ()
    if regulate:
        testbed = ThermalTestbed(
            [ZoneConfig(setpoint_c=temps_c[0]) for _ in range(NUM_ZONES)],
            seed=base, faults=plan.thermal_faults if plan is not None else ())
        for temp in temps_c:
            rounds_used[temp] = regulate_to_setpoint(testbed, temp)
            regulation_ok = regulation_ok and all(
                testbed.zone_measurement_valid(zone)
                for zone in range(NUM_ZONES)
                if testbed.monitors[zone].quarantine is None)
        quarantines = testbed.zone_quarantines()
        regulation_ok = regulation_ok and not quarantines
        if quarantines:
            # A zone heats one rank; zones are numbered dimm-major.
            bad_zones = {q.zone for q in quarantines}
            locations = map(geometry.device_location, range(sample_devices))
            excluded = tuple(
                d for d, (dimm, rank, _slot) in enumerate(locations)
                if dimm * geometry.ranks_per_dimm + rank in bad_zones)
            devices = [d for d in range(sample_devices) if d not in excluded]

    tasks = [(base, chunk, tuple(temps_c))
             for chunk in _device_chunks(devices, jobs)]
    shards = map_units(_profile_device_chunk, tasks, jobs, options).unwrap()

    counts: Dict[float, Tuple[int, ...]] = {}
    per_chip: Dict[float, Tuple[int, ...]] = {}
    scrubs: Dict[float, ScrubResult] = {}
    for temp in temps_c:
        bank_totals = [0] * geometry.banks_per_device
        chip_totals: List[int] = []
        device_scrubs: List[ScrubResult] = []
        for shard in shards:
            shard_banks, shard_chips, shard_scrubs = shard[temp]
            for bank, value in enumerate(shard_banks):
                bank_totals[bank] += value
            chip_totals.extend(shard_chips)
            device_scrubs.extend(shard_scrubs)
        counts[temp] = tuple(bank_totals)
        per_chip[temp] = tuple(chip_totals)
        scrubs[temp] = merge_scrubs(device_scrubs)
    return Table1Result(
        counts=counts,
        per_chip_totals=per_chip,
        scrubs=scrubs,
        regulation_ok=regulation_ok,
        thermal_quarantine=quarantines,
        excluded_devices=excluded,
        regulation_rounds=rounds_used,
    )


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_table1
