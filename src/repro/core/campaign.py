"""Campaign declaration: the framework's initialization phase.

A *characterization setup* fixes the operating conditions of one run
(voltage, frequency, target cores). A *characterization run* executes
one benchmark at one setup. The set of runs executing the same benchmark
across setups is a *campaign* -- the paper's terminology, kept verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import CampaignError
from repro.soc.topology import CoreId, NOMINAL_FREQ_GHZ
from repro.workloads.base import Workload


@dataclass(frozen=True)
class CharacterizationSetup:
    """Operating conditions for one run."""

    voltage_mv: float
    freq_ghz: float = NOMINAL_FREQ_GHZ
    cores: Tuple[CoreId, ...] = (CoreId(0, 0),)
    repetitions: int = 10   # the paper repeats each experiment ten times

    def __post_init__(self) -> None:
        if self.voltage_mv <= 0 or self.freq_ghz <= 0:
            raise CampaignError("voltage and frequency must be positive")
        if not self.cores:
            raise CampaignError("a setup must target at least one core")
        if len(set(c.linear for c in self.cores)) != len(self.cores):
            raise CampaignError("duplicate cores in setup")
        if self.repetitions < 1:
            raise CampaignError("repetitions must be >= 1")

    def stream_key(self) -> str:
        """Exact operating-point signature used for RNG substream tags.

        It keeps full float precision, so two setups share a random
        stream only when they are the same operating point.
        """
        cores = ",".join(str(c.linear) for c in self.cores)
        return (f"{self.voltage_mv!r}mV@{self.freq_ghz!r}GHz"
                f"[{cores}]x{self.repetitions}")


@dataclass(frozen=True)
class CharacterizationRun:
    """One benchmark at one setup -- the unit of execution."""

    workload: Workload
    setup: CharacterizationSetup
    run_id: int

    def stream_key(self) -> str:
        """Order-independent signature of this run's sampled behaviour.

        Excludes ``run_id`` deliberately: the id reflects declaration
        order, while the random stream must depend only on *what* is
        executed so sharded and serial executions draw identically.
        """
        return f"{self.workload.name}@{self.setup.stream_key()}"

    def global_key(self, chip_serial: str) -> str:
        """Globally unique run identity for the result pipeline.

        ``chip serial + campaign (benchmark) + run signature``: unlike
        ``run_id`` -- which restarts at every plan or Vmin search -- this
        key stays unique across campaigns and chips, so the cloud store
        can deduplicate retransmissions without ever confusing rows from
        different studies (see :class:`repro.core.transport.CloudStore`).
        """
        return f"{chip_serial}/{self.workload.name}/{self.setup.stream_key()}"


@dataclass(frozen=True)
class Campaign:
    """All runs of one benchmark across its setups."""

    workload: Workload
    runs: Tuple[CharacterizationRun, ...]

    @property
    def name(self) -> str:
        return self.workload.name


class CampaignPlan:
    """The initialization phase: declare benchmarks x setups.

    Mirrors the paper's Figure 2 initialization box: "a user can declare
    a benchmark list with corresponding input datasets to run in any
    desirable characterization setup".
    """

    def __init__(self) -> None:
        self._workloads: List[Workload] = []
        self._setups: List[CharacterizationSetup] = []
        self._run_counter = itertools.count()

    def add_workload(self, workload: Workload) -> "CampaignPlan":
        if any(w.name == workload.name for w in self._workloads):
            raise CampaignError(f"duplicate workload {workload.name!r}")
        self._workloads.append(workload)
        return self

    def add_workloads(self, workloads: Iterable[Workload]) -> "CampaignPlan":
        for workload in workloads:
            self.add_workload(workload)
        return self

    def add_setup(self, setup: CharacterizationSetup) -> "CampaignPlan":
        self._setups.append(setup)
        return self

    def add_voltage_sweep(self, start_mv: float, stop_mv: float, step_mv: float,
                          freq_ghz: float = NOMINAL_FREQ_GHZ,
                          cores: Sequence[CoreId] = (CoreId(0, 0),),
                          repetitions: int = 10) -> "CampaignPlan":
        """Declare a descending voltage ladder of setups."""
        if step_mv <= 0:
            raise CampaignError("step must be positive")
        if stop_mv > start_mv:
            raise CampaignError("sweep must descend (stop <= start)")
        # Integer-indexed ladder: accumulating ``voltage -= step_mv``
        # drifts for steps with no exact binary representation (0.1 mV
        # accumulates ~1e-13 per rung), which de-duplicates CSV voltage
        # columns and RNG stream keys. ``start - i * step`` does not.
        index = 0
        while True:
            voltage = start_mv - index * step_mv
            if voltage < stop_mv - 1e-9:
                break
            self.add_setup(CharacterizationSetup(
                voltage_mv=voltage, freq_ghz=freq_ghz,
                cores=tuple(cores), repetitions=repetitions,
            ))
            index += 1
        return self

    def build(self) -> List[Campaign]:
        """Materialize the campaign list (one per benchmark)."""
        if not self._workloads:
            raise CampaignError("no workloads declared")
        if not self._setups:
            raise CampaignError("no setups declared")
        campaigns = []
        for workload in self._workloads:
            runs = tuple(
                CharacterizationRun(workload=workload, setup=setup,
                                    run_id=next(self._run_counter))
                for setup in self._setups
            )
            campaigns.append(Campaign(workload=workload, runs=runs))
        return campaigns
