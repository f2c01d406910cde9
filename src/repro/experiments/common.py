"""Shared plumbing for the experiment drivers.

Besides the serial helpers, this module hosts the module-level (and
therefore picklable) work units the process-parallel experiment drivers
fan out: each unit rebuilds its reference chip from the integer seed,
runs one Vmin ladder on a fresh executor, and returns the result. The
reference parts carry zero manufacturing jitter and every run draws from
a named ``(seed, chip, run)`` substream, so a unit computes the same
answer in any process, at any worker count, in any order. Drivers take
their supervision settings and fault injection as one
:class:`RunOptions` and run every supervised map through
:func:`map_units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.executor import CampaignExecutor
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.supervisor import DEFAULT_MAX_RETRIES, MapOutcome, SupervisedPool
from repro.core.vmin import VminResult, VminSearch
from repro.rand import SeedLike
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.base import Workload

#: One parallel work unit: (seed, corner, workload, ladder repetitions).
VminTask = Tuple[int, ProcessCorner, Workload, int]


#: Virtual seconds of one regulation window of the thermal testbed;
#: rig-fault schedules are drawn inside the first one.
REGULATION_S = 900.0


@dataclass(frozen=True)
class RunOptions:
    """How a driver runs its work: supervision settings and faults.

    ``unit_timeout`` / ``max_retries`` set the supervisor's per-unit
    deadline and retry budget. ``faults`` is a :class:`FaultSpec` of
    seeds (sized to each call's units or zones), a fixed
    :class:`FaultPlan` used as given, or ``None``. Recoverable faults
    leave every row identical to the clean run: they test harness
    robustness, not a different experiment.
    """

    unit_timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    faults: Union[FaultSpec, FaultPlan, None] = None

    def __post_init__(self) -> None:
        # The pool these settings feed raises the typed errors.
        SupervisedPool(unit_timeout=self.unit_timeout,
                       max_retries=self.max_retries)

    def plan(self, units: int = 0, rows: int = 0, zones: int = 0,
             horizon_s: float = REGULATION_S) -> Optional[FaultPlan]:
        """The fault plan for a run of this size, or ``None``."""
        if isinstance(self.faults, FaultSpec):
            return self.faults.plan(units, rows, zones, horizon_s)
        return self.faults

    def thermal_plan(self, zones: int,
                     horizon_s: float = REGULATION_S) -> Optional[FaultPlan]:
        """The rig-fault plan for a ``zones``-zone testbed, or ``None``.

        A plan here means the driver must regulate the testbed: a
        ``thermal`` seed always gives one, a fixed plan only when it
        carries thermal faults.
        """
        faults = self.faults
        wanted = faults.thermal is not None if isinstance(faults, FaultSpec) \
            else faults is not None and bool(faults.thermal_faults)
        return self.plan(zones=zones, horizon_s=horizon_s) if wanted else None


def map_units(fn: Callable, tasks: Sequence, jobs: int, options: RunOptions,
              settle: Optional[Callable[[int, object], None]] = None
              ) -> MapOutcome:
    """Supervised, order-preserving map of ``fn`` over ``tasks``.

    The one place a :class:`RunOptions` becomes a
    :class:`~repro.core.supervisor.SupervisedPool` of ``jobs`` workers
    (``jobs=1`` runs inline) and the fault plan it runs under. The plan
    is sized to ``len(tasks)`` units, so a seeded schedule lands on this
    map's own units; the outcome's ledger records every fault it
    injected (:meth:`MapOutcome.injected` counts them).
    :meth:`MapOutcome.unwrap` gives the values, or raises the typed
    failure of any quarantined unit. ``settle`` is passed to
    :meth:`~repro.core.supervisor.SupervisedPool.map`.
    """
    tasks = list(tasks)
    pool = SupervisedPool(jobs=jobs, unit_timeout=options.unit_timeout,
                          max_retries=options.max_retries)
    return pool.map(fn, tasks, faults=options.plan(units=len(tasks)), settle=settle)


def regulate_to_setpoint(testbed, setpoint_c: float, rounds: int = 3,
                         regulation_s: float = REGULATION_S) -> int:
    """Drive every testbed zone to ``setpoint_c`` until trustworthy.

    Runs up to ``rounds`` regulation windows of ``regulation_s`` virtual
    seconds; a round whose belief was not steady-in-band (an out-of-band
    window from a recoverable rig fault) is deterministically followed
    by another -- re-regulation, the measurement-validity gate's
    recovery path. A zone still untrustworthy when the budget runs out
    is force-quarantined as ``regulation-timeout`` (its heater is cut);
    zones the monitor already quarantined stay quarantined. Returns the
    number of rounds used.
    """
    from repro.thermal.monitor import REGULATION_TIMEOUT

    zones = range(len(testbed.configs))
    for zone in zones:
        testbed.set_setpoint(zone, setpoint_c)
    used = 0
    while used < rounds:
        testbed.run(regulation_s)
        used += 1
        pending = [zone for zone in zones
                   if testbed.monitors[zone].quarantine is None
                   and not testbed.zone_measurement_valid(zone)]
        if not pending:
            break
    for zone in zones:
        if testbed.monitors[zone].quarantine is None \
                and not testbed.zone_measurement_valid(zone):
            testbed.quarantine_zone(
                zone, REGULATION_TIMEOUT,
                f"not steady in band after {used} x {regulation_s:.0f}s "
                f"rounds at {setpoint_c:.0f} degC")
    return used


def format_quarantine_lines(failures) -> List[str]:
    """Render typed quarantine records (unit or zone) for summaries."""
    return [f"quarantined: {failure.describe()}" for failure in failures]


def reference_executors(seed: SeedLike = None) -> Dict[ProcessCorner, CampaignExecutor]:
    """Campaign executors over the three reference sigma parts."""
    chips = build_reference_chips(seed=seed)
    return {corner: CampaignExecutor(chip, seed=seed)
            for corner, chip in chips.items()}


def vmin_search_unit(task: VminTask) -> VminResult:
    """Worker body: one (corner, workload) Vmin ladder, self-contained.

    Rebuilds the reference chip for ``task``'s corner from the seed and
    walks the descending ladder on the strongest core with a fresh
    executor -- exactly what the serial drivers do, minus any state
    shared across workloads. Returns the :class:`VminResult`.
    """
    seed, corner, workload, repetitions = task
    chip = build_reference_chips(seed=seed)[corner]
    search = VminSearch(CampaignExecutor(chip, seed=seed),
                        repetitions=repetitions)
    return search.search(workload, cores=(chip.strongest_core(),))


def vmin_searches(seed: SeedLike = None, repetitions: int = 10,
                  step_mv: float = 5.0) -> Dict[ProcessCorner, VminSearch]:
    """Vmin search harnesses over the three reference parts."""
    return {
        corner: VminSearch(executor, step_mv=step_mv, repetitions=repetitions)
        for corner, executor in reference_executors(seed).items()
    }


def format_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table for experiment output."""
    table: List[List[str]] = [[str(h) for h in header]]
    for row in rows:
        table.append([f"{v:.3f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
