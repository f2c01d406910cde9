"""Deterministic fault injection for the result pipeline.

The paper's characterization framework exists because undervolting runs
crash, hang and corrupt their own telemetry -- so the harness, not the
benchmark, must guarantee that every repetition's outcome survives to
the final CSV. This module makes that guarantee *testable*: a
:class:`FaultPlan` declares a reproducible schedule of harness-level
faults and decides, for each ``(index, attempt)``, whether one strikes --

- **transport corruption/loss bursts**: windows of uploaded rows whose
  first ``depth`` transmit attempts are forcibly corrupted
  (:class:`~repro.core.transport.SerialLink`) or dropped
  (:class:`~repro.core.transport.NetworkLink`);
- **process-level faults**: attempts that actually ``os._exit`` their
  worker, sleep past the supervision deadline, or raise a poison
  exception -- exercising the *recovery machinery* of
  :class:`repro.core.supervisor.SupervisedPool` for real;
- **thermal rig faults**: time-scheduled sensor and actuator failures of
  the DRAM thermal testbed (stuck/drifting/dropped-out thermocouples,
  SPD read timeouts, welded-on and stuck-open relays, dead heater
  elements, ambient disturbance steps), declared here as typed
  :class:`ThermalFault` records and *applied* by
  :class:`repro.thermal.testbed.ThermalTestbed`.

The plan only decides; the code that observes a fault counts it. The
supervisor's attempt ledger records the fault of every unit attempt
(:meth:`repro.core.supervisor.MapOutcome.injected`) and each link counts
the attempts a burst hit
(:attr:`repro.core.transport.TransportStats.injected`).

Every decision is a pure function of the plan plus ``(index, attempt)``
(or, for thermal faults, of the plan plus virtual time), so the same
plan injects the same faults at any worker count -- which is what lets
the test suite assert the *fault-equivalence property*: a pipeline run
under any seeded plan converges to a cloud store bit-identical to the
clean serial run, with any quarantined (poison) units enumerated
deterministically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.rand import SeedLike, substream

#: Fault kinds reported by :meth:`FaultPlan.unit_fault`; they really
#: happen in the worker process.
UNIT_EXIT = "unit-exit"          #: worker calls ``os._exit`` mid-unit
UNIT_HANG = "unit-hang"          #: worker sleeps past its deadline
UNIT_POISON = "unit-poison"      #: worker raises :class:`PoisonError`

#: Thermal-rig fault kinds consumed by :mod:`repro.thermal.faults`.
TC_STUCK = "tc-stuck"            #: thermocouple freezes at its last reading
TC_DRIFT = "tc-drift"            #: thermocouple drifts ``magnitude`` degC/s
TC_DROPOUT = "tc-dropout"        #: thermocouple channel reads nothing
SPD_TIMEOUT = "spd-timeout"      #: SPD/TSOD SMBus reads time out
RELAY_WELDED_ON = "relay-welded-on"    #: SSR conducts regardless of command
RELAY_STUCK_OPEN = "relay-stuck-open"  #: SSR never conducts
HEATER_FAILED = "heater-failed"  #: resistive element goes open-circuit
AMBIENT_STEP = "ambient-step"    #: lab ambient steps by ``magnitude`` degC

#: Thermal fault taxonomy, grouped by what the fault breaks.
THERMAL_SENSOR_KINDS = frozenset(
    {TC_STUCK, TC_DRIFT, TC_DROPOUT, SPD_TIMEOUT})
THERMAL_ACTUATOR_KINDS = frozenset(
    {RELAY_WELDED_ON, RELAY_STUCK_OPEN, HEATER_FAILED})
THERMAL_FAULT_KINDS = (THERMAL_SENSOR_KINDS | THERMAL_ACTUATOR_KINDS
                       | {AMBIENT_STEP})

#: Kinds a monitored testbed recovers from without losing the zone: a
#: single faulted sensor degrades to the surviving one and an ambient
#: step is regulated out. Actuator faults leave the zone unable to hold
#: its setpoint and always end in quarantine.
RECOVERABLE_THERMAL_KINDS = THERMAL_SENSOR_KINDS | {AMBIENT_STEP}


class PoisonError(CampaignError):
    """The injected exception a poison work unit raises in its worker."""


def run_injected_real_fault(directive: str, hang_seconds: float) -> None:
    """Actually perform an injected fault inside a worker process.

    :data:`UNIT_EXIT` never returns (the worker process dies),
    :data:`UNIT_HANG` sleeps ``hang_seconds`` (tripping the supervisor's
    deadline when one is armed, else returning so the caller reports a
    hang), and :data:`UNIT_POISON` raises :class:`PoisonError`.
    """
    if directive == UNIT_EXIT:
        os._exit(13)
    if directive == UNIT_HANG:
        time.sleep(hang_seconds)
    elif directive == UNIT_POISON:
        raise PoisonError("injected poison work unit")


@dataclass(frozen=True)
class ThermalFault:
    """One scheduled fault of the thermal rig, in virtual time.

    Parameters
    ----------
    zone:
        Testbed zone (DIMM rank) the fault strikes.
    kind:
        One of :data:`THERMAL_FAULT_KINDS`.
    start_s:
        Virtual time the fault becomes active.
    duration_s:
        Fault window length; ``None`` means permanent (the default for
        actuator faults -- a welded relay does not un-weld).
    magnitude:
        Kind-specific intensity: drift rate in degC/s for
        :data:`TC_DRIFT`, ambient offset in degC for
        :data:`AMBIENT_STEP`; unused otherwise.
    """

    zone: int
    kind: str
    start_s: float
    duration_s: Optional[float] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.zone < 0:
            raise CampaignError("thermal fault zone must be >= 0")
        if self.kind not in THERMAL_FAULT_KINDS:
            raise CampaignError(f"unknown thermal fault kind {self.kind!r}")
        if self.start_s < 0:
            raise CampaignError("thermal fault start_s must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise CampaignError("thermal fault duration_s must be positive "
                                "(None for permanent)")
        if self.kind == TC_DRIFT and self.magnitude <= 0:
            raise CampaignError("tc-drift needs a positive degC/s magnitude")
        if self.kind == AMBIENT_STEP and self.magnitude == 0:
            raise CampaignError("ambient-step needs a non-zero magnitude")

    @property
    def end_s(self) -> float:
        """Fault window end (``inf`` for permanent faults)."""
        if self.duration_s is None:
            return float("inf")
        return self.start_s + self.duration_s

    def active(self, now_s: float) -> bool:
        """Whether the fault is in effect at virtual time ``now_s``."""
        return self.start_s <= now_s < self.end_s

    def overlaps(self, other: "ThermalFault") -> bool:
        """Whether two fault windows intersect in time."""
        return self.start_s < other.end_s and other.start_s < self.end_s

    @property
    def recoverable(self) -> bool:
        """Whether a monitored zone survives this fault alone."""
        return self.kind in RECOVERABLE_THERMAL_KINDS


def thermal_faults_recoverable(faults) -> bool:
    """Whether a set of :class:`ThermalFault` leaves every zone viable.

    A plan is recoverable when every fault kind is individually
    recoverable *and* no zone loses both of its temperature sensors at
    once: a thermocouple fault overlapping an SPD timeout in the same
    zone blinds the monitor, which must then quarantine the zone.
    """
    faults = tuple(faults)
    if any(f.kind not in RECOVERABLE_THERMAL_KINDS for f in faults):
        return False
    tc_kinds = {TC_STUCK, TC_DRIFT, TC_DROPOUT}
    for fault in faults:
        if fault.kind not in tc_kinds:
            continue
        for other in faults:
            if (other.zone == fault.zone and other.kind == SPD_TIMEOUT
                    and other.overlaps(fault)):
                return False
    return True


@dataclass(frozen=True)
class FaultBurst:
    """A window of uploaded rows whose first attempts are doomed.

    For every row index in ``[first_row, first_row + rows)`` the first
    ``depth`` transmit attempts fail; attempt ``depth`` onward goes
    through. Keeping ``depth <= max_retries`` of the link therefore
    guarantees eventual delivery -- bursts model a flaky window, not a
    severed cable.
    """

    first_row: int
    rows: int
    depth: int

    def __post_init__(self) -> None:
        if self.first_row < 0 or self.rows < 1 or self.depth < 1:
            raise CampaignError("burst needs first_row >= 0, rows/depth >= 1")

    def hits(self, row_index: int, attempt: int) -> bool:
        return (self.first_row <= row_index < self.first_row + self.rows
                and attempt < self.depth)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, reproducible schedule of harness faults.

    Parameters
    ----------
    corruption_bursts / loss_bursts:
        Row windows whose early transmit attempts are corrupted on the
        serial link / dropped on the network link.
    unit_exits / unit_hangs:
        ``(unit_index, count)`` pairs, at most one per unit, of *real*
        process-level faults: the unit's first ``count`` attempts (exits
        before hangs) really ``os._exit`` the worker / really sleep
        ``hang_seconds``.
        Both charge the supervisor's retry budget, so keeping
        ``exits + hangs <= max_retries`` per unit guarantees the plan
        converges to clean results.
    poison_units:
        Unit indices whose every attempt raises
        :class:`PoisonError` -- these units exhaust their budget and are
        deterministically quarantined as typed failures.
    hang_seconds:
        How long an injected hang sleeps. Under a supervision deadline
        shorter than this the worker is terminated; without one the
        sleep returns a marker that is charged as a hang anyway.
    thermal_faults:
        Time-scheduled :class:`ThermalFault` records applied by
        :class:`repro.thermal.testbed.ThermalTestbed`.
    """

    corruption_bursts: Tuple[FaultBurst, ...] = ()
    loss_bursts: Tuple[FaultBurst, ...] = ()
    unit_exits: Tuple[Tuple[int, int], ...] = ()
    unit_hangs: Tuple[Tuple[int, int], ...] = ()
    poison_units: Tuple[int, ...] = ()
    hang_seconds: float = 1.0
    thermal_faults: Tuple[ThermalFault, ...] = ()

    def __post_init__(self) -> None:
        for name, pairs in (("unit_exits", self.unit_exits),
                            ("unit_hangs", self.unit_hangs)):
            for shard, count in pairs:
                if shard < 0 or count < 1:
                    raise CampaignError(
                        f"{name} needs shard >= 0 and count >= 1")
            shards = [shard for shard, _ in pairs]
            if len(set(shards)) != len(shards):
                raise CampaignError(f"{name} repeats a unit index")
        if any(unit < 0 for unit in self.poison_units):
            raise CampaignError("poison_units needs unit indices >= 0")
        if self.hang_seconds <= 0:
            raise CampaignError("hang_seconds must be positive")
        for fault in self.thermal_faults:
            if not isinstance(fault, ThermalFault):
                raise CampaignError(
                    "thermal_faults entries must be ThermalFault records")

    def unit_fault(self, unit: int, attempt: int) -> Optional[str]:
        """Fate of one attempt of one supervised work unit.

        Real worker exits first, then real hangs, then -- for poison
        units -- an unconditional poison raise; ``None`` is a clean
        attempt.
        """
        exits = sum(count for index, count in self.unit_exits
                    if index == unit)
        hangs = exits + sum(count for index, count in self.unit_hangs
                            if index == unit)
        if attempt < exits:
            return UNIT_EXIT
        if attempt < hangs:
            return UNIT_HANG
        if unit in self.poison_units:
            return UNIT_POISON
        return None

    def corrupts(self, row: int, attempt: int) -> bool:
        """Whether the serial link corrupts this (row, attempt) frame."""
        return any(b.hits(row, attempt) for b in self.corruption_bursts)

    def drops(self, row: int, attempt: int) -> bool:
        """Whether the network link drops this (row, attempt) packet."""
        return any(b.hits(row, attempt) for b in self.loss_bursts)

    def select_units(self, units: Sequence[int]) -> "FaultPlan":
        """This plan with its unit faults re-indexed onto ``units``.

        Unit ``units[k]`` of this plan becomes unit ``k``; units not
        listed lose their faults. A map over a subset of a run's units
        (the shards a resume left pending) then faults exactly the units
        the whole run would.
        """
        position = {unit: k for k, unit in enumerate(units)}
        return replace(
            self,
            unit_exits=tuple((position[unit], count)
                             for unit, count in self.unit_exits
                             if unit in position),
            unit_hangs=tuple((position[unit], count)
                             for unit, count in self.unit_hangs
                             if unit in position),
            poison_units=tuple(position[unit] for unit in self.poison_units
                               if unit in position))

    @property
    def max_transport_depth(self) -> int:
        """Deepest burst; links need ``max_retries >= this`` to converge."""
        bursts = self.corruption_bursts + self.loss_bursts
        return max((b.depth for b in bursts), default=0)

    @property
    def thermal_recoverable(self) -> bool:
        """Whether the plan's thermal faults leave every zone viable."""
        return thermal_faults_recoverable(self.thermal_faults)

    @classmethod
    def random(cls, seed: SeedLike, shards: int, rows: int = 0,
               max_depth: int = 3) -> "FaultPlan":
        """A seeded plan of worker exits and transport bursts.

        ``shards`` is the campaign count of the study; ``rows`` the
        (approximate) number of rows the upload will push -- bursts are
        placed inside that range. Each shard gets at most 3 real worker
        exits, so the plan converges under the supervisor's default
        retry budget. The same seed always produces the same plan, so a
        faulted run is exactly reproducible.
        """
        if shards < 1:
            raise CampaignError("a fault plan needs at least one shard")
        rng = substream(seed, "fault-plan")
        exits = dict(
            (shard, int(rng.integers(1, 3)))
            for shard in range(shards) if rng.random() < 0.5)
        for shard in range(shards):
            if rng.random() < 0.35:
                exits[shard] = exits.get(shard, 0) + 1
        corruption = []
        loss = []
        if rows > 0:
            for bursts in (corruption, loss):
                for _ in range(int(rng.integers(1, 4))):
                    first = int(rng.integers(0, rows))
                    length = int(rng.integers(1, max(2, rows // 4 + 1)))
                    depth = int(rng.integers(1, max_depth + 1))
                    bursts.append(FaultBurst(first, length, depth))
        return cls(unit_exits=tuple(sorted(exits.items())),
                   corruption_bursts=tuple(corruption),
                   loss_bursts=tuple(loss))

    @classmethod
    def random_real(cls, seed: SeedLike, units: int,
                    poison_rate: float = 0.0,
                    hang_seconds: float = 0.25) -> "FaultPlan":
        """A seeded plan of *real* process-level faults.

        Exit and hang counts are capped at the default supervision
        budget (at most one of each per unit), so the plan always
        converges: a supervised run finishes with results bit-identical
        to a clean run, except for the units ``poison_rate`` dooms --
        those are quarantined, deterministically, at any worker count.
        """
        if units < 1:
            raise CampaignError("a real-fault plan needs at least one unit")
        if not 0.0 <= poison_rate <= 1.0:
            raise CampaignError("poison_rate must be within [0, 1]")
        rng = substream(seed, "real-fault-plan")
        exits = tuple((unit, 1) for unit in range(units)
                      if rng.random() < 0.35)
        hangs = tuple((unit, 1) for unit in range(units)
                      if rng.random() < 0.25)
        poison = tuple(unit for unit in range(units)
                       if rng.random() < poison_rate)
        return cls(unit_exits=exits, unit_hangs=hangs, poison_units=poison,
                   hang_seconds=hang_seconds)

    @classmethod
    def random_thermal(cls, seed: SeedLike, zones: int = 8,
                       horizon_s: float = 900.0, fault_rate: float = 0.6,
                       unrecoverable_rate: float = 0.0) -> "FaultPlan":
        """A seeded schedule of thermal rig faults over ``zones`` zones.

        At most one fault per zone, placed inside the first regulation
        window of ``horizon_s`` virtual seconds, so a faulted zone never
        loses both sensors at once. With ``unrecoverable_rate == 0``
        every generated fault is recoverable
        (:attr:`thermal_recoverable` is ``True``) and a gated run
        converges bit-identical to the clean run; a non-zero rate mixes
        in permanent actuator faults that deterministically end in zone
        quarantine. The same seed always produces the same schedule.
        """
        if zones < 1:
            raise CampaignError("a thermal fault plan needs >= 1 zone")
        if horizon_s <= 0:
            raise CampaignError("horizon_s must be positive")
        if not 0.0 <= fault_rate <= 1.0:
            raise CampaignError("fault_rate must be within [0, 1]")
        if not 0.0 <= unrecoverable_rate <= 1.0:
            raise CampaignError("unrecoverable_rate must be within [0, 1]")
        rng = substream(seed, "thermal-fault-plan")
        recoverable = (TC_STUCK, TC_DRIFT, TC_DROPOUT, SPD_TIMEOUT,
                       AMBIENT_STEP)
        unrecoverable = (RELAY_WELDED_ON, RELAY_STUCK_OPEN, HEATER_FAILED)
        faults = []
        for zone in range(zones):
            if rng.random() >= fault_rate:
                continue
            start_s = float(rng.uniform(0.1, 0.5)) * horizon_s
            if rng.random() < unrecoverable_rate:
                kind = unrecoverable[int(rng.integers(0, len(unrecoverable)))]
                faults.append(ThermalFault(zone=zone, kind=kind,
                                           start_s=start_s))
                continue
            kind = recoverable[int(rng.integers(0, len(recoverable)))]
            duration_s = float(rng.uniform(0.05, 0.25)) * horizon_s
            magnitude = 0.0
            if kind == TC_DRIFT:
                magnitude = float(rng.uniform(0.02, 0.06))
            elif kind == AMBIENT_STEP:
                magnitude = float(rng.uniform(3.0, 8.0))
            faults.append(ThermalFault(zone=zone, kind=kind, start_s=start_s,
                                       duration_s=duration_s,
                                       magnitude=magnitude))
        return cls(thermal_faults=tuple(faults))


@dataclass(frozen=True)
class FaultSpec:
    """Seeds of the fault families to inject, e.g. ``random=77,real=7``.

    ``random`` seeds :meth:`FaultPlan.random`, ``real``
    :meth:`FaultPlan.random_real` and ``thermal``
    :meth:`FaultPlan.random_thermal`; :meth:`plan` sizes them to a run.
    """

    random: Optional[int] = None
    real: Optional[int] = None
    thermal: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``"random=77,real=7,thermal=0"`` (any non-empty subset).

        Raises :class:`~repro.errors.CampaignError` on an empty spec, an
        unknown or repeated family, or a seed that is not a
        non-negative integer.
        """
        families = [f.name for f in fields(cls)]
        seeds: Dict[str, int] = {}
        for item in text.split(","):
            family, _, value = (part.strip() for part in item.partition("="))
            if family not in families or family in seeds:
                raise CampaignError(
                    f"expected FAMILY=SEED[,...] with each FAMILY one of "
                    f"{', '.join(families)} at most once; got {text!r}")
            if not value.isdecimal():
                raise CampaignError(f"{family} needs a non-negative integer "
                                    f"seed, got {value!r}")
            seeds[family] = int(value)
        return cls(**seeds)

    def plan(self, units: int = 0, rows: int = 0, zones: int = 0,
             horizon_s: float = 900.0) -> FaultPlan:
        """The one place seeds become a plan: process and transport
        faults over ``units`` work units and ``rows`` uploaded rows,
        thermal faults over ``zones`` zones and a ``horizon_s`` window.
        A family whose size is 0 draws nothing."""
        plan = FaultPlan()
        if units and self.random is not None:
            plan = FaultPlan.random(self.random, shards=units, rows=rows)
        if units and self.real is not None:
            real = FaultPlan.random_real(self.real, units=units)
            plan = replace(plan, unit_exits=real.unit_exits,
                           unit_hangs=real.unit_hangs,
                           poison_units=real.poison_units,
                           hang_seconds=real.hang_seconds)
        if zones and self.thermal is not None:
            thermal = FaultPlan.random_thermal(self.thermal, zones=zones,
                                               horizon_s=horizon_s)
            plan = replace(plan, thermal_faults=thermal.thermal_faults)
        return plan
