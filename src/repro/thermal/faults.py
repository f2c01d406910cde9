"""Applying scheduled rig faults to the thermal testbed.

:class:`repro.core.faults.FaultPlan` *declares* thermal faults as typed
:class:`~repro.core.faults.ThermalFault` records; this module *applies*
them. The testbed gives each faulted zone a :class:`ZoneFaultState`,
which, each control tick, lenses the zone's sensor reads and actuator
commands through whatever faults are active at that virtual time:

- sensor faults corrupt what the controller *sees* (a stuck thermocouple
  freezes at its last healthy reading, a drifting one ramps away at its
  scheduled rate, dropouts and SPD timeouts read nothing);
- actuator faults corrupt what the plant *receives* (a welded relay
  delivers full power regardless of the commanded duty, a stuck-open
  relay or a dead heater element delivers none);
- ambient steps disturb the plant itself.

Everything is a pure function of the plan plus virtual time (the stuck
value is captured at the fault's first active tick, which is itself
deterministic), so a faulted regulation run replays identically
run-to-run -- the property the measurement-validity gating of the DRAM
campaigns relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.faults import (
    AMBIENT_STEP,
    HEATER_FAILED,
    RELAY_STUCK_OPEN,
    RELAY_WELDED_ON,
    SPD_TIMEOUT,
    TC_DRIFT,
    TC_DROPOUT,
    TC_STUCK,
    ThermalFault,
)
from repro.errors import CampaignError

_TC_KINDS = (TC_STUCK, TC_DRIFT, TC_DROPOUT)


class ZoneFaultState:
    """The active-fault lens of one testbed zone.

    Holds the zone's scheduled faults plus the one piece of mutable
    state fault application needs: the captured stuck value. One
    instance serves one testbed run; the capture is deterministic
    because the first active tick is.
    """

    def __init__(self, zone: int, faults: Sequence[ThermalFault]) -> None:
        if any(f.zone != zone for f in faults):
            raise CampaignError("zone fault state got a foreign-zone fault")
        self.zone = zone
        self.faults: Tuple[ThermalFault, ...] = tuple(
            sorted(faults, key=lambda f: (f.start_s, f.kind)))
        self._stuck_values: Dict[int, float] = {}

    def _active(self, kinds, now_s: float):
        for index, fault in enumerate(self.faults):
            if fault.kind in kinds and fault.active(now_s):
                yield index, fault

    def ambient_offset_c(self, now_s: float) -> float:
        """Total ambient disturbance in effect at ``now_s`` (degC)."""
        return sum(f.magnitude
                   for _, f in self._active((AMBIENT_STEP,), now_s))

    def thermocouple_reading(self, reading_c: float,
                             now_s: float) -> Optional[float]:
        """What the thermocouple channel reports given the true reading.

        Returns ``None`` while a dropout is active; a stuck fault
        returns the value captured at its first active tick; a drift
        fault ramps away at ``magnitude`` degC/s from its onset.
        """
        for index, fault in self._active(_TC_KINDS, now_s):
            if fault.kind == TC_DROPOUT:
                return None
            if fault.kind == TC_STUCK:
                if index not in self._stuck_values:
                    self._stuck_values[index] = reading_c
                return self._stuck_values[index]
            return reading_c + fault.magnitude * (now_s - fault.start_s)
        return reading_c

    def spd_reading(self, reading_c: float,
                    now_s: float) -> Optional[float]:
        """What the SPD read returns (``None`` while timing out)."""
        for _ in self._active((SPD_TIMEOUT,), now_s):
            return None
        return reading_c

    def delivered_power_w(self, commanded_w: float, now_s: float,
                          max_power_w: float) -> float:
        """Power the element actually receives given the command."""
        for _ in self._active((HEATER_FAILED,), now_s):
            return 0.0
        for _ in self._active((RELAY_STUCK_OPEN,), now_s):
            return 0.0
        for _ in self._active((RELAY_WELDED_ON,), now_s):
            return max_power_w
        return commanded_w


__all__ = ["ZoneFaultState"]
