"""Temperature-controlled DRAM testbed (paper Section III.B).

The paper built a first-of-its-kind thermal rig: per-DIMM heating
adapters (resistive element + thermally conductive tape + thermocouple)
driven by a controller board with a Raspberry Pi, four closed-loop PID
controllers and eight solid-state relays -- one per DIMM rank -- holding
any setpoint to within 1 degC.

This package simulates that rig end-to-end:

- :mod:`repro.thermal.plant` -- first-order thermal RC model of a DIMM
  with a heating element;
- :mod:`repro.thermal.pid` -- a discrete PID controller with anti-windup;
- :mod:`repro.thermal.relay` -- time-proportioned solid-state relay;
- :mod:`repro.thermal.sensors` -- thermocouple and SPD-sensor reads;
- :mod:`repro.thermal.faults` -- scheduled rig faults (stuck/drifting
  thermocouples, SPD timeouts, welded relays, dead heaters, ambient
  steps) applied deterministically from a
  :class:`~repro.core.faults.FaultPlan`'s ``thermal_faults``;
- :mod:`repro.thermal.monitor` -- in-loop fault detection: sensor
  fusion by residual voting, rate plausibility, per-zone degradation
  and the hard safe-state (heater cutoff + typed zone quarantine);
- :mod:`repro.thermal.testbed` -- the 8-zone controller board on one
  fixed-period control tick, with the <1 degC regulation property
  verified by the test suite.
"""

from repro.core.faults import ThermalFault
from repro.thermal.binding import ZoneBinding
from repro.thermal.faults import ZoneFaultState
from repro.thermal.monitor import (
    MonitorParams,
    ZoneMonitor,
    ZoneQuarantine,
    settle_time,
)
from repro.thermal.plant import ThermalPlant, PlantParams
from repro.thermal.pid import PidController, PidGains
from repro.thermal.relay import SolidStateRelay
from repro.thermal.sensors import Thermocouple, SpdSensor
from repro.thermal.testbed import ThermalTestbed, ZoneConfig, ZoneReport

__all__ = [
    "MonitorParams",
    "PidController",
    "PidGains",
    "PlantParams",
    "SolidStateRelay",
    "SpdSensor",
    "ThermalFault",
    "ThermalPlant",
    "ThermalTestbed",
    "Thermocouple",
    "ZoneBinding",
    "ZoneConfig",
    "ZoneFaultState",
    "ZoneMonitor",
    "ZoneQuarantine",
    "ZoneReport",
    "settle_time",
]
