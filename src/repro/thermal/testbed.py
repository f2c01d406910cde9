"""The eight-zone thermal testbed controller board.

Glues plants, sensors, PID loops and relays into the rig of paper
Figure 3: one zone per DIMM rank (4 DIMMs x 2 ranks = 8 zones), a shared
fixed-period control tick, and per-zone regulation telemetry. The
acceptance property -- steady-state deviation below 1 degC -- is
validated by ``tests/test_thermal_testbed.py``.

The control path is fault-tolerant: each zone's PID acts on the fused
belief of a :class:`~repro.thermal.monitor.ZoneMonitor` (thermocouple/SPD
residual voting plus rate plausibility -- never the plant's ground
truth), scheduled rig faults lens the sensor reads and actuator commands
through each zone's :class:`~repro.thermal.faults.ZoneFaultState`, and a
zone whose monitor trips its safe-state gets its heater cut and is
reported as a typed :class:`~repro.thermal.monitor.ZoneQuarantine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.faults import ThermalFault
from repro.errors import ConfigurationError
from repro.rand import SeedLike
from repro.thermal.monitor import (
    MonitorParams,
    ZoneMonitor,
    ZoneQuarantine,
    settle_time,
)
from repro.thermal.faults import ZoneFaultState
from repro.thermal.pid import PidController, PidGains
from repro.thermal.plant import PlantParams, ThermalPlant
from repro.thermal.relay import SolidStateRelay
from repro.thermal.sensors import SpdSensor, Thermocouple

NUM_ZONES = 8


@dataclass(frozen=True)
class ZoneConfig:
    """Configuration of one heated zone (one DIMM rank)."""

    setpoint_c: float
    plant: PlantParams = PlantParams()
    gains: PidGains = PidGains()

    def __post_init__(self) -> None:
        if not 20.0 <= self.setpoint_c <= 110.0:
            raise ConfigurationError(
                f"setpoint {self.setpoint_c} degC outside the rig's 20..110 range"
            )


@dataclass
class ZoneReport:
    """Regulation telemetry for one zone after a run.

    ``samples`` is the plant's true trajectory (the simulator's
    validation channel); ``status`` and the validity fields come from
    the controller's own belief -- the only view a real rig has.
    """

    zone: int
    setpoint_c: float
    final_c: float
    max_abs_error_steady_c: float
    settle_time_s: Optional[float]
    samples: List[float] = field(default_factory=list)
    status: str = "ok"
    measurement_valid: bool = True
    quarantine: Optional[ZoneQuarantine] = None
    out_of_band_windows: Tuple[Tuple[float, float], ...] = ()

    @property
    def within_one_degree(self) -> bool:
        """The paper's spec: steady-state deviation < 1 degC."""
        return self.max_abs_error_steady_c < 1.0


class ThermalTestbed:
    """The controller board: 8 PID zones on one control tick.

    Parameters
    ----------
    configs:
        One :class:`ZoneConfig` per zone (up to 8).
    control_period_s:
        PID tick period (the Raspberry Pi loop rate).
    ambient_c:
        Lab ambient temperature.
    seed:
        Seed for sensor noise streams.
    faults:
        Scheduled :class:`~repro.core.faults.ThermalFault` records (a
        plan's ``thermal_faults``); faults on zones beyond ``configs``
        are ignored. The testbed keeps no fault counter of its own: what
        the faults did shows in each zone's :class:`ZoneReport` (its
        status, validity, out-of-band windows and quarantine).
    monitor_params:
        Detection thresholds shared by every zone's monitor.
    """

    def __init__(self, configs: List[ZoneConfig], control_period_s: float = 2.0,
                 ambient_c: float = 28.0, seed: SeedLike = None,
                 faults: Sequence[ThermalFault] = (),
                 monitor_params: MonitorParams = MonitorParams()) -> None:
        if not 1 <= len(configs) <= NUM_ZONES:
            raise ConfigurationError(f"1..{NUM_ZONES} zones supported")
        if control_period_s <= 0:
            raise ConfigurationError("control period must be positive")
        self.now = 0.0
        self.control_period_s = control_period_s
        self.configs = list(configs)
        by_zone: Dict[int, List[ThermalFault]] = {}
        for fault in faults:
            by_zone.setdefault(fault.zone, []).append(fault)
        self._fault_states = [
            ZoneFaultState(i, by_zone[i]) if i in by_zone else None
            for i in range(len(configs))
        ]
        self.plants = [ThermalPlant(cfg.plant, ambient_c=ambient_c) for cfg in configs]
        self.pids = [PidController(cfg.setpoint_c, cfg.gains) for cfg in configs]
        self.relays = [SolidStateRelay(max_power_w=cfg.plant.heater_max_w)
                       for cfg in configs]
        self.thermocouples = [
            Thermocouple(source=plant_reader(p), seed=seed, zone=i)
            for i, p in enumerate(self.plants)
        ]
        self.spd_sensors = [SpdSensor(source=plant_reader(p)) for p in self.plants]
        self.monitors = [
            ZoneMonitor(zone=i, setpoint_c=cfg.setpoint_c, plant=cfg.plant,
                        ambient_c=ambient_c, params=monitor_params)
            for i, cfg in enumerate(configs)
        ]
        self._base_ambient_c = ambient_c
        self._history: List[List[float]] = [[] for _ in configs]
        self._times: List[List[float]] = [[] for _ in configs]
        self._origin_s: List[float] = [0.0 for _ in configs]
        self._last_duty: List[float] = [0.0 for _ in configs]

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _run_zone(self, zone: int, start: float, period: float,
                  ticks: int) -> None:
        """Tick one zone ``ticks`` times from ``start``, one period each.

        Zones share no state, so running each through the whole window
        in turn gives every zone the same trajectory as ticking all
        zones once per period.
        """
        plant = self.plants[zone]
        state = self._fault_states[zone]
        thermocouple = self.thermocouples[zone]
        spd_sensor = self.spd_sensors[zone]
        monitor = self.monitors[zone]
        pid = self.pids[zone]
        relay = self.relays[zone]
        history = self._history[zone]
        times = self._times[zone]
        duty = self._last_duty[zone]
        thermocouple.reserve(ticks)
        for k in range(1, ticks + 1):
            now = start + k * period
            if state is not None:
                plant.ambient_c = self._base_ambient_c \
                    + state.ambient_offset_c(now)
            plant.step(period)
            # The controller sees only what the channels report -- raw
            # sensor reads lensed through any active rig faults, fused by
            # the zone monitor. Plant internals (true bias, temperature)
            # are off-limits to the control path.
            tc = thermocouple.read_c()
            spd = spd_sensor.read_c(now)
            if state is not None:
                tc = state.thermocouple_reading(tc, now)
                spd = state.spd_reading(spd, now)
            fused = monitor.observe(now, period, tc, spd, duty)
            if monitor.quarantine is not None:
                duty = 0.0  # hard safe-state: heater cutoff
            else:
                duty = pid.update(fused, period)
            power = relay.command(duty)
            if state is not None:
                power = state.delivered_power_w(power, now, relay.max_power_w)
            plant.set_heater(power)
            history.append(plant.temperature_c)
            times.append(now)
        self._last_duty[zone] = duty

    def run(self, duration_s: float) -> List[ZoneReport]:
        """Regulate for ``duration_s`` of virtual time; return reports.

        Every zone ticks at ``start + k * control_period_s`` for ``k = 1
        .. floor(duration_s / control_period_s)``, each one period long,
        and the clock then stands at ``start + duration_s``; so windows
        of whole periods tile (``run(400)`` then ``run(500)`` ticks
        exactly as ``run(900)``) and a window shorter than a period
        ticks none. Each zone runs through the whole window before the
        next one starts.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        start, period = self.now, self.control_period_s
        ticks = int(duration_s // period)
        for zone in range(len(self.configs)):
            self._run_zone(zone, start, period, ticks)
        self.now = start + duration_s
        return [self._report(i) for i in range(len(self.configs))]

    def set_setpoint(self, zone: int, setpoint_c: float) -> None:
        """Retarget one zone mid-experiment (50 -> 60 degC sweeps).

        Resets the zone's full regulation state -- PID integrator,
        monitor band bookkeeping and settle telemetry all restart from
        the retarget instant, so the second leg of a sweep neither
        inherits windup nor mis-reports its settle time.
        """
        if not 0 <= zone < len(self.configs):
            raise ConfigurationError(f"zone {zone} out of range")
        self.pids[zone].set_setpoint(setpoint_c)
        self.monitors[zone].retarget(setpoint_c, self.now)
        self.configs[zone] = ZoneConfig(
            setpoint_c=setpoint_c,
            plant=self.configs[zone].plant,
            gains=self.configs[zone].gains,
        )
        self._history[zone].clear()
        self._times[zone].clear()
        self._origin_s[zone] = self.now

    def zone_measurement_valid(self, zone: int) -> bool:
        """Whether a retention measurement taken *now* would be valid.

        Valid means: not quarantined, currently in band, and in band for
        at least the last third of the window since the zone was last
        retargeted -- the same steady-state window the paper's 1 degC
        spec is stated over.
        """
        monitor = self.monitors[zone]
        if monitor.quarantine is not None:
            return False
        window = self.now - self._origin_s[zone]
        if window <= 0:
            return False
        return monitor.in_band_duration_s(self.now) >= window / 3.0

    def quarantine_zone(self, zone: int, kind: str,
                        detail: str = "") -> ZoneQuarantine:
        """Force a zone into the safe-state from outside the loop.

        Used by campaign drivers when a zone exhausts its re-regulation
        budget; the heater is cut immediately.
        """
        if not 0 <= zone < len(self.configs):
            raise ConfigurationError(f"zone {zone} out of range")
        record = self.monitors[zone].force_quarantine(
            kind, self.now, detail)
        self._last_duty[zone] = 0.0
        self.relays[zone].command(0.0)
        self.plants[zone].set_heater(0.0)
        return record

    def zone_quarantines(self) -> Tuple[ZoneQuarantine, ...]:
        """All quarantined zones' typed records, ascending by zone."""
        return tuple(m.quarantine for m in self.monitors
                     if m.quarantine is not None)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, zone: int) -> ZoneReport:
        history = self._history[zone]
        times = self._times[zone]
        monitor = self.monitors[zone]
        setpoint = self.pids[zone].setpoint_c
        # Steady-state window: the last third of the run.
        steady = history[len(history) * 2 // 3:] if history else []
        max_err = max((abs(t - setpoint) for t in steady), default=float("inf"))
        settle = settle_time(times, history, setpoint,
                             origin_s=self._origin_s[zone])
        return ZoneReport(
            zone=zone,
            setpoint_c=setpoint,
            final_c=self.plants[zone].temperature_c,
            max_abs_error_steady_c=max_err,
            settle_time_s=settle,
            samples=list(history),
            status=monitor.status,
            measurement_valid=self.zone_measurement_valid(zone),
            quarantine=monitor.quarantine,
            out_of_band_windows=tuple(monitor.out_of_band_windows),
        )


def plant_reader(plant: ThermalPlant):
    """A zero-argument reader bound to one plant's temperature."""
    return lambda: plant.temperature_c
