"""In-loop fault detection for the thermal testbed.

The paper's retention numbers are only meaningful because every rank
held within 1 degC of setpoint -- so the controller must *know* when it
no longer does. A :class:`ZoneMonitor` sits between the sensors and the
PID loop of one zone and owns the zone's temperature belief without ever
touching the plant's ground truth:

- **residual voting**: the thermocouple is fast but mounted element-side
  (biased); the SPD/TSOD is the die-side absolute reference. The monitor
  calibrates the thermocouple against the SPD online (a clamped EMA of
  their residual) and, when the two disagree beyond the residual limit,
  votes for the SPD unless the SPD itself just moved implausibly fast;
- **rate-of-change plausibility**: the plant physically cannot move
  faster than ``(heater_max + self_heating) / C`` degC/s -- a sensor
  that jumps faster than that (with margin) is struck;
- **per-zone degradation**: a sensor that accumulates ``strike_limit``
  consecutive strikes is failed and control degrades to the surviving
  sensor; a failed sensor that re-agrees for the same streak is
  rehabilitated (a transient dropout recovers cleanly);
- **hard safe-state**: runaway (belief beyond the runaway margin or the
  absolute rig limit), blindness (no plausible sensor for
  ``blind_limit`` ticks), irreconcilable sensor conflict, or a zone that
  saturates its heater yet cannot approach setpoint, all trip a
  quarantine -- the testbed cuts the heater and the zone is reported as
  a typed :class:`ZoneQuarantine`, never as a silent wrong temperature.

Out-of-band windows are recorded against the *belief* so the DRAM
campaign drivers can gate measurement validity on them
(:mod:`repro.experiments.table1_weak_cells`,
:mod:`repro.experiments.fig8a_ber`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.thermal.plant import PlantParams

#: Zone regulation statuses reported by :attr:`ZoneMonitor.status`.
ZONE_OK = "ok"
ZONE_DEGRADED_SPD = "degraded-spd-only"   #: thermocouple failed, SPD survives
ZONE_DEGRADED_TC = "degraded-tc-only"     #: SPD failed, thermocouple survives
ZONE_QUARANTINED = "quarantined"

#: Quarantine kinds (the thermal analogue of the supervisor taxonomy).
THERMAL_RUNAWAY = "thermal-runaway"
SENSOR_LOSS = "sensor-loss"
SENSOR_CONFLICT = "sensor-conflict"
HEATER_FAILURE = "heater-failure"
REGULATION_TIMEOUT = "regulation-timeout"


@dataclass(frozen=True)
class ZoneQuarantine:
    """One quarantined thermal zone, as a typed record (not a log line).

    Mirrors the :class:`repro.core.supervisor.UnitFailure` contract so
    pipeline summaries can enumerate thermal quarantines exactly like
    supervised-execution ones.
    """

    zone: int               #: testbed zone index (one DIMM rank)
    kind: str               #: one of the quarantine kinds above
    time_s: float           #: virtual time the safe-state tripped
    detail: str = ""        #: human-readable cause

    def describe(self) -> str:
        """Render the record the way pipeline summaries expect."""
        text = f"zone {self.zone}: {self.kind} at t={self.time_s:.0f}s"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class MonitorParams:
    """Detection thresholds of one :class:`ZoneMonitor`.

    Defaults are sized against the default rig: thermocouple noise
    0.08 degC / bias spec 0.3 degC, SPD quantization 0.25 degC, plant
    slew under 1.4 degC/s.
    """

    bias_spec_c: float = 0.3        #: datasheet thermocouple mounting bias
    bias_clamp_c: float = 0.5       #: max online bias correction vs spec
    bias_gain: float = 0.05         #: EMA gain of the online calibration
    tc_weight: float = 0.8          #: thermocouple share of the fusion
    disagree_limit_c: float = 1.0   #: residual that forces a vote
    rate_limit_c_per_s: Optional[float] = None  #: None: derive from plant
    rate_slack_c: float = 0.75      #: additive slack on the rate check
    strike_limit: int = 3           #: consecutive strikes that fail a sensor
    blind_limit: int = 5            #: sensorless ticks before quarantine
    band_c: float = 1.0             #: the paper's regulation band
    runaway_margin_c: float = 12.0  #: belief above setpoint that trips
    absolute_max_c: float = 110.0   #: rig hard limit
    unreachable_after_s: float = 180.0  #: saturated-but-cold time to trip
    low_band_c: float = 3.0         #: how far below setpoint counts as cold

    def __post_init__(self) -> None:
        if min(self.bias_clamp_c, self.bias_gain, self.disagree_limit_c,
               self.rate_slack_c, self.band_c, self.runaway_margin_c,
               self.unreachable_after_s, self.low_band_c) <= 0:
            raise ConfigurationError("monitor thresholds must be positive")
        if not 0.0 <= self.tc_weight <= 1.0:
            raise ConfigurationError("tc_weight must be within [0, 1]")
        if self.strike_limit < 1 or self.blind_limit < 1:
            raise ConfigurationError("strike/blind limits must be >= 1")
        if (self.rate_limit_c_per_s is not None
                and self.rate_limit_c_per_s <= 0):
            raise ConfigurationError("rate limit must be positive")


class ZoneMonitor:
    """Sensor fusion, fault detection and safe-state of one zone."""

    def __init__(self, zone: int, setpoint_c: float,
                 plant: PlantParams = PlantParams(),
                 ambient_c: float = 28.0,
                 params: MonitorParams = MonitorParams()) -> None:
        self.zone = zone
        self.setpoint_c = setpoint_c
        self.params = params
        self.rate_limit_c_per_s = (
            params.rate_limit_c_per_s if params.rate_limit_c_per_s is not None
            else 1.5 * (plant.heater_max_w + plant.self_heating_w)
            / plant.thermal_capacitance_j_per_c)
        self.estimate_c = ambient_c     #: current temperature belief
        self.bias_hat_c = params.bias_spec_c
        self.tc_failed = False
        self.spd_failed = False
        self.quarantine: Optional[ZoneQuarantine] = None
        self.out_of_band_windows: List[Tuple[float, float]] = []
        self._tc_strikes = 0
        self._spd_strikes = 0
        self._agree_streak = 0
        self._blind_ticks = 0
        self._last_tc_c: Optional[float] = None
        self._last_spd_c: Optional[float] = None
        self._in_band_since: Optional[float] = None
        self._oob_since: Optional[float] = 0.0
        self._cold_saturated_s = 0.0

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """The zone's regulation status string."""
        if self.quarantine is not None:
            return ZONE_QUARANTINED
        if self.tc_failed:
            return ZONE_DEGRADED_SPD
        if self.spd_failed:
            return ZONE_DEGRADED_TC
        return ZONE_OK

    def in_band_duration_s(self, now_s: float) -> float:
        """How long the belief has been continuously in band."""
        if self._in_band_since is None:
            return 0.0
        return now_s - self._in_band_since

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def retarget(self, setpoint_c: float, now_s: float) -> None:
        """Reset regulation telemetry for a new setpoint.

        Sensor health, calibration and any quarantine are physical state
        and survive the retarget; the band bookkeeping restarts so
        settle/validity telemetry is measured from the retarget instant.
        """
        self.setpoint_c = setpoint_c
        self.out_of_band_windows = []
        self._in_band_since = None
        self._oob_since = now_s
        self._cold_saturated_s = 0.0

    def force_quarantine(self, kind: str, now_s: float,
                         detail: str = "") -> ZoneQuarantine:
        """Quarantine the zone from outside the loop (e.g. the driver's
        re-regulation budget ran out); idempotent once tripped."""
        if self.quarantine is None:
            self._trip(kind, now_s, detail)
        return self.quarantine

    def _trip(self, kind: str, now_s: float, detail: str) -> None:
        self.quarantine = ZoneQuarantine(zone=self.zone, kind=kind,
                                         time_s=now_s, detail=detail)
        if self._in_band_since is not None:
            self._in_band_since = None
            self._oob_since = now_s

    # ------------------------------------------------------------------
    # The per-tick observation
    # ------------------------------------------------------------------
    def _plausible(self, value: Optional[float], last: Optional[float],
                   dt_s: float) -> bool:
        if value is None:
            return False
        if last is None:
            return True
        limit = self.rate_limit_c_per_s * dt_s + self.params.rate_slack_c
        return abs(value - last) <= limit

    def _strike_tc(self) -> None:
        self._tc_strikes += 1
        if self._tc_strikes >= self.params.strike_limit:
            self.tc_failed = True

    def _strike_spd(self) -> None:
        self._spd_strikes += 1
        if self._spd_strikes >= self.params.strike_limit:
            self.spd_failed = True

    def _fuse(self, tc_c: Optional[float], spd_c: Optional[float],
              dt_s: float) -> Optional[float]:
        """One voting round; returns the fused belief or None (blind)."""
        p = self.params
        tc_plausible = self._plausible(tc_c, self._last_tc_c, dt_s)
        spd_plausible = self._plausible(spd_c, self._last_spd_c, dt_s)
        if tc_c is not None:
            self._last_tc_c = tc_c
        if spd_c is not None:
            self._last_spd_c = spd_c
        tc_est = tc_c - self.bias_hat_c if tc_c is not None else None

        if tc_c is not None and spd_c is not None:
            residual = tc_est - spd_c
            if abs(residual) <= p.disagree_limit_c and tc_plausible \
                    and spd_plausible:
                # Healthy agreement: recalibrate, rehabilitate, fuse.
                self._tc_strikes = 0
                self._spd_strikes = 0
                if self.tc_failed or self.spd_failed:
                    self._agree_streak += 1
                    if self._agree_streak >= p.strike_limit:
                        self.tc_failed = self.spd_failed = False
                        self._agree_streak = 0
                if self.tc_failed:
                    return spd_c
                if self.spd_failed:
                    return tc_est
                raw_bias = self.bias_hat_c + p.bias_gain * (
                    (tc_c - spd_c) - self.bias_hat_c)
                lo = p.bias_spec_c - p.bias_clamp_c
                hi = p.bias_spec_c + p.bias_clamp_c
                self.bias_hat_c = min(hi, max(lo, raw_bias))
                tc_est = tc_c - self.bias_hat_c
                return p.tc_weight * tc_est + (1.0 - p.tc_weight) * spd_c
            # Disagreement (or an implausible jump): vote. The SPD is the
            # die-side absolute reference, so it wins unless it is the
            # one moving implausibly fast.
            self._agree_streak = 0
            if spd_plausible and not self.spd_failed:
                self._strike_tc()
                return spd_c
            if tc_plausible and not self.tc_failed:
                self._strike_spd()
                return tc_est
            self._strike_tc()
            self._strike_spd()
            return None
        self._agree_streak = 0
        if spd_c is not None:
            self._strike_tc()
            if spd_plausible and not self.spd_failed:
                return spd_c
            self._strike_spd()
            return None
        if tc_c is not None:
            self._strike_spd()
            if tc_plausible and not self.tc_failed:
                return tc_est
            self._strike_tc()
            return None
        # Both channels absent: blindness, not conflict. Absence is no
        # evidence of a lying sensor, so no strikes -- the blind-tick
        # counter owns this failure mode (sensor-loss).
        return None

    def observe(self, now_s: float, dt_s: float, tc_c: Optional[float],
                spd_c: Optional[float], duty: float) -> float:
        """Ingest one tick's sensor reads; returns the control belief.

        ``duty`` is the duty cycle commanded on the *previous* tick (the
        power whose effect this tick's reads reflect); it feeds the
        cannot-reach-setpoint detector. A quarantined zone keeps
        updating its belief from whatever sensor survives (telemetry
        stays honest) but its heater is already cut off by the testbed.
        """
        if self.quarantine is not None:
            reading = self._fuse(tc_c, spd_c, dt_s)
            if reading is not None:
                self.estimate_c = reading
            return self.estimate_c

        fused = self._fuse(tc_c, spd_c, dt_s)
        if fused is None:
            self._blind_ticks += 1
            fused = self.estimate_c  # hold the last belief while blind
        else:
            self._blind_ticks = 0
        self.estimate_c = fused

        p = self.params
        if self._blind_ticks >= p.blind_limit:
            self._trip(SENSOR_LOSS, now_s,
                       "no plausible sensor for "
                       f"{self._blind_ticks} consecutive ticks")
        elif self.tc_failed and self.spd_failed:
            self._trip(SENSOR_CONFLICT, now_s,
                       "thermocouple and SPD disagree irreconcilably")
        elif self.estimate_c >= min(p.absolute_max_c,
                                    self.setpoint_c + p.runaway_margin_c):
            self._trip(THERMAL_RUNAWAY, now_s,
                       f"belief {self.estimate_c:.1f} degC beyond the "
                       f"runaway limit for setpoint {self.setpoint_c:.0f}")
        else:
            if duty >= 0.99 and self.estimate_c < self.setpoint_c \
                    - p.low_band_c:
                self._cold_saturated_s += dt_s
                if self._cold_saturated_s >= p.unreachable_after_s:
                    self._trip(HEATER_FAILURE, now_s,
                               "heater saturated for "
                               f"{self._cold_saturated_s:.0f}s without "
                               "approaching setpoint")
            else:
                self._cold_saturated_s = 0.0

        self._track_band(now_s)
        return self.estimate_c

    def _track_band(self, now_s: float) -> None:
        in_band = (self.quarantine is None
                   and abs(self.estimate_c - self.setpoint_c)
                   < self.params.band_c)
        if in_band and self._in_band_since is None:
            self._in_band_since = now_s
            if self._oob_since is not None:
                self.out_of_band_windows.append((self._oob_since, now_s))
            self._oob_since = None
        elif not in_band and self._in_band_since is not None:
            self._in_band_since = None
            self._oob_since = now_s


def settle_time(times_s: List[float], samples_c: List[float],
                setpoint_c: float, origin_s: float = 0.0,
                band_c: float = 1.0) -> Optional[float]:
    """Time (from ``origin_s``) the trace enters the band for good.

    Single reverse pass (O(n)): walk back from the final sample until
    the first out-of-band one; the settle instant is the sample after
    it. Covers both edges the old quadratic scan mishandled: a run that
    settles exactly at the final sample settles *then*, and a run whose
    final sample is out of band never settled (returns ``None``).
    """
    settle_idx: Optional[int] = None
    for idx in range(len(samples_c) - 1, -1, -1):
        if abs(samples_c[idx] - setpoint_c) >= band_c:
            break
        settle_idx = idx
    if settle_idx is None:
        return None
    return times_s[settle_idx] - origin_s


__all__ = [
    "HEATER_FAILURE",
    "MonitorParams",
    "REGULATION_TIMEOUT",
    "SENSOR_CONFLICT",
    "SENSOR_LOSS",
    "THERMAL_RUNAWAY",
    "ZONE_DEGRADED_SPD",
    "ZONE_DEGRADED_TC",
    "ZONE_OK",
    "ZONE_QUARANTINED",
    "ZoneMonitor",
    "ZoneQuarantine",
    "settle_time",
]
