"""Fault-tolerant thermal regulation: faults, detection, validity gating.

The acceptance properties, mirroring ``tests/test_supervisor.py``:

- the controller never reads the plant's ground truth -- regulation runs
  entirely on the monitor's fused sensor belief;
- a recoverable rig-fault schedule (stuck/drifting/dropout
  thermocouples, SPD timeouts, ambient steps) is detected in-loop, the
  zone degrades to the surviving sensor, and the campaign rows converge
  bit-identical to the clean run at any worker count;
- an unrecoverable fault (welded relay, dead heater, blind zone) trips
  the hard safe-state and surfaces as a typed :class:`ZoneQuarantine`
  record -- never a silently wrong temperature.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import (
    AMBIENT_STEP,
    HEATER_FAILED,
    RELAY_STUCK_OPEN,
    RELAY_WELDED_ON,
    SPD_TIMEOUT,
    TC_DRIFT,
    TC_DROPOUT,
    TC_STUCK,
    THERMAL_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ThermalFault,
    thermal_faults_recoverable,
)
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import CampaignError
from repro.experiments.common import RunOptions
from repro.experiments.fig8a_ber import run_figure8a
from repro.experiments.table1_weak_cells import run_table1
from repro.thermal.faults import ZoneFaultState
from repro.thermal.monitor import (
    HEATER_FAILURE,
    SENSOR_LOSS,
    THERMAL_RUNAWAY,
    ZONE_DEGRADED_SPD,
    ZONE_DEGRADED_TC,
    ZONE_OK,
    ZONE_QUARANTINED,
    settle_time,
)
from repro.thermal.testbed import ThermalTestbed, ZoneConfig

SEED = 11


def _bed(faults=(), zones=1, setpoint_c=50.0, seed=SEED):
    return ThermalTestbed(
        [ZoneConfig(setpoint_c=setpoint_c) for _ in range(zones)],
        seed=seed, faults=faults)


# ----------------------------------------------------------------------
# Fault model (core/faults.py)
# ----------------------------------------------------------------------
def test_thermal_fault_validation():
    with pytest.raises(CampaignError):
        ThermalFault(zone=-1, kind=TC_STUCK, start_s=0.0)
    with pytest.raises(CampaignError):
        ThermalFault(zone=0, kind="tc-exploded", start_s=0.0)
    with pytest.raises(CampaignError):
        ThermalFault(zone=0, kind=TC_STUCK, start_s=-1.0)
    with pytest.raises(CampaignError):
        ThermalFault(zone=0, kind=TC_STUCK, start_s=0.0, duration_s=0.0)
    with pytest.raises(CampaignError):
        ThermalFault(zone=0, kind=TC_DRIFT, start_s=0.0)  # needs magnitude
    with pytest.raises(CampaignError):
        ThermalFault(zone=0, kind=AMBIENT_STEP, start_s=0.0)


def test_thermal_fault_window_and_overlap():
    fault = ThermalFault(zone=0, kind=TC_STUCK, start_s=100.0,
                         duration_s=50.0)
    assert not fault.active(99.9)
    assert fault.active(100.0) and fault.active(149.9)
    assert not fault.active(150.0)
    permanent = ThermalFault(zone=0, kind=HEATER_FAILED, start_s=120.0)
    assert permanent.end_s == float("inf") and permanent.active(1e9)
    assert fault.overlaps(permanent) and permanent.overlaps(fault)
    later = ThermalFault(zone=0, kind=SPD_TIMEOUT, start_s=150.0,
                         duration_s=10.0)
    assert not fault.overlaps(later)


def test_recoverability_taxonomy():
    drift = ThermalFault(zone=0, kind=TC_DRIFT, start_s=10.0,
                         duration_s=30.0, magnitude=0.05)
    assert drift.recoverable
    welded = ThermalFault(zone=1, kind=RELAY_WELDED_ON, start_s=10.0)
    assert not welded.recoverable
    assert thermal_faults_recoverable([drift])
    assert not thermal_faults_recoverable([drift, welded])
    # Overlapping TC and SPD faults blind the zone: unrecoverable.
    spd = ThermalFault(zone=0, kind=SPD_TIMEOUT, start_s=20.0,
                       duration_s=30.0)
    assert not thermal_faults_recoverable([drift, spd])
    spd_other_zone = ThermalFault(zone=2, kind=SPD_TIMEOUT, start_s=20.0,
                                  duration_s=30.0)
    assert thermal_faults_recoverable([drift, spd_other_zone])


def test_random_thermal_plan_deterministic_and_bounded():
    a = FaultPlan.random_thermal(3, zones=8)
    b = FaultPlan.random_thermal(3, zones=8)
    assert a.thermal_faults == b.thermal_faults
    assert all(f.zone < 8 for f in a.thermal_faults)
    assert all(f.kind in THERMAL_FAULT_KINDS for f in a.thermal_faults)
    # At most one fault per zone and zero unrecoverable rate: recoverable.
    assert a.thermal_recoverable
    assert FaultPlan.random_thermal(4).thermal_faults \
        != FaultPlan.random_thermal(5).thermal_faults


def test_random_thermal_unrecoverable_rate():
    plan = FaultPlan.random_thermal(0, zones=8, fault_rate=1.0,
                                    unrecoverable_rate=1.0)
    assert plan.thermal_faults and not plan.thermal_recoverable
    assert all(f.duration_s is None for f in plan.thermal_faults)


def test_fault_plan_rejects_non_thermal_fault_entries():
    with pytest.raises(CampaignError):
        FaultPlan(thermal_faults=("tc-stuck",))


# ----------------------------------------------------------------------
# Fault application (thermal/faults.py)
# ----------------------------------------------------------------------
def test_zone_fault_state_sensor_lenses():
    state = ZoneFaultState(0, [
        ThermalFault(zone=0, kind=TC_STUCK, start_s=10.0, duration_s=10.0),
        ThermalFault(zone=0, kind=TC_DRIFT, start_s=40.0, duration_s=10.0,
                     magnitude=0.1),
        ThermalFault(zone=0, kind=TC_DROPOUT, start_s=60.0, duration_s=5.0),
        ThermalFault(zone=0, kind=SPD_TIMEOUT, start_s=70.0, duration_s=5.0),
    ])
    assert state.thermocouple_reading(50.0, 0.0) == 50.0
    assert state.thermocouple_reading(51.0, 10.0) == 51.0  # capture
    assert state.thermocouple_reading(55.0, 15.0) == 51.0  # stuck
    assert state.thermocouple_reading(55.0, 25.0) == 55.0  # recovered
    assert state.thermocouple_reading(50.0, 45.0) == pytest.approx(50.5)
    assert state.thermocouple_reading(50.0, 62.0) is None
    assert state.spd_reading(50.0, 72.0) is None
    assert state.spd_reading(50.0, 80.0) == 50.0


def test_zone_fault_state_actuator_lenses():
    state = ZoneFaultState(1, [
        ThermalFault(zone=1, kind=RELAY_WELDED_ON, start_s=10.0,
                     duration_s=10.0),
        ThermalFault(zone=1, kind=RELAY_STUCK_OPEN, start_s=30.0,
                     duration_s=10.0),
        ThermalFault(zone=1, kind=HEATER_FAILED, start_s=50.0),
        ThermalFault(zone=1, kind=AMBIENT_STEP, start_s=0.0,
                     duration_s=20.0, magnitude=5.0),
    ])
    assert state.delivered_power_w(10.0, 0.0, 40.0) == 10.0
    assert state.delivered_power_w(10.0, 15.0, 40.0) == 40.0  # welded on
    assert state.delivered_power_w(10.0, 35.0, 40.0) == 0.0   # stuck open
    assert state.delivered_power_w(40.0, 60.0, 40.0) == 0.0   # dead element
    assert state.ambient_offset_c(5.0) == 5.0
    assert state.ambient_offset_c(25.0) == 0.0


def test_zone_fault_state_rejects_foreign_zone():
    with pytest.raises(CampaignError):
        ZoneFaultState(0, [ThermalFault(zone=1, kind=TC_STUCK, start_s=0.0)])


# ----------------------------------------------------------------------
# The controller never reads plant ground truth
# ----------------------------------------------------------------------
def test_tick_does_not_read_plant_ground_truth():
    source = inspect.getsource(ThermalTestbed._run_zone)
    assert "bias_c" not in source
    # The only temperature feeding the PID is the monitor's belief.
    assert "monitor.observe" in source


# ----------------------------------------------------------------------
# In-loop detection and degradation
# ----------------------------------------------------------------------
def test_clean_regulation_is_valid_and_ok():
    bed = _bed()
    report = bed.run(900.0)[0]
    assert report.status == ZONE_OK
    assert report.measurement_valid
    assert report.within_one_degree
    assert bed.zone_measurement_valid(0)
    assert abs(bed.monitors[0].estimate_c - bed.plants[0].temperature_c) < 1.0


def test_stuck_thermocouple_is_voted_out_and_rehabilitated():
    # Stick the thermocouple during warm-up, where its frozen reading
    # diverges from the die temperature. (A sensor stuck at steady state
    # is indistinguishable from a healthy one -- and harmless -- until
    # the temperature moves.)
    fault = ThermalFault(zone=0, kind=TC_STUCK, start_s=10.0,
                         duration_s=120.0)
    bed = _bed(faults=[fault])
    bed.run(100.0)
    # Mid-fault: residual voting sides with the SPD; zone degrades but
    # regulation holds on the surviving sensor.
    assert bed.monitors[0].status == ZONE_DEGRADED_SPD
    report = bed.run(800.0)[0]
    assert bed.monitors[0].status == ZONE_OK  # rehabilitated after recovery
    assert report.quarantine is None
    assert report.measurement_valid
    assert abs(bed.plants[0].temperature_c - 50.0) < 1.0


def test_drifting_thermocouple_keeps_truth_in_band():
    fault = ThermalFault(zone=0, kind=TC_DRIFT, start_s=300.0,
                         duration_s=150.0, magnitude=0.05)
    bed = _bed(faults=[fault])
    report = bed.run(900.0)[0]
    assert report.quarantine is None
    # The drift is caught before it can steer the plant out of spec.
    assert abs(bed.plants[0].temperature_c - 50.0) < 1.0
    assert report.measurement_valid


def test_spd_timeout_degrades_to_thermocouple():
    fault = ThermalFault(zone=0, kind=SPD_TIMEOUT, start_s=300.0,
                         duration_s=100.0)
    bed = _bed(faults=[fault])
    bed.run(350.0)
    assert bed.monitors[0].status == ZONE_DEGRADED_TC
    report = bed.run(550.0)[0]
    assert bed.monitors[0].status == ZONE_OK
    assert report.measurement_valid


def test_blind_zone_trips_sensor_loss_quarantine():
    faults = [
        ThermalFault(zone=0, kind=TC_DROPOUT, start_s=300.0,
                     duration_s=120.0),
        ThermalFault(zone=0, kind=SPD_TIMEOUT, start_s=300.0,
                     duration_s=120.0),
    ]
    bed = _bed(faults=faults)
    report = bed.run(900.0)[0]
    assert report.status == ZONE_QUARANTINED
    assert report.quarantine.kind == SENSOR_LOSS
    assert not report.measurement_valid


def test_welded_relay_trips_runaway_quarantine():
    fault = ThermalFault(zone=0, kind=RELAY_WELDED_ON, start_s=300.0)
    bed = _bed(faults=[fault])
    report = bed.run(900.0)[0]
    assert report.quarantine is not None
    assert report.quarantine.kind == THERMAL_RUNAWAY
    assert not report.measurement_valid
    assert "zone 0" in report.quarantine.describe()


def test_dead_heater_trips_heater_failure_quarantine():
    fault = ThermalFault(zone=0, kind=HEATER_FAILED, start_s=300.0)
    bed = _bed(faults=[fault])
    report = bed.run(900.0)[0]
    assert report.quarantine is not None
    assert report.quarantine.kind == HEATER_FAILURE
    assert not report.measurement_valid


def test_ambient_step_recovers_in_band():
    fault = ThermalFault(zone=0, kind=AMBIENT_STEP, start_s=300.0,
                         duration_s=150.0, magnitude=6.0)
    bed = _bed(faults=[fault])
    report = bed.run(1800.0)[0]
    assert report.quarantine is None
    assert abs(bed.plants[0].temperature_c - 50.0) < 1.0
    assert report.measurement_valid


def test_faults_only_touch_their_zone():
    fault = ThermalFault(zone=0, kind=RELAY_WELDED_ON, start_s=200.0)
    bed = _bed(faults=[fault], zones=3)
    reports = bed.run(900.0)
    assert reports[0].status == ZONE_QUARANTINED
    for report in reports[1:]:
        assert report.status == ZONE_OK
        assert report.measurement_valid
    assert [q.zone for q in bed.zone_quarantines()] == [0]


def test_faulted_regulation_is_deterministic():
    faults = FaultPlan.random_thermal(9, zones=4).thermal_faults
    a = _bed(faults=faults, zones=4).run(900.0)
    b = _bed(faults=faults, zones=4).run(900.0)
    assert [r.samples for r in a] == [r.samples for r in b]
    assert [r.status for r in a] == [r.status for r in b]
    assert [r.out_of_band_windows for r in a] \
        == [r.out_of_band_windows for r in b]


def test_forced_quarantine_is_idempotent_and_cuts_heater():
    bed = _bed()
    bed.run(100.0)
    record = bed.quarantine_zone(0, "regulation-timeout", "budget spent")
    again = bed.quarantine_zone(0, "thermal-runaway", "later reason")
    assert again is record and record.kind == "regulation-timeout"
    assert bed.monitors[0].status == ZONE_QUARANTINED
    assert not bed.zone_measurement_valid(0)
    before = bed.plants[0].temperature_c
    bed.run(100.0)
    assert bed.plants[0].temperature_c < before   # heater cut: it cools


# ----------------------------------------------------------------------
# Satellites: settle-time pass, retarget reset
# ----------------------------------------------------------------------
def test_settle_time_single_pass_edges():
    times = [0.0, 2.0, 4.0, 6.0]
    assert settle_time(times, [10.0, 10.0, 10.0, 49.5], 50.0) == 6.0
    assert settle_time(times, [49.5, 50.2, 49.8, 49.9], 50.0) == 0.0
    assert settle_time(times, [49.5, 52.0, 49.8, 49.9], 50.0) == 4.0
    assert settle_time(times, [49.5, 49.8, 49.9, 52.0], 50.0) is None
    assert settle_time([], [], 50.0) is None
    assert settle_time([100.0, 102.0], [49.9, 50.1], 50.0,
                       origin_s=100.0) == 0.0


def test_retarget_restarts_settle_telemetry():
    bed = _bed()
    first = bed.run(900.0)[0]
    assert first.settle_time_s is not None
    bed.set_setpoint(0, 60.0)
    second = bed.run(900.0)[0]
    # Settle time is measured from the retarget instant, not t=0, and
    # the 50->60 leg cannot inherit the first leg's telemetry.
    assert second.setpoint_c == 60.0
    assert second.settle_time_s is not None
    assert 0.0 < second.settle_time_s < 900.0
    assert second.within_one_degree
    assert all(windows[0] >= 900.0
               for windows in second.out_of_band_windows)


# ----------------------------------------------------------------------
# Bounded fused error under any noise seed (hypothesis)
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fused_error_bounded_under_any_noise_seed(seed):
    bed = _bed(seed=seed)
    bed.run(400.0)
    truth = bed.plants[0].temperature_c
    assert bed.monitors[0].status == ZONE_OK
    assert abs(bed.monitors[0].estimate_c - truth) < 1.0


# ----------------------------------------------------------------------
# Measurement-validity gating through the campaign drivers
# ----------------------------------------------------------------------
def _rows(result):
    return (result.counts, result.per_chip_totals, result.scrubs)


@pytest.mark.slow
def test_table1_recoverable_faults_bit_identical_any_jobs():
    clean = run_table1(seed=SEED, sample_devices=12, regulate=True)
    assert clean.regulation_ok and not clean.thermal_quarantine
    for jobs in (1, 2):
        faulted = run_table1(seed=SEED, sample_devices=12,
                             options=RunOptions(faults=FaultSpec(thermal=0)),
                             jobs=jobs)
        assert FaultPlan.random_thermal(0).thermal_recoverable
        assert not faulted.thermal_quarantine
        assert not faulted.excluded_devices
        assert _rows(faulted) == _rows(clean)


@pytest.mark.slow
def test_table1_unrecoverable_zone_is_typed_quarantine():
    plan = FaultPlan.random_thermal(0, zones=8, fault_rate=1.0,
                                    unrecoverable_rate=1.0)
    results = [run_table1(seed=SEED, sample_devices=24,
                          options=RunOptions(faults=plan),
                          jobs=jobs) for jobs in (1, 2)]
    for result in results:
        assert result.thermal_quarantine
        assert not result.regulation_ok
        assert result.excluded_devices
        kinds = {q.kind for q in result.thermal_quarantine}
        assert kinds <= {THERMAL_RUNAWAY, HEATER_FAILURE, SENSOR_LOSS,
                         "sensor-conflict", "regulation-timeout"}
        text = result.format()
        assert "quarantined: zone" in text and "excluded" in text
    # Jobs-invariance of the quarantine verdict and the surviving rows.
    assert _rows(results[0]) == _rows(results[1])
    assert results[0].thermal_quarantine == results[1].thermal_quarantine
    assert results[0].excluded_devices == results[1].excluded_devices
    # Zone z heats rank z of the dimm-major rank order, so one dead
    # heater on zone 1 drops exactly the devices on dimm 0, rank 1.
    one = FaultPlan(thermal_faults=(
        ThermalFault(zone=1, kind=HEATER_FAILED, start_s=100.0),))
    result = run_table1(seed=SEED, sample_devices=24,
                        options=RunOptions(faults=one))
    assert [q.zone for q in result.thermal_quarantine] == [1]
    assert result.excluded_devices == tuple(
        d for d in range(24)
        if DEFAULT_GEOMETRY.device_location(d)[:2] == (0, 1))


def test_fig8a_recoverable_faults_bit_identical():
    clean = run_figure8a(seed=SEED)
    faulted = run_figure8a(
        seed=SEED, options=RunOptions(faults=FaultSpec(thermal=0)))
    assert faulted.valid and not faulted.thermal_quarantine
    assert faulted.pattern_ber == clean.pattern_ber
    assert faulted.workload_ber == clean.workload_ber


def test_fig8a_unrecoverable_zone_invalidates_result():
    plan = FaultPlan.random_thermal(0, zones=1, fault_rate=1.0,
                                    unrecoverable_rate=1.0)
    result = run_figure8a(seed=SEED, options=RunOptions(faults=plan))
    assert not result.valid
    assert result.thermal_quarantine
    assert not result.pattern_ber and not result.workload_ber
    assert not result.random_is_worst_pattern
    assert result.workload_variation == 0.0
    assert "MEASUREMENT INVALID" in result.format()


# ----------------------------------------------------------------------
# Seeded sweep (the CI thermal-stress job), mirroring the supervisor one
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_seeded_thermal_fault_sweep_converges_or_quarantines():
    clean = run_table1(seed=SEED, sample_devices=12, regulate=True)
    for fault_seed in range(8):
        plan = FaultPlan.random_thermal(fault_seed, zones=8,
                                        unrecoverable_rate=0.3)
        result = run_table1(seed=SEED, sample_devices=12,
                            options=RunOptions(faults=plan))
        if plan.thermal_recoverable:
            assert _rows(result) == _rows(clean), fault_seed
            assert not result.thermal_quarantine
        else:
            assert result.thermal_quarantine, fault_seed
            bad_kinds = {f.kind for f in plan.thermal_faults
                         if not f.recoverable}
            assert bad_kinds  # the plan really had an unrecoverable fault
        # Quarantine verdicts are jobs-invariant.
        sharded = run_table1(seed=SEED, sample_devices=12,
                             options=RunOptions(faults=plan), jobs=3)
        assert _rows(sharded) == _rows(result)
        assert sharded.thermal_quarantine == result.thermal_quarantine
