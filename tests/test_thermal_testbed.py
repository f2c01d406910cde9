"""The 8-zone testbed: the paper's <1 degC regulation property."""

import pytest

from repro.core.faults import FaultPlan
from repro.errors import ConfigurationError
from repro.experiments.common import REGULATION_S, regulate_to_setpoint
from repro.thermal.testbed import ThermalTestbed, ZoneConfig


def test_single_zone_settles_within_one_degree():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    reports = testbed.run(1200.0)
    assert reports[0].within_one_degree
    assert reports[0].final_c == pytest.approx(50.0, abs=1.0)


def test_both_paper_setpoints_regulate():
    for setpoint in (50.0, 60.0):
        testbed = ThermalTestbed([ZoneConfig(setpoint_c=setpoint)], seed=1)
        report = testbed.run(1200.0)[0]
        assert report.within_one_degree, f"setpoint {setpoint}"


def test_eight_zones_independent_setpoints():
    configs = [ZoneConfig(setpoint_c=50.0 + zone) for zone in range(8)]
    testbed = ThermalTestbed(configs, seed=1)
    reports = testbed.run(1500.0)
    assert len(reports) == 8
    for zone, report in enumerate(reports):
        assert report.within_one_degree, f"zone {zone}"
        assert report.final_c == pytest.approx(50.0 + zone, abs=1.0)


def test_zones_at_one_setpoint_read_their_own_noise():
    """Each zone's thermocouple draws from a stream keyed by its zone, so
    zones at equal setpoints do not follow one trajectory."""
    reports = ThermalTestbed([ZoneConfig(45.0)] * 8, seed=5).run(900)
    assert len({tuple(report.samples) for report in reports}) == 8


def test_setpoint_step_retargets():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    testbed.run(1000.0)
    testbed.set_setpoint(0, 60.0)
    report = testbed.run(1000.0)[0]
    assert report.setpoint_c == 60.0
    assert report.final_c == pytest.approx(60.0, abs=1.0)


def test_settle_time_reported():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    report = testbed.run(1500.0)[0]
    assert report.settle_time_s is not None
    assert 0.0 < report.settle_time_s < 1000.0


def test_zone_count_bounds():
    with pytest.raises(ConfigurationError):
        ThermalTestbed([])
    with pytest.raises(ConfigurationError):
        ThermalTestbed([ZoneConfig(setpoint_c=50.0)] * 9)


def test_setpoint_range_enforced():
    with pytest.raises(ConfigurationError):
        ZoneConfig(setpoint_c=150.0)


def test_invalid_zone_index():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    with pytest.raises(ConfigurationError):
        testbed.set_setpoint(3, 60.0)


def test_regulation_deterministic():
    a = ThermalTestbed([ZoneConfig(setpoint_c=55.0)], seed=9).run(800.0)[0]
    b = ThermalTestbed([ZoneConfig(setpoint_c=55.0)], seed=9).run(800.0)[0]
    assert a.final_c == b.final_c
    assert a.samples == b.samples


def _record_observes(testbed):
    """Wrap every zone monitor's bound ``observe``; return the call log.

    Each control tick observes every zone once, so the log holds one
    ``now`` per zone per tick.
    """
    log = []
    for monitor in testbed.monitors:
        def observe(now, *args, _observe=monitor.observe):
            log.append(now)
            return _observe(now, *args)
        monitor.observe = observe
    return log


def test_successive_windows_tick_once_per_period():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    ticks = _record_observes(testbed)
    for window in range(4):
        start = 100.0 * window
        ticks.clear()
        testbed.run(100.0)
        assert ticks == [start + 2.0 * k for k in range(1, 51)]
        assert testbed.now == start + 100.0


def test_window_shorter_than_a_period_does_not_tick():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    ticks = _record_observes(testbed)
    testbed.run(1.5)
    assert ticks == []
    assert testbed.now == 1.5


# Seed 9 puts a thermocouple dropout on zone 1 from about 332 s to 476 s,
# so the faulted case splits the window while that zone is degraded.
@pytest.mark.parametrize(
    "faults", [(), FaultPlan.random_thermal(9, zones=4).thermal_faults],
    ids=["clean", "faulted"])
def test_windows_compose(faults):
    def bed():
        return ThermalTestbed([ZoneConfig(setpoint_c=50.0)] * 4, seed=1,
                              faults=faults)

    split = bed()
    split.run(400.0)
    parts = split.run(500.0)
    whole = bed().run(900.0)
    # Whole-report equality: samples, status, out-of-band windows and all.
    assert parts == whole


def test_regulation_work_is_linear_in_windows():
    zones = 4
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=36.0)] * zones, seed=1)
    observes = _record_observes(testbed)
    rounds = sum(regulate_to_setpoint(testbed, temp)
                 for temp in (36.0, 39.0, 42.0, 45.0))
    ticks_per_window = int(REGULATION_S // testbed.control_period_s)
    assert len(observes) == zones * ticks_per_window * rounds


def _time_major_run(testbed, duration_s):
    """``testbed.run`` ticking every zone once per period, period by
    period, each thermocouple read drawing its noise by itself."""
    start, period = testbed.now, testbed.control_period_s
    for k in range(1, int(duration_s // period) + 1):
        now = start + k * period
        for i, plant in enumerate(testbed.plants):
            state = testbed._fault_states[i]
            if state is not None:
                plant.ambient_c = testbed._base_ambient_c \
                    + state.ambient_offset_c(now)
            plant.step(period)
            couple = testbed.thermocouples[i]
            tc = float(couple.source()) + couple.bias_c \
                + float(couple._rng.normal(0.0, couple.noise_c))
            spd = testbed.spd_sensors[i].read_c(now)
            if state is not None:
                tc = state.thermocouple_reading(tc, now)
                spd = state.spd_reading(spd, now)
            monitor = testbed.monitors[i]
            fused = monitor.observe(now, period, tc, spd,
                                    testbed._last_duty[i])
            duty = 0.0 if monitor.quarantine is not None \
                else testbed.pids[i].update(fused, period)
            power = testbed.relays[i].command(duty)
            if state is not None:
                power = state.delivered_power_w(
                    power, now, testbed.relays[i].max_power_w)
            plant.set_heater(power)
            testbed._last_duty[i] = duty
            testbed._history[i].append(plant.temperature_c)
            testbed._times[i].append(now)
    testbed.now = start + duration_s
    return [testbed._report(i) for i in range(len(testbed.configs))]


# Zones at distinct setpoints: every zone's thermocouple draws the same
# noise stream, so equal setpoints would give equal trajectories and
# hide a zone mix-up.
@pytest.mark.parametrize("zones,faults", [
    (4, ()),
    (4, FaultPlan.random_thermal(9, zones=4).thermal_faults),
    (8, FaultPlan.random_thermal(4, zones=8,
                                 unrecoverable_rate=0.5).thermal_faults),
], ids=["clean", "faulted", "quarantining"])
def test_zone_major_windows_equal_time_major_ticks(zones, faults):
    def bed():
        return ThermalTestbed(
            [ZoneConfig(setpoint_c=45.0 + 2.0 * zone) for zone in range(zones)],
            seed=1, faults=faults)

    zone_major, time_major = bed(), bed()
    for window, setpoint in ((400.0, None), (500.0, 60.0), (301.0, None)):
        if setpoint is not None:
            for zone in range(zones):
                zone_major.set_setpoint(zone, setpoint - zone)
                time_major.set_setpoint(zone, setpoint - zone)
        reports = zone_major.run(window)
        assert reports == _time_major_run(time_major, window)
        assert zone_major.now == time_major.now
    if zones == 8:
        assert any(report.quarantine is not None for report in reports)
