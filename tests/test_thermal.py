"""Thermal plant, PID, relay and sensors."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.pid import PidController, PidGains
from repro.thermal.plant import PlantParams, ThermalPlant
from repro.thermal.relay import SolidStateRelay
from repro.thermal.sensors import SpdSensor, Thermocouple


# ----------------------------------------------------------------------
# Plant
# ----------------------------------------------------------------------
def test_plant_starts_at_ambient():
    plant = ThermalPlant(ambient_c=28.0)
    assert plant.temperature_c == 28.0


def test_plant_converges_to_steady_state():
    plant = ThermalPlant(ambient_c=28.0)
    plant.set_heater(10.0)
    for _ in range(100):
        plant.step(10.0)
    expected = plant.params.steady_state_c(10.0, 28.0)
    assert plant.temperature_c == pytest.approx(expected, abs=0.01)


def test_plant_cools_without_heat():
    plant = ThermalPlant(ambient_c=28.0, initial_c=80.0)
    plant.step(1000.0)
    target = plant.params.steady_state_c(0.0, 28.0)
    assert plant.temperature_c == pytest.approx(target, abs=0.1)


def test_plant_heater_clamped_to_rating():
    plant, rated = ThermalPlant(), ThermalPlant()
    plant.set_heater(1000.0)
    rated.set_heater(rated.params.heater_max_w)
    assert plant.step(100.0) == rated.step(100.0)


def test_plant_has_headroom_for_60c():
    params = PlantParams()
    assert params.steady_state_c(params.heater_max_w, 28.0) > 70.0


def test_plant_negative_inputs_rejected():
    plant = ThermalPlant()
    with pytest.raises(ConfigurationError):
        plant.set_heater(-1.0)
    with pytest.raises(ConfigurationError):
        plant.step(-1.0)


def test_exponential_step_is_exact():
    """Large steps give the same endpoint as many small ones."""
    a = ThermalPlant(ambient_c=28.0)
    b = ThermalPlant(ambient_c=28.0)
    a.set_heater(15.0)
    b.set_heater(15.0)
    a.step(100.0)
    for _ in range(100):
        b.step(1.0)
    assert a.temperature_c == pytest.approx(b.temperature_c, abs=1e-9)


# ----------------------------------------------------------------------
# PID
# ----------------------------------------------------------------------
def test_pid_output_clamped():
    pid = PidController(setpoint_c=60.0)
    assert pid.update(20.0, 1.0) <= 1.0
    pid2 = PidController(setpoint_c=20.0)
    assert pid2.update(90.0, 1.0) >= 0.0


def test_pid_drives_plant_to_setpoint():
    plant = ThermalPlant(ambient_c=28.0)
    pid = PidController(setpoint_c=60.0)
    for _ in range(600):
        duty = pid.update(plant.temperature_c, 2.0)
        plant.set_heater(duty * plant.params.heater_max_w)
        plant.step(2.0)
    assert plant.temperature_c == pytest.approx(60.0, abs=1.0)


def test_pid_setpoint_change_resets_state():
    pid = PidController(setpoint_c=50.0)
    pid.update(30.0, 1.0)
    pid.set_setpoint(60.0)
    assert pid.setpoint_c == 60.0
    assert pid._integral == 0.0


def test_pid_invalid_step_rejected():
    pid = PidController(setpoint_c=50.0)
    with pytest.raises(ConfigurationError):
        pid.update(40.0, 0.0)


def test_pid_gains_validation():
    with pytest.raises(ConfigurationError):
        PidGains(kp=-1.0)
    with pytest.raises(ConfigurationError):
        PidGains(output_min=1.0, output_max=0.0)


# ----------------------------------------------------------------------
# Relay
# ----------------------------------------------------------------------
def test_relay_power_proportional_to_duty():
    relay = SolidStateRelay(max_power_w=40.0)
    assert relay.command(0.5) == pytest.approx(20.0)


def test_relay_min_dwell_snaps_small_duty_to_zero():
    relay = SolidStateRelay(max_power_w=40.0, window_s=2.0, min_dwell_s=0.1)
    assert relay.command(0.01) == 0.0


def test_relay_near_full_duty_snaps_to_one():
    relay = SolidStateRelay(max_power_w=40.0, window_s=2.0, min_dwell_s=0.1)
    assert relay.command(0.99) == pytest.approx(40.0)


def test_relay_duty_out_of_range_rejected():
    relay = SolidStateRelay()
    with pytest.raises(ConfigurationError):
        relay.command(1.5)


# ----------------------------------------------------------------------
# Sensors
# ----------------------------------------------------------------------
def test_thermocouple_bias_and_noise():
    tc = Thermocouple(source=lambda: 50.0, noise_c=0.0, bias_c=0.3, seed=1)
    assert tc.read_c() == pytest.approx(50.3)


def test_thermocouple_noise_varies_reads():
    tc = Thermocouple(source=lambda: 50.0, noise_c=0.2, seed=1)
    assert len({tc.read_c() for _ in range(10)}) > 1


def test_spd_sensor_quantizes():
    spd = SpdSensor(source=lambda: 50.13)
    assert spd.read_c(0.0) == pytest.approx(50.25)


def test_spd_sensor_rate_limited():
    truth = [50.0]
    spd = SpdSensor(source=lambda: truth[0], update_period_s=1.0)
    assert spd.read_c(0.0) == 50.0
    truth[0] = 60.0
    assert spd.read_c(0.5) == 50.0
    assert spd.read_c(1.5) == 60.0


def test_spd_sensor_seeded_at_construction():
    """A poll before the first update period must return the power-on
    reading, never a stale 0.0 register default."""
    truth = [47.6]
    spd = SpdSensor(source=lambda: truth[0], update_period_s=1.0)
    truth[0] = 80.0  # the die moved after power-on
    assert spd.read_c(0.25) == pytest.approx(47.5)  # quantized power-on value
    assert spd.read_c(1.5) == pytest.approx(80.0)
