"""Watchdog recovery ladder."""

import pytest

from repro.core.watchdog import Watchdog, WatchdogVerdict
from repro.cpu.outcomes import RunOutcome
from repro.errors import ConfigurationError


def test_clean_run_completes_in_nominal_time():
    dog = Watchdog()
    run = dog.supervise(RunOutcome.CORRECT, nominal_runtime_s=300.0)
    assert run.verdict is WatchdogVerdict.COMPLETED
    assert run.wall_time_s == 300.0


def test_sdc_does_not_need_recovery():
    dog = Watchdog()
    run = dog.supervise(RunOutcome.SDC, 300.0)
    assert run.verdict is WatchdogVerdict.COMPLETED


def test_hang_costs_timeout_plus_reset():
    dog = Watchdog(timeout_s=120.0, reset_time_s=45.0, reset_success_rate=1.0)
    run = dog.supervise(RunOutcome.HANG, 300.0)
    assert run.verdict is WatchdogVerdict.TIMEOUT_RESET
    assert run.wall_time_s == pytest.approx(165.0)


def test_crash_noticed_midway():
    dog = Watchdog(reset_success_rate=1.0)
    run = dog.supervise(RunOutcome.CRASH, 300.0)
    assert run.wall_time_s == pytest.approx(150.0 + dog.reset_time_s)


def test_escalation_to_power_switch():
    dog = Watchdog(reset_success_rate=0.8)
    verdicts = [dog.supervise(RunOutcome.HANG, 300.0).verdict
                for _ in range(10)]
    power_cycles = sum(1 for v in verdicts if v is WatchdogVerdict.TIMEOUT_POWER)
    assert power_cycles == 2  # deterministic: every 5th hang escalates


def test_power_cycle_costs_more():
    dog = Watchdog(reset_success_rate=0.0)  # reset never works
    run = dog.supervise(RunOutcome.HANG, 300.0)
    assert run.verdict is WatchdogVerdict.TIMEOUT_POWER
    assert run.wall_time_s == pytest.approx(
        dog.timeout_s + dog.reset_time_s + dog.power_cycle_time_s)


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        Watchdog(timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        Watchdog(reset_success_rate=1.5)
    dog = Watchdog()
    with pytest.raises(ConfigurationError):
        dog.supervise(RunOutcome.CORRECT, 0.0)


# ----------------------------------------------------------------------
# Escalation fraction: long-run rate must equal 1 - reset_success_rate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [0.0, 0.05, 0.1, 0.25, 1.0 / 3.0, 0.4,
                                  0.5, 0.6, 2.0 / 3.0, 0.75, 0.8, 0.9,
                                  0.99, 1.0])
def test_escalation_fraction_tracks_reset_failure(rate):
    """Over N hangs, power cycles must track N * (1 - rate) within one
    event, for *every* rate in [0, 1] -- not just rates above 0.5.

    Regression: the old ``escalate_every = round(1 / (1 - rate))``
    collapsed to 1 for every rate below 0.5, power-cycling on *all*
    hangs (e.g. rate=0.4 escalated 100% of the time instead of 60%).
    """
    dog = Watchdog(reset_success_rate=rate)
    hangs = 400
    power_cycles = sum(
        1 for _ in range(hangs)
        if dog.supervise(RunOutcome.HANG, 300.0).verdict
        is WatchdogVerdict.TIMEOUT_POWER)
    assert abs(power_cycles - hangs * (1.0 - rate)) <= 1.0 + 1e-6


def test_escalation_schedule_low_rate_exact_pattern():
    """rate=0.25: 3 of every 4 hangs escalate, starting at the 2nd."""
    dog = Watchdog(reset_success_rate=0.25)
    verdicts = [dog.supervise(RunOutcome.HANG, 300.0).verdict
                for _ in range(8)]
    escalated = [v is WatchdogVerdict.TIMEOUT_POWER for v in verdicts]
    assert escalated == [False, True, True, True, False, True, True, True]


def test_escalation_extremes_unchanged():
    """rate=1 never escalates; rate=0 always escalates."""
    perfect = Watchdog(reset_success_rate=1.0)
    broken = Watchdog(reset_success_rate=0.0)
    for _ in range(20):
        assert perfect.supervise(RunOutcome.HANG, 300.0).verdict \
            is WatchdogVerdict.TIMEOUT_RESET
        assert broken.supervise(RunOutcome.HANG, 300.0).verdict \
            is WatchdogVerdict.TIMEOUT_POWER
