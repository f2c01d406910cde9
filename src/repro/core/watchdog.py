"""Watchdog monitor, reset switch and power switch.

The execution phase of the framework (paper Figure 2) must survive runs
that crash or wedge the machine: a watchdog notices missing heartbeats,
the reset switch reboots a crashed OS, and the power switch hard-cycles
a board that no longer responds to reset. This module models that
recovery ladder and accounts the recovery time each path costs -- the
reason real undervolting campaigns are "time-consuming" per the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cpu.outcomes import RunOutcome
from repro.errors import ConfigurationError


class WatchdogVerdict(enum.Enum):
    """How a run terminated from the harness's point of view."""

    COMPLETED = "completed"          # benchmark exited by itself
    TIMEOUT_RESET = "timeout_reset"  # hang -> reset switch recovered it
    TIMEOUT_POWER = "timeout_power"  # reset failed -> power switch cycle


@dataclass
class Watchdog:
    """Heartbeat supervisor with a two-stage recovery ladder.

    Parameters
    ----------
    timeout_s:
        Silence threshold before declaring a hang.
    reset_time_s:
        Cost of a reset-switch reboot (OS boot time).
    power_cycle_time_s:
        Cost of a full power cycle (board bring-up + OS boot).
    reset_success_rate:
        Fraction of hangs the reset switch recovers; the remainder
        escalate to the power switch. Deterministic error-diffusion
        scheduling rather than randomness keeps campaign timing
        reproducible while the long-run escalation fraction matches
        ``1 - reset_success_rate`` exactly, for any rate in [0, 1].
    """

    timeout_s: float = 120.0
    reset_time_s: float = 45.0
    power_cycle_time_s: float = 90.0
    reset_success_rate: float = 0.8
    _escalation_debt: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if min(self.timeout_s, self.reset_time_s, self.power_cycle_time_s) <= 0:
            raise ConfigurationError("watchdog times must be positive")
        if not 0.0 <= self.reset_success_rate <= 1.0:
            raise ConfigurationError("reset_success_rate must be in [0, 1]")

    def supervise(self, outcome: RunOutcome,
                  nominal_runtime_s: float) -> "SupervisedRun":
        """Account the wall time and recovery path of one run outcome."""
        if nominal_runtime_s <= 0:
            raise ConfigurationError("nominal runtime must be positive")
        if not outcome.needs_reset:
            return SupervisedRun(outcome=outcome,
                                 verdict=WatchdogVerdict.COMPLETED,
                                 wall_time_s=nominal_runtime_s)
        # A hang burns the whole timeout; a crash is noticed at the
        # point of failure (modelled as half the nominal runtime).
        stall = self.timeout_s if outcome is RunOutcome.HANG \
            else nominal_runtime_s * 0.5
        # Deterministic escalation by error diffusion (Bresenham): each
        # recovery accrues (1 - rate) of escalation debt and the reset
        # switch is defeated exactly when a whole escalation is owed.
        # Unlike a rounded "every k-th hang" period -- which collapses
        # to k=1 (always escalate) for any rate below 0.5 -- this makes
        # the long-run escalation fraction track 1 - reset_success_rate
        # for every rate in [0, 1]. The epsilon absorbs float
        # accumulation (five 0.2-debts sum to 0.9999...).
        self._escalation_debt += 1.0 - self.reset_success_rate
        if self._escalation_debt >= 1.0 - 1e-9:
            # Clamp instead of carrying a ~1e-16 negative residue, so
            # the debt cycle repeats identically forever (no drift).
            self._escalation_debt = max(0.0, self._escalation_debt - 1.0)
            verdict = WatchdogVerdict.TIMEOUT_POWER
            recovery = self.reset_time_s + self.power_cycle_time_s
        else:
            verdict = WatchdogVerdict.TIMEOUT_RESET
            recovery = self.reset_time_s
        return SupervisedRun(outcome=outcome, verdict=verdict,
                             wall_time_s=stall + recovery)


@dataclass(frozen=True)
class SupervisedRun:
    """A run outcome plus its harness-level verdict and wall time."""

    outcome: RunOutcome
    verdict: WatchdogVerdict
    wall_time_s: float
