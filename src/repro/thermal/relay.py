"""Time-proportioned solid-state relay model.

The controller board's SSRs switch the resistive elements on/off; power
modulation is achieved by time-proportioning a duty cycle over a short
switching window. Over a control period the *average* delivered power is
``duty * heater_max``, with bounded switching frequency (SSRs switch at
zero crossings; the model enforces a minimum on/off dwell).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class SolidStateRelay:
    """One SSR channel feeding one heating element.

    Attributes
    ----------
    max_power_w:
        Power delivered when the relay is continuously on.
    window_s:
        Time-proportioning window; the duty cycle is realized as one
        on-pulse per window.
    min_dwell_s:
        Minimum pulse width the relay can realize; shorter commands snap
        to zero (protects against chattering).
    """

    max_power_w: float = 40.0
    window_s: float = 2.0
    min_dwell_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_power_w <= 0 or self.window_s <= 0:
            raise ConfigurationError("relay power and window must be positive")
        if not 0 <= self.min_dwell_s < self.window_s:
            raise ConfigurationError("min dwell must be within the window")

    def command(self, duty: float) -> float:
        """Set the duty cycle; returns the realized average power (W)."""
        if not 0.0 <= duty <= 1.0:
            raise ConfigurationError(f"duty {duty} outside [0, 1]")
        on_time = duty * self.window_s
        if on_time < self.min_dwell_s:
            realized = 0.0
        elif self.window_s - on_time < self.min_dwell_s:
            realized = 1.0
        else:
            realized = duty
        return realized * self.max_power_w
