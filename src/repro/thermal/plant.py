"""First-order thermal model of a DIMM with a heating adapter.

A DIMM plus its adapter behaves, to good approximation, as one thermal
mass: heat flows in from the resistive element (and from the DRAM's own
dissipation), and leaks out to ambient through a thermal resistance.

    C * dT/dt = P_heater + P_self - (T - T_ambient) / R

Discretized with an exact exponential step so large simulation steps stay
stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PlantParams:
    """Thermal parameters of one DIMM + adapter assembly.

    Defaults give a time constant of ~63 s and a steady-state gain such
    that the 40 W element can hold ~85 degC above ambient -- enough
    headroom for the paper's 50/60 degC setpoints with authority to
    spare.
    """

    thermal_capacitance_j_per_c: float = 30.0
    thermal_resistance_c_per_w: float = 2.1
    heater_max_w: float = 40.0
    self_heating_w: float = 1.5  # the DIMM's own dissipation under load

    def __post_init__(self) -> None:
        if min(self.thermal_capacitance_j_per_c, self.thermal_resistance_c_per_w,
               self.heater_max_w) <= 0:
            raise ConfigurationError("plant parameters must be positive")
        if self.self_heating_w < 0:
            raise ConfigurationError("self heating cannot be negative")

    @property
    def time_constant_s(self) -> float:
        return self.thermal_capacitance_j_per_c * self.thermal_resistance_c_per_w

    def steady_state_c(self, heater_w: float, ambient_c: float) -> float:
        """Equilibrium temperature at constant heater power."""
        total = heater_w + self.self_heating_w
        return ambient_c + total * self.thermal_resistance_c_per_w


class ThermalPlant:
    """Integrable DIMM temperature state."""

    def __init__(self, params: PlantParams = PlantParams(),
                 ambient_c: float = 28.0,
                 initial_c: float = None) -> None:
        self.params = params
        self.ambient_c = ambient_c
        self.temperature_c = ambient_c if initial_c is None else initial_c
        self._heater_w = 0.0

    def set_heater(self, power_w: float) -> None:
        """Command the resistive element (clamped to its rating)."""
        if power_w < 0:
            raise ConfigurationError("heater power cannot be negative")
        self._heater_w = min(power_w, self.params.heater_max_w)

    def step(self, dt_s: float) -> float:
        """Advance the plant by ``dt_s`` seconds; returns the new temp.

        Uses the exact solution of the linear ODE over the step, so any
        step size is stable.
        """
        if dt_s < 0:
            raise ConfigurationError("time step cannot be negative")
        target = self.params.steady_state_c(self._heater_w, self.ambient_c)
        decay = math.exp(-dt_s / self.params.time_constant_s)
        self.temperature_c = target + (self.temperature_c - target) * decay
        return self.temperature_c
