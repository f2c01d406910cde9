"""Temperature sensors on the thermal testbed.

Two independent reads exist per DIMM, exactly as in the paper: the
adapter's thermocouple (fast, fine resolution) and the DIMM's own SPD
embedded sensor (slow, coarse). The controller fuses both; tests check
they agree within the expected offset band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.errors import ConfigurationError
from repro.rand import SeedLike, substream


@dataclass
class Thermocouple:
    """K-type thermocouple taped to the heating element side.

    Fast response, small gaussian read noise, small fixed bias from its
    mounting position (closer to the element than the DRAM dies). Reads
    take their noise from a buffer that :meth:`reserve` fills, drawn from
    the ``zone``'s own stream.
    """

    source: Callable[[], float]
    noise_c: float = 0.08
    bias_c: float = 0.3
    seed: SeedLike = None
    zone: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    #: Reserved read noise, the next read's at the end.
    _noise: List[float] = field(default_factory=list, init=False, repr=False,
                                compare=False)

    def __post_init__(self) -> None:
        if self.noise_c < 0:
            raise ConfigurationError("noise cannot be negative")
        self._rng = substream(self.seed, "thermocouple", self.zone)

    def reserve(self, reads: int) -> None:
        """Draw the noise of the next ``reads`` reads in one call.

        One ``normal(size=reads)`` draw equals ``reads`` scalar draws
        and leaves the generator in the same state, so reads return the
        same values however their noise was reserved.
        """
        drawn = self._rng.normal(0.0, self.noise_c, size=reads).tolist()
        drawn.reverse()
        self._noise[:0] = drawn

    def read_c(self) -> float:
        if not self._noise:
            self.reserve(1)
        return float(self.source()) + self.bias_c + self._noise.pop()


@dataclass
class SpdSensor:
    """The DIMM's on-SPD temperature sensor (TSOD).

    0.25 degC quantization per the TSE2002-style parts, slow update
    rate, reads the die-side temperature (no mounting bias).
    """

    source: Callable[[], float]
    resolution_c: float = 0.25
    update_period_s: float = 1.0
    _last_time: float = field(default=0.0, init=False)
    _last_value: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.resolution_c <= 0 or self.update_period_s <= 0:
            raise ConfigurationError("SPD sensor parameters must be positive")
        # Seed the register from the source at power-on: a poll before the
        # first update period must return the construction-time reading,
        # never a stale 0.0 default.
        self._last_value = round(float(self.source())
                                 / self.resolution_c) * self.resolution_c

    def read_c(self, now_s: float = 0.0) -> float:
        if now_s - self._last_time >= self.update_period_s:
            truth = float(self.source())
            self._last_value = round(truth / self.resolution_c) * self.resolution_c
            self._last_time = now_s
        return self._last_value
