"""Binding thermal zones to DRAM ranks.

The paper's testbed heats each DIMM *rank* independently (8 zones).
:class:`ZoneBinding` maps testbed zones onto the DRAM geometry, so
Table I can drop exactly the devices that sit on a quarantined zone.
Whether a zone's reading is trustworthy is decided in one place,
:meth:`~repro.thermal.testbed.ThermalTestbed.zone_measurement_valid`,
which Table I and Fig. 8a apply to every regulation round through
:func:`~repro.experiments.common.regulate_to_setpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ZoneBinding:
    """Assignment of testbed zones to (dimm, rank) pairs."""

    geometry: DramGeometry
    zone_of_rank: Dict[tuple, int]   # (dimm, rank) -> zone index

    def __post_init__(self) -> None:
        expected = {(d, r) for d in range(self.geometry.num_dimms)
                    for r in range(self.geometry.ranks_per_dimm)}
        if set(self.zone_of_rank) != expected:
            raise ConfigurationError(
                "binding must cover every (dimm, rank) pair exactly once")

    @classmethod
    def paper_default(cls, geometry: DramGeometry) -> "ZoneBinding":
        """One zone per rank, zones numbered dimm-major (the rig's wiring)."""
        mapping = {}
        zone = 0
        for dimm in range(geometry.num_dimms):
            for rank in range(geometry.ranks_per_dimm):
                mapping[(dimm, rank)] = zone % 8
                zone += 1
        return cls(geometry=geometry, zone_of_rank=mapping)

    def zone_of_device(self, device: int) -> int:
        dimm, rank, _slot = self.geometry.device_location(device)
        return self.zone_of_rank[(dimm, rank)]
