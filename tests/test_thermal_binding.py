"""Thermal-zone to DRAM-rank binding (Table I's quarantine path)."""

import pytest

from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import ConfigurationError
from repro.thermal.binding import ZoneBinding


def test_default_binding_covers_all_ranks():
    binding = ZoneBinding.paper_default(DEFAULT_GEOMETRY)
    zones = set(binding.zone_of_rank.values())
    assert zones <= set(range(8))
    assert len(binding.zone_of_rank) == DEFAULT_GEOMETRY.num_dimms * \
        DEFAULT_GEOMETRY.ranks_per_dimm


def test_incomplete_binding_rejected():
    with pytest.raises(ConfigurationError):
        ZoneBinding(geometry=DEFAULT_GEOMETRY, zone_of_rank={(0, 0): 0})


def test_devices_on_same_rank_share_zone():
    binding = ZoneBinding.paper_default(DEFAULT_GEOMETRY)
    by_rank = {}
    for device in range(DEFAULT_GEOMETRY.num_devices):
        dimm, rank, _slot = DEFAULT_GEOMETRY.device_location(device)
        by_rank.setdefault((dimm, rank), set()).add(
            binding.zone_of_device(device))
    for (dimm, rank), zones in by_rank.items():
        assert len(zones) == 1, (dimm, rank)
