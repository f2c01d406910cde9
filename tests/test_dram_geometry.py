"""DRAM organization and addressing."""

import pytest

from repro.dram.geometry import BankAddress, DEFAULT_GEOMETRY, DramGeometry
from repro.errors import TopologyError


def test_default_matches_paper_testbed():
    geo = DEFAULT_GEOMETRY
    assert geo.num_devices == 72          # "72 DRAM chips"
    assert geo.banks_per_device == 8      # Table I's 8 banks
    assert geo.num_ranks == 8


def test_capacity_is_32gb_class():
    geo = DEFAULT_GEOMETRY
    # 8 data devices/rank x 8 ranks x 4Gb = 32 GB of data (+ ECC chips).
    data_devices = geo.num_ranks * 8
    data_bytes = data_devices * geo.banks_per_device * geo.bits_per_bank // 8
    assert data_bytes == 32 * 1024 ** 3


def test_bits_per_bank():
    geo = DEFAULT_GEOMETRY
    assert geo.bits_per_bank == 65536 * 8192


def test_device_location_roundtrip():
    geo = DEFAULT_GEOMETRY
    seen = set()
    for device in range(geo.num_devices):
        dimm, rank, slot = geo.device_location(device)
        assert 0 <= dimm < geo.num_dimms
        assert 0 <= rank < geo.ranks_per_dimm
        assert 0 <= slot < geo.devices_per_rank
        seen.add((dimm, rank, slot))
    assert len(seen) == geo.num_devices


def test_device_location_out_of_range():
    with pytest.raises(TopologyError):
        DEFAULT_GEOMETRY.device_location(72)


def test_bank_address_validation():
    BankAddress(0, 0).validate(DEFAULT_GEOMETRY)
    with pytest.raises(TopologyError):
        BankAddress(72, 0).validate(DEFAULT_GEOMETRY)
    with pytest.raises(TopologyError):
        BankAddress(0, 8).validate(DEFAULT_GEOMETRY)


def test_invalid_geometry_rejected():
    with pytest.raises(TopologyError):
        DramGeometry(num_dimms=0)
