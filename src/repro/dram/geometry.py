"""DRAM organization and addressing.

The testbed holds 32 GB of DDR3 across 4 DIMMs (one per MCU), two ranks
each, with x8 4 Gb devices -- 9 devices per rank including the ECC chip,
72 data+check chips total, matching the paper's "72 DRAM chips". Each
device exposes 8 banks; rows hold 8 KB pages.

Addresses used by the retention machinery are *bank-local*: a
``(row, col, bit)`` triple inside one bank of one chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import TopologyError

#: Devices per rank on a standard ECC DIMM: 8 data + 1 check (x8 parts).
DEVICES_PER_RANK = 9


@dataclass(frozen=True)
class DramGeometry:
    """Board-level DRAM organization.

    Defaults model the paper's testbed: 4 DIMMs x 2 ranks x 9 devices
    (= 72 chips), 8 banks per device, 64K rows x 8192 bits per bank
    (a 4 Gb x8 part).
    """

    num_dimms: int = 4
    ranks_per_dimm: int = 2
    devices_per_rank: int = DEVICES_PER_RANK
    banks_per_device: int = 8
    rows_per_bank: int = 65536
    bits_per_row: int = 8192

    def __post_init__(self) -> None:
        for name in ("num_dimms", "ranks_per_dimm", "devices_per_rank",
                     "banks_per_device", "rows_per_bank", "bits_per_row"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be positive")

    @property
    def num_ranks(self) -> int:
        return self.num_dimms * self.ranks_per_dimm

    @property
    def num_devices(self) -> int:
        """Total DRAM chips on the board (72 in the paper's testbed)."""
        return self.num_ranks * self.devices_per_rank

    @property
    def bits_per_bank(self) -> int:
        return self.rows_per_bank * self.bits_per_row

    def device_location(self, device: int) -> Tuple[int, int, int]:
        """Map a flat device id to ``(dimm, rank, slot)``."""
        if not 0 <= device < self.num_devices:
            raise TopologyError(f"device {device} outside 0..{self.num_devices - 1}")
        per_dimm = self.ranks_per_dimm * self.devices_per_rank
        dimm = device // per_dimm
        rank = (device % per_dimm) // self.devices_per_rank
        slot = device % self.devices_per_rank
        return dimm, rank, slot


@dataclass(frozen=True)
class BankAddress:
    """Identifies one bank: ``(device, bank)``."""

    device: int
    bank: int

    def validate(self, geometry: DramGeometry) -> None:
        if not 0 <= self.device < geometry.num_devices:
            raise TopologyError(f"device {self.device} out of range")
        if not 0 <= self.bank < geometry.banks_per_device:
            raise TopologyError(f"bank {self.bank} out of range")


#: The paper's testbed geometry.
DEFAULT_GEOMETRY = DramGeometry()
