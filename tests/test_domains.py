"""Voltage domains and regulators."""

import pytest

from repro.errors import VoltageDomainError
from repro.soc.domains import DomainName, VoltageRegulator, default_regulators


def test_default_rails_at_paper_nominals():
    regs = default_regulators()
    assert regs[DomainName.PMD].nominal_mv == 980.0
    assert regs[DomainName.SOC].nominal_mv == 950.0


def test_set_voltage_snaps_to_step():
    reg = VoltageRegulator(DomainName.PMD, nominal_mv=980.0, step_mv=5.0)
    assert reg.set_voltage(933.0) == 935.0


def test_set_voltage_out_of_range_rejected():
    reg = VoltageRegulator(DomainName.PMD, nominal_mv=980.0, min_mv=700.0)
    with pytest.raises(VoltageDomainError):
        reg.set_voltage(650.0)
    with pytest.raises(VoltageDomainError):
        reg.set_voltage(1100.0)


def test_nominal_outside_range_rejected():
    with pytest.raises(VoltageDomainError):
        VoltageRegulator(DomainName.PMD, nominal_mv=980.0, min_mv=990.0)


def test_dram_rail_fixed():
    regs = default_regulators()
    dram = regs[DomainName.DRAM]
    assert dram.set_voltage(1350.0) == 1350.0
    with pytest.raises(VoltageDomainError):
        dram.set_voltage(1300.0)
