"""SLIMpro management processor."""

import pytest

from repro.errors import ConfigurationError
from repro.soc.domains import DomainName
from repro.soc.slimpro import EccReport, SLIMpro


@pytest.fixture()
def slimpro() -> SLIMpro:
    sp = SLIMpro()
    sp.boot()
    return sp


def test_operations_before_boot_rejected():
    sp = SLIMpro()
    with pytest.raises(ConfigurationError):
        sp.set_domain_voltage(DomainName.PMD, 930.0)


def test_set_domain_voltage_snaps(slimpro):
    applied = slimpro.set_domain_voltage(DomainName.PMD, 931.0)
    assert applied == 930.0


def test_ecc_event_counting(slimpro):
    slimpro.report_ecc(EccReport(0.0, "mcu0", correctable=True))
    slimpro.report_ecc(EccReport(1.0, "mcu1", correctable=False))
    slimpro.report_ecc(EccReport(2.0, "mcu0", correctable=True))
    assert slimpro.correctable_count() == 2
    assert slimpro.uncorrectable_count() == 1
    assert slimpro.correctable_count(since_s=1.5) == 1
