"""Campaign declaration (the framework's initialization phase)."""

import pytest

from repro.core.campaign import (
    CampaignPlan,
    CharacterizationSetup,
)
from repro.errors import CampaignError
from repro.soc.topology import CoreId
from repro.workloads.spec import spec_workload


def test_setup_defaults_match_paper():
    setup = CharacterizationSetup(voltage_mv=980.0)
    assert setup.freq_ghz == 2.4
    assert setup.repetitions == 10  # "ten times for each benchmark"


def test_setup_validation():
    with pytest.raises(CampaignError):
        CharacterizationSetup(voltage_mv=-1.0)
    with pytest.raises(CampaignError):
        CharacterizationSetup(voltage_mv=900.0, cores=())
    with pytest.raises(CampaignError):
        CharacterizationSetup(voltage_mv=900.0,
                              cores=(CoreId(0, 0), CoreId(0, 0)))
    with pytest.raises(CampaignError):
        CharacterizationSetup(voltage_mv=900.0, repetitions=0)


def test_plan_builds_one_campaign_per_benchmark():
    plan = CampaignPlan()
    plan.add_workloads([spec_workload("mcf"), spec_workload("milc")])
    plan.add_setup(CharacterizationSetup(voltage_mv=900.0))
    plan.add_setup(CharacterizationSetup(voltage_mv=890.0))
    campaigns = plan.build()
    assert len(campaigns) == 2
    assert all(len(c.runs) == 2 for c in campaigns)


def test_run_ids_unique_across_campaigns():
    plan = CampaignPlan()
    plan.add_workloads([spec_workload("mcf"), spec_workload("gcc")])
    plan.add_voltage_sweep(980.0, 960.0, 10.0)
    campaigns = plan.build()
    ids = [run.run_id for c in campaigns for run in c.runs]
    assert len(ids) == len(set(ids))


def test_voltage_sweep_descends():
    plan = CampaignPlan().add_workload(spec_workload("mcf"))
    plan.add_voltage_sweep(980.0, 950.0, 10.0)
    campaign = plan.build()[0]
    voltages = [run.setup.voltage_mv for run in campaign.runs]
    assert voltages == [980.0, 970.0, 960.0, 950.0]


def test_voltage_sweep_validation():
    plan = CampaignPlan()
    with pytest.raises(CampaignError):
        plan.add_voltage_sweep(900.0, 950.0, 10.0)  # ascending
    with pytest.raises(CampaignError):
        plan.add_voltage_sweep(950.0, 900.0, 0.0)   # zero step


def test_duplicate_workload_rejected():
    plan = CampaignPlan().add_workload(spec_workload("mcf"))
    with pytest.raises(CampaignError):
        plan.add_workload(spec_workload("mcf"))


def test_empty_plan_rejected():
    with pytest.raises(CampaignError):
        CampaignPlan().build()
    plan = CampaignPlan().add_workload(spec_workload("mcf"))
    with pytest.raises(CampaignError):
        plan.build()  # no setups
