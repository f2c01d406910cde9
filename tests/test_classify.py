"""Run-log classification (the parsing phase)."""

import pytest

from repro.core.classify import OutcomeCounts, RunLog, classify_run_log
from repro.cpu.outcomes import RunOutcome
from repro.errors import CampaignError


def log(exited=True, responded=True, ce=0, ue=0, golden=True) -> RunLog:
    return RunLog(exited_cleanly=exited, responded_to_watchdog=responded,
                  corrected_errors=ce, uncorrected_errors=ue,
                  output_matches_golden=golden)


def test_clean_run_is_correct():
    assert classify_run_log(log()) is RunOutcome.CORRECT


def test_hang_outranks_everything():
    assert classify_run_log(log(exited=False, responded=False, ue=3,
                                golden=False)) is RunOutcome.HANG


def test_dirty_exit_is_crash():
    assert classify_run_log(log(exited=False)) is RunOutcome.CRASH


def test_ue_outranks_sdc():
    assert classify_run_log(log(ue=1, golden=False)) is \
        RunOutcome.UNCORRECTED_ERROR


def test_sdc_requires_escaped_corruption():
    assert classify_run_log(log(golden=False)) is RunOutcome.SDC


def test_ce_with_matching_output():
    assert classify_run_log(log(ce=2)) is RunOutcome.CORRECTED_ERROR


def test_no_output_check_counts_as_correct_when_clean():
    assert classify_run_log(log(golden=None)) is RunOutcome.CORRECT


def test_negative_counts_rejected():
    with pytest.raises(CampaignError):
        RunLog(True, True, -1, 0, True)


def test_all_safe_property():
    safe = OutcomeCounts({RunOutcome.CORRECT: 1, RunOutcome.CORRECTED_ERROR: 1})
    assert safe.all_safe
    unsafe = OutcomeCounts({RunOutcome.CORRECT: 1, RunOutcome.SDC: 1})
    assert not unsafe.all_safe
    assert OutcomeCounts().all_safe
