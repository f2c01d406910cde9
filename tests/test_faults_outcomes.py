"""The run-outcome taxonomy."""

from repro.cpu.outcomes import RunOutcome


def test_outcome_safety_partition():
    safe = {o for o in RunOutcome if o.is_safe}
    assert safe == {RunOutcome.CORRECT, RunOutcome.CORRECTED_ERROR}


def test_outcome_failure_flag():
    assert not RunOutcome.CORRECT.is_failure
    for o in RunOutcome:
        if o is not RunOutcome.CORRECT:
            assert o.is_failure


def test_outcome_reset_requirement():
    assert RunOutcome.CRASH.needs_reset
    assert RunOutcome.HANG.needs_reset
    assert not RunOutcome.SDC.needs_reset
