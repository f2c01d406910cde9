"""Run-log classification: the framework's parsing phase.

During execution the harness stores, per run: the exit status, the ECC
event counts harvested from SLIMpro, and whether the program's output
matched the golden reference. Parsing folds those raw signals into the
paper's effect taxonomy (correct / CE / UE / SDC / crash / hang) and
aggregates them per campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cpu.outcomes import RunOutcome
from repro.errors import CampaignError


@dataclass(frozen=True)
class RunLog:
    """Raw signals stored for one run during the execution phase."""

    exited_cleanly: bool
    responded_to_watchdog: bool
    corrected_errors: int
    uncorrected_errors: int
    output_matches_golden: Optional[bool]  # None when the run never produced output

    def __post_init__(self) -> None:
        if self.corrected_errors < 0 or self.uncorrected_errors < 0:
            raise CampaignError("error counts cannot be negative")


def classify_run_log(log: RunLog) -> RunOutcome:
    """Fold raw run signals into the paper's outcome taxonomy.

    Precedence follows severity: a machine that stopped responding is a
    hang regardless of logged errors; a dirty exit is a crash; detected
    uncorrectable errors outrank silent corruption, which is only
    declared when the output check fails with no detected UE (the
    definition of SDC -- corruption that *escaped* detection).
    """
    if not log.responded_to_watchdog:
        return RunOutcome.HANG
    if not log.exited_cleanly:
        return RunOutcome.CRASH
    if log.uncorrected_errors > 0:
        return RunOutcome.UNCORRECTED_ERROR
    if log.output_matches_golden is False:
        return RunOutcome.SDC
    if log.corrected_errors > 0:
        return RunOutcome.CORRECTED_ERROR
    return RunOutcome.CORRECT


@dataclass
class OutcomeCounts:
    """Aggregated outcome histogram for a set of runs."""

    counts: Dict[RunOutcome, int] = field(default_factory=dict)

    @property
    def all_safe(self) -> bool:
        """True when every run kept the system up and data intact."""
        return all(outcome.is_safe for outcome in self.counts)
