"""Run-outcome taxonomy used across the whole library.

The paper's characterization framework classifies every run into one of
these effects (Section III): correct completion, errors corrected by ECC
(CE), detected-but-uncorrectable errors (UE), silent data corruption
(SDC, caught only by comparing against a golden reference), and system
crashes or hangs (caught by the watchdog / reset switch).
"""

from __future__ import annotations

import enum


class RunOutcome(enum.Enum):
    """Classification of one characterization run."""

    CORRECT = "correct"
    CORRECTED_ERROR = "ce"
    UNCORRECTED_ERROR = "ue"
    SDC = "sdc"
    CRASH = "crash"
    HANG = "hang"

    @property
    def is_safe(self) -> bool:
        """True when the system kept running and data stayed intact.

        A corrected error is 'safe' in the paper's sense -- ECC hid it
        from software -- but it is still an early-warning signal that the
        Vmin search treats as proximity to the cliff.
        """
        return self in (RunOutcome.CORRECT, RunOutcome.CORRECTED_ERROR)

    @property
    def needs_reset(self) -> bool:
        """True when the harness must power-cycle the board to recover."""
        return self in (RunOutcome.CRASH, RunOutcome.HANG)
