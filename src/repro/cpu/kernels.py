"""Instruction loops: the unit of stress-test code.

An :class:`InstructionLoop` is a finite sequence of instruction classes
executed repeatedly -- exactly what the paper's GA evolves ("a loop of
instructions that maximizes radiated EM amplitude") and what the
component micro-viruses hand-craft.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Tuple

from repro.cpu.isa import INSTRUCTION_SPECS, InstrClass, spec_of
from repro.errors import ConfigurationError

#: Loop-body length bounds accepted by the execution model and the GA.
MIN_LOOP_LEN = 2
MAX_LOOP_LEN = 256

#: Byte code of each instruction class: its position in the ISA table.
CLASS_CODE = {klass: code for code, klass in enumerate(INSTRUCTION_SPECS)}


@dataclass(frozen=True)
class InstructionLoop:
    """An immutable loop body of instruction classes.

    The loop is the genome representation of the GA: fixed alphabet,
    variable length within bounds, compared by value.
    """

    body: Tuple[InstrClass, ...]

    def __post_init__(self) -> None:
        if not MIN_LOOP_LEN <= len(self.body) <= MAX_LOOP_LEN:
            raise ConfigurationError(
                f"loop body length {len(self.body)} outside "
                f"{MIN_LOOP_LEN}..{MAX_LOOP_LEN}"
            )

    @classmethod
    def of(cls, classes: Iterable[InstrClass]) -> "InstructionLoop":
        """Build a loop from any iterable of instruction classes."""
        return cls(tuple(classes))

    def __len__(self) -> int:
        return len(self.body)

    @cached_property
    def code(self) -> bytes:
        """The body as one :data:`CLASS_CODE` byte per instruction.

        Computed once per genome and equal in every process (unlike
        ``hash(body)``), it keys the GA's fitness memo and feeds
        waveform synthesis without re-hashing the classes.
        """
        return bytes(map(CLASS_CODE.__getitem__, self.body))

    def __iter__(self):
        return iter(self.body)

    @property
    def total_cycles(self) -> float:
        """Core cycles consumed by one traversal of the loop body."""
        return sum(spec_of(k).cycles for k in self.body)

    def histogram(self) -> dict:
        """Instruction-class counts, for reporting evolved viruses."""
        counts: dict = {}
        for klass in self.body:
            counts[klass] = counts.get(klass, 0) + 1
        return counts

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``simd*12 nop*12 ...``."""
        items = sorted(self.histogram().items(), key=lambda kv: -kv[1])
        return " ".join(f"{k.value}*{n}" for k, n in items)


def square_wave_loop(high: InstrClass, low: InstrClass,
                     half_period_cycles: int) -> InstructionLoop:
    """Hand-craft the canonical dI/dt pattern.

    Alternates a burst of ``high``-current instructions with a burst of
    ``low``-current ones so each phase lasts roughly
    ``half_period_cycles`` core cycles. Driving the half period to match
    half the PDN resonance period is the textbook worst case the GA is
    expected to rediscover.
    """
    if half_period_cycles <= 0:
        raise ConfigurationError("half_period_cycles must be positive")
    high_count = max(1, round(half_period_cycles / spec_of(high).cycles))
    low_count = max(1, round(half_period_cycles / spec_of(low).cycles))
    body: List[InstrClass] = [high] * high_count + [low] * low_count
    if len(body) > MAX_LOOP_LEN:
        raise ConfigurationError(
            f"square wave of {len(body)} instructions exceeds loop limit"
        )
    return InstructionLoop.of(body)
