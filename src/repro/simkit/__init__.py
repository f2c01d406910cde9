"""A small deterministic discrete-event simulation (DES) kernel.

The Jammer detector of Fig. 9 runs its instances as self-rescheduling
event chains on a virtual clock. :class:`~repro.simkit.events.Simulator`
is the substrate: a single-threaded priority-queue event loop in which
two events at the same timestamp fire in insertion order, so every run
is deterministic.

No experiment uses the two library layers on top of it, which are kept
with their unit tests: :class:`~repro.simkit.process.Process`
(generator-based processes, ``yield delay`` to advance time) and
:class:`~repro.simkit.resources.Resource` (a counted resource with a
FIFO wait queue).
"""

from repro.simkit.events import Event, Simulator
from repro.simkit.process import Process, sleep
from repro.simkit.resources import Resource

__all__ = ["Event", "Simulator", "Process", "Resource", "sleep"]
