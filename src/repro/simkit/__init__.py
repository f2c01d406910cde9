"""A small deterministic discrete-event simulation (DES) kernel.

The Jammer detector of Fig. 9 runs its instances as self-rescheduling
event chains on a virtual clock. :class:`~repro.simkit.events.Simulator`
is the substrate: a single-threaded priority-queue event loop in which
two events at the same timestamp fire in insertion order, so every run
is deterministic.
"""

from repro.simkit.events import Event, Simulator

__all__ = ["Event", "Simulator"]
