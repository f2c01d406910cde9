"""Supervised execution: one worker per pipe, real crash/hang/poison tolerance.

The paper's characterization framework (Fig. 2) exists because
sub-guardband runs crash, hang and wedge the harness -- the supervisor,
not the benchmark, must guarantee forward progress. The system-level
frameworks of Papadimitriou et al. (arXiv:2106.09975) and the Scrooge
undervolting study (arXiv:2107.00416) isolate every run in its own
worker process for that reason. :class:`SupervisedPool` gives our work
units the same guarantee:

- **one pipe per worker** -- a pooled map starts ``min(jobs, units)``
  long-lived worker processes, each with its own ``Pipe`` and at most
  one unit in flight, and waits on all the pipes with
  :func:`multiprocessing.connection.wait`. A worker that dies
  (``os._exit``, segfault, OOM kill) shows up as the EOF on its own
  pipe, so the crash belongs to the one unit that worker was running;
- **per-unit deadlines** -- a unit still running ``unit_timeout``
  seconds after it was sent is charged a hang and its worker is
  terminated. After a crash or a hang only that one worker is replaced;
  the others keep running;
- **bounded retries** -- every failure (crash, hang, poison exception)
  is charged to its unit's retry budget and lands in a structured
  attempt ledger, with the fault injected into that attempt; after
  ``max_retries`` + 1 failures the unit is *quarantined* and reported
  as a typed :class:`UnitFailure` instead of a stack trace. The ledger
  is the map's record: :class:`SupervisorStats` is computed from it;
- **graceful degradation** -- if a worker cannot be started, the map
  goes on with the workers it has, and inline once it has none
  (injected process-level faults are simulated inline, since a real
  ``os._exit`` would take down the supervisor itself);
- **single-threaded BLAS in every unit** -- units run with OpenBLAS
  pinned to one thread, inline (restored to the caller's setting when
  the map returns) and in every worker (pinned at worker start).
  A unit is one process's worth of work: a multithreaded BLAS inside it
  only spins a second thread against the other units, or against the
  unit's own Python code, for GEMMs far too small to gain from it.

Every failure is attributed to its unit by construction and the
:class:`~repro.core.faults.FaultPlan` decides each ``(unit, attempt)``
purely, so the attempt ledger, the retry budgets and the quarantine list
are the same at any worker count. Work units are deterministic and
results are collected by unit index, so a run under any real-fault
schedule converges to results bit-identical to a clean run -- the
property ``tests/test_supervisor.py`` locks down end to end.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import sys
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.faults import (
    UNIT_EXIT,
    UNIT_HANG,
    UNIT_POISON,
    FaultPlan,
    run_injected_real_fault,
)
from repro.errors import CampaignError, SupervisionError

#: Failure taxonomy reported by :class:`UnitFailure`.
CRASH = "crash"          #: the worker process died while running the unit
HANG = "hang"            #: the unit ran past its deadline
POISON = "poison"        #: the unit raised an exception

#: Ledger outcome (and worker message kind) of a completed attempt.
_OK = "ok"

#: Default retry budget: a unit is quarantined after ``max_retries + 1``
#: failures.
DEFAULT_MAX_RETRIES = 3

#: How an injected fault is charged when the unit runs inline.
_SIMULATED = {
    UNIT_EXIT: (CRASH, "injected worker os._exit (simulated inline)"),
    UNIT_HANG: (HANG, "injected deadline hang (simulated inline)"),
    UNIT_POISON: (POISON, "injected poison exception (simulated inline)"),
}


@dataclass(frozen=True)
class UnitFailure:
    """One quarantined work unit, as a typed record (not a traceback)."""

    index: int              #: position of the unit in the submitted items
    kind: str               #: one of CRASH / HANG / POISON
    attempts: int           #: failures charged before quarantine
    detail: str = ""        #: human-readable cause (e.g. the repr of the
    #: poison exception); never a multi-frame traceback
    label: str = ""         #: caller-assigned name (campaign, task id, ...)

    def describe(self) -> str:
        name = self.label or f"unit {self.index}"
        text = f"{name}: {self.kind} after {self.attempts} attempt(s)"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class AttemptRecord:
    """One ledger entry: what happened to one submission of one unit."""

    index: int              #: unit index
    attempt: int            #: failures charged to the unit before it
    outcome: str            #: "ok" or a taxonomy kind (every failure
    #: is charged to the unit's retry budget)
    fault: Optional[str] = None     #: the fault injected into this
    #: attempt (UNIT_EXIT / UNIT_HANG / UNIT_POISON), or None
    detail: str = ""


@dataclass(frozen=True)
class SupervisorStats:
    """What the supervisor did in one map, summed from its ledger."""

    attempts: int                #: work-unit submissions (incl. inline)
    retries: int                 #: re-submissions after a failure
    rebuilds: int                #: workers replaced after a crash or hang
    crashes: int                 #: worker deaths
    hangs: int                   #: deadline overruns
    poisoned: int                #: unit exceptions
    quarantined: int             #: units that exhausted their budget
    degraded: bool               #: a worker could not be started

    def describe(self) -> str:
        text = (f"{self.attempts} attempts, {self.retries} retries, "
                f"{self.rebuilds} workers replaced, "
                f"{self.quarantined} quarantined")
        return text + (" [degraded]" if self.degraded else "")


@dataclass(frozen=True)
class MapOutcome:
    """Everything a supervised map produced.

    ``values`` has one slot per input item, ``None`` where the unit was
    quarantined; ``failures`` enumerates the quarantined units sorted by
    index (deterministically, at any worker count). ``ledger`` records
    every attempt in the order it ended, and ``stats`` sums it.
    """

    values: Tuple
    failures: Tuple[UnitFailure, ...]
    stats: SupervisorStats
    ledger: Tuple[AttemptRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def injected(self, kind: str) -> int:
        """How many attempts the fault plan hit with a ``kind`` fault."""
        return sum(1 for record in self.ledger if record.fault == kind)

    def unwrap(self) -> List:
        """The values as a list; raises a typed
        :class:`~repro.errors.SupervisionError` carrying the quarantined
        :class:`UnitFailure` records if any unit was quarantined."""
        if self.failures:
            raise SupervisionError(self.failures)
        return list(self.values)


#: (getter, setter) symbol pairs of the OpenBLAS thread count: the
#: scipy-openblas build bundled with numpy wheels, then plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _blas_handles() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """ctypes (getter, setter) of the loaded OpenBLAS's thread count.

    Looked up once, in the first process that maps units, over the
    OpenBLAS libraries listed in ``/proc/self/maps``; forked workers
    inherit the handles. ``None`` where there is no such file or no
    OpenBLAS is loaded -- pinning then does nothing.
    """
    if not sys.platform.startswith("linux"):
        return None
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                fields = line.split(None, 5)   # address perms ... pathname
                if len(fields) == 6 and "openblas" in fields[5].lower():
                    paths.add(fields[5].strip())
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's current thread count, ``None`` if unknown."""
    handles = _blas_handles()
    return None if handles is None else int(handles[0]())


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Pin BLAS to one thread for the block, then restore the caller's
    thread count (also when the block raises)."""
    handles = _blas_handles()
    if handles is None:
        yield
        return
    getter, setter = handles
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def _pin_worker_blas() -> None:
    """Worker bootstrap: one BLAS thread for the worker's life."""
    handles = _blas_handles()
    if handles is not None:
        handles[1](1)


def _worker(conn) -> None:
    """Worker-process body: run the units sent over ``conn`` until ``None``.

    A unit arrives as ``(fn, item, directive, hang_seconds)`` and is
    answered with one ``(kind, payload)`` message: ``("ok", value)``, or
    ``(POISON, detail)`` when it raised. The message is tagged by
    position, so no value a unit returns can pass for a failure.
    ``directive`` is the injected fault of this attempt, and it really
    happens here: ``os._exit`` (no answer -- the parent reads the EOF),
    a sleep (answered as a hang if no deadline cut it short), or a
    raised :class:`~repro.core.faults.PoisonError`.
    """
    _pin_worker_blas()
    for fn, item, directive, hang_seconds in iter(conn.recv, None):
        try:
            if directive is None:
                conn.send((_OK, fn(item)))
            else:
                run_injected_real_fault(directive, hang_seconds)
                conn.send((HANG, "injected hang returned under the deadline"))
        except Exception as exc:  # noqa: BLE001 -- typed quarantine
            conn.send((POISON, repr(exc)))


class _Worker:
    """One worker process, the parent's end of its pipe, and its unit."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=_worker, args=(child,))
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            child.close()
        self.index: Optional[int] = None        # unit in flight
        self.deadline: Optional[float] = None

    def stop(self) -> None:
        """Let an idle worker exit, terminate a busy one, and reap it."""
        if self.index is None:
            try:
                self.conn.send(None)
            except OSError:
                pass                            # already gone
        else:
            self.process.terminate()
        self.process.join()
        self.conn.close()


class _MapRun:
    """The supervision state of one :meth:`SupervisedPool.map` call."""

    def __init__(self, pool: "SupervisedPool", fn: Callable, items: List,
                 faults: Optional[FaultPlan]) -> None:
        self.pool = pool
        self.fn = fn
        self.items = items
        self.faults = faults
        self.attempts = [0] * len(items)    # failures charged, per unit
        self.results: List[object] = [None] * len(items)
        self.failures: Dict[int, UnitFailure] = {}
        self.ledger: List[AttemptRecord] = []
        self.rebuilds = 0
        self.degraded = False

    def outcome(self) -> MapOutcome:
        failures = tuple(self.failures[index] for index in sorted(self.failures))
        kinds = Counter(record.outcome for record in self.ledger)
        stats = SupervisorStats(
            attempts=len(self.ledger),
            retries=sum(1 for record in self.ledger if record.attempt),
            rebuilds=self.rebuilds, crashes=kinds[CRASH], hangs=kinds[HANG],
            poisoned=kinds[POISON], quarantined=len(failures),
            degraded=self.degraded)
        return MapOutcome(values=tuple(self.results), failures=failures,
                          stats=stats, ledger=tuple(self.ledger))

    def fault(self, index: int) -> Optional[str]:
        """The fault the plan injects into the unit's current attempt."""
        if self.faults is None:
            return None
        return self.faults.unit_fault(index, self.attempts[index])

    def succeed(self, index: int, value: object) -> None:
        # An attempt with an injected fault never runs ``fn``, so a
        # success carries none.
        self.results[index] = value
        self.ledger.append(AttemptRecord(index, self.attempts[index], _OK))

    def charge(self, index: int, kind: str, detail: str) -> bool:
        """Charge one failure to the unit; True while it may be retried."""
        attempt = self.attempts[index]
        self.ledger.append(AttemptRecord(index, attempt, kind,
                                         self.fault(index), detail))
        self.attempts[index] = attempt + 1
        if attempt + 1 <= self.pool.max_retries:
            return True
        self.failures[index] = UnitFailure(index=index, kind=kind,
                                           attempts=attempt + 1, detail=detail)
        return False

    def run_inline(self, indices: Iterable[int]) -> None:
        """Serial reference path, also the degradation target.

        Injected faults are simulated here (an actual ``os._exit`` would
        kill the supervisor itself; an actual sleep would stall it), but
        they are charged exactly as a worker reports them -- which keeps
        the ledger and the quarantine list identical between ``jobs=1``
        and any pooled run.
        """
        for index in indices:
            while index not in self.failures:
                directive = self.fault(index)
                if directive is not None:
                    self.charge(index, *_SIMULATED[directive])
                    continue
                try:
                    value = self.fn(self.items[index])
                except Exception as exc:  # noqa: BLE001 -- typed quarantine
                    self.charge(index, POISON, repr(exc))
                    continue
                self.succeed(index, value)
                break

    def start_worker(self, workers: List[_Worker]) -> bool:
        """Start one more worker; if the OS refuses, mark the map
        degraded and return False."""
        try:
            workers.append(_Worker())
        except OSError:
            self.degraded = True
            return False
        return True

    def send(self, worker: _Worker, index: int) -> None:
        directive = self.fault(index)
        hang_seconds = self.faults.hang_seconds if directive else None
        timeout = self.pool.unit_timeout
        worker.index = index
        worker.deadline = (time.monotonic() + timeout
                           if timeout is not None else None)
        try:
            worker.conn.send((self.fn, self.items[index], directive,
                              hang_seconds))
        except OSError:
            pass    # the worker died idle: its EOF is read as this crash

    def run_pooled(self, jobs: int) -> None:
        """Run every unit on ``jobs`` workers, each with one unit in flight."""
        queue = deque(range(len(self.items)))
        workers: List[_Worker] = []
        try:
            for _ in range(jobs):
                self.start_worker(workers)
            while True:
                for worker in workers:
                    if worker.index is None and queue:
                        self.send(worker, queue.popleft())
                busy = [worker for worker in workers if worker.index is not None]
                if not busy:
                    break
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                ready = wait([worker.conn for worker in busy], timeout)
                now = time.monotonic()
                for worker in busy:
                    index = worker.index
                    if worker.conn in ready:
                        try:
                            kind, payload = worker.conn.recv()
                            worker.index = None
                        except (EOFError, OSError):
                            worker.stop()
                            kind, payload = CRASH, (
                                "worker process died (exitcode "
                                f"{worker.process.exitcode})")
                    elif worker.deadline is not None and now >= worker.deadline:
                        worker.stop()
                        kind, payload = HANG, (
                            f"no result within {self.pool.unit_timeout}s deadline")
                    else:
                        continue
                    if kind == _OK:
                        self.succeed(index, payload)
                    elif self.charge(index, kind, payload):
                        queue.append(index)
                    if worker.index is not None:    # lost: replace it
                        workers.remove(worker)
                        if queue and self.start_worker(workers):
                            self.rebuilds += 1
        finally:
            for worker in workers:
                worker.stop()
        self.run_inline(queue)


class SupervisedPool:
    """Supervised worker processes that guarantee forward progress.

    Parameters
    ----------
    jobs:
        Worker-process count. ``1`` executes inline (no workers); the
        returned values are identical at every count.
    unit_timeout:
        Per-unit deadline in seconds (``None`` disables hang detection).
        Must comfortably exceed a legitimate unit's runtime: a unit still
        running at its deadline is charged a hang and re-issued.
    max_retries:
        Failure budget per unit; the unit is quarantined on failure
        ``max_retries + 1``.

    Each pooled :meth:`map` starts its workers and stops them before it
    returns; no process outlives the call.
    """

    def __init__(self, jobs: int = 1, unit_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise CampaignError(
                f"unit_timeout must be positive or None, got {unit_timeout}")
        self.jobs = jobs
        self.unit_timeout = unit_timeout
        self.max_retries = max_retries

    def map(self, fn: Callable, items: Sequence,
            faults: Optional[FaultPlan] = None) -> MapOutcome:
        """Order-preserving supervised map.

        ``faults`` injects real process-level faults:
        :meth:`~repro.core.faults.FaultPlan.unit_fault` decides each
        attempt of each unit, an injected hang sleeps the plan's
        ``hang_seconds``, and every attempt's fault lands in the
        :attr:`MapOutcome.ledger` (counted by
        :meth:`MapOutcome.injected`). Results come back by unit index,
        so completion order never reorders downstream aggregation;
        quarantined units are enumerated in :attr:`MapOutcome.failures`,
        sorted by index. Units run with single-threaded BLAS (see
        :func:`single_threaded_blas`).
        """
        run = _MapRun(self, fn, list(items), faults)
        with single_threaded_blas():
            if self.jobs <= 1 or len(run.items) <= 1:
                run.run_inline(range(len(run.items)))
            else:
                run.run_pooled(min(self.jobs, len(run.items)))
        return run.outcome()


__all__ = [
    "AttemptRecord",
    "CRASH",
    "DEFAULT_MAX_RETRIES",
    "HANG",
    "MapOutcome",
    "POISON",
    "SupervisedPool",
    "SupervisorStats",
    "UnitFailure",
]
