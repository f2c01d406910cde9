"""Supervised process-pool execution: real crash/hang/poison tolerance.

The paper's characterization framework (Fig. 2) exists because
sub-guardband runs crash, hang and wedge the harness -- the supervisor,
not the benchmark, must guarantee forward progress (the system-level
frameworks of Papadimitriou et al., arXiv:2106.09975, and the Scrooge
undervolting study, arXiv:2107.00416, make the same point). This module
brings that property to our own process pool: where
:func:`repro.core.parallel.parallel_map` used to die with a raw
``BrokenProcessPool`` the moment a worker really crashed, the
:class:`SupervisedPool` keeps the study moving:

- **per-unit deadlines** -- every submitted work unit carries a
  ``unit_timeout`` deadline; a unit that is still running past it is
  treated as hung, the wedged pool is torn down (worker processes
  terminated) and the unit is deterministically re-issued;
- **bounded retries** -- every attributed failure (crash, hang, poison
  exception) charges the unit's retry budget and lands in a structured
  attempt ledger; after ``max_retries`` charged failures the unit is
  *quarantined* and reported as a typed :class:`UnitFailure` instead of
  a stack trace;
- **transparent pool rebuild** -- a worker death (``os._exit``,
  segfault, OOM kill) breaks the whole ``ProcessPoolExecutor``; the
  supervisor rebuilds it and re-issues every unit that was in flight.
  Units lost *collaterally* (they shared the pool with the one that
  died) are re-issued free of charge, so retry budgets -- and therefore
  quarantine decisions -- do not depend on the worker count;
- **crash attribution** -- when several units were in flight during a
  break, the supervisor cannot know which one killed the worker, so the
  suspects re-run one at a time (attribution mode) until the culprit
  breaks the pool alone and is charged;
- **graceful degradation** -- if the pool cannot be rebuilt, execution
  falls back to inline serial mode (injected process-level faults are
  simulated there, since a real ``os._exit`` would take down the
  supervisor itself);
- **single-threaded BLAS in every unit** -- units run with OpenBLAS
  pinned to one thread, inline (restored to the caller's setting when
  the map returns) and in every pool worker (pinned at worker start).
  A unit is one process's worth of work: a multithreaded BLAS inside it
  only spins a second thread against the other units, or against the
  unit's own Python code, for GEMMs far too small to gain from it.

Because work units are deterministic and results are collected by unit
index, a run under any real-fault schedule converges to results
bit-identical to a clean run, with quarantined units enumerated
deterministically -- the property ``tests/test_supervisor.py`` locks
down end to end.
"""

from __future__ import annotations

import ctypes
import sys
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.faults import (
    SPURIOUS_ESCALATION,
    UNIT_EXIT,
    UNIT_HANG,
    UNIT_POISON,
    WORKER_KILL,
    PoisonError,
    run_injected_real_fault,
)
from repro.errors import CampaignError, SupervisionError

#: Failure taxonomy reported by :class:`UnitFailure`.
CRASH = "crash"          #: the worker process died while running the unit
HANG = "hang"            #: the unit ran past its deadline
POISON = "poison"        #: the unit raised an exception
POOL_BROKEN = "pool-broken"  #: the pool could not be rebuilt around the unit

#: Default retry budget: a unit is quarantined after ``max_retries + 1``
#: attributed failures.
DEFAULT_MAX_RETRIES = 3

#: Default sleep of an injected hang (seconds). Kept short so plans stay
#: convergent even without a deadline: the sleeping attempt eventually
#: returns and is charged as a hang.
DEFAULT_HANG_SECONDS = 1.0


@dataclass(frozen=True)
class UnitFailure:
    """One quarantined work unit, as a typed record (not a traceback)."""

    index: int              #: position of the unit in the submitted items
    kind: str               #: one of CRASH / HANG / POISON / POOL_BROKEN
    attempts: int           #: attributed failures charged before quarantine
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
    attempt: int            #: attributed attempt number at submission
    outcome: str            #: "ok", a taxonomy kind, an injected fault
    #: kind, or "pool-broken" for a collateral loss
    charged: bool = False   #: whether this outcome consumed retry budget
    detail: str = ""


@dataclass
class SupervisorStats:
    """What the supervisor actually did, for reporting and manifests."""

    attempts: int = 0            #: work-unit submissions (incl. inline)
    retries: int = 0             #: re-submissions after any kind of loss
    rebuilds: int = 0            #: pool teardown + rebuild events
    crashes: int = 0             #: attributed worker deaths
    hangs: int = 0               #: attributed deadline overruns
    poisoned: int = 0            #: attributed unit exceptions
    collateral_losses: int = 0   #: units lost to another unit's fault
    quarantined: int = 0         #: units that exhausted their budget
    degraded: bool = False       #: fell back to inline serial execution

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "poisoned": self.poisoned,
            "collateral_losses": self.collateral_losses,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
        }

    def describe(self) -> str:
        text = (f"{self.attempts} attempts, {self.retries} retries, "
                f"{self.rebuilds} pool rebuilds, "
                f"{self.quarantined} quarantined")
        return text + (" [degraded to serial]" if self.degraded else "")


@dataclass(frozen=True)
class MapOutcome:
    """Everything a supervised map produced.

    ``values`` has one slot per input item, ``None`` where the unit was
    quarantined; ``failures`` enumerates the quarantined units sorted by
    index (deterministically, at any worker count).
    """

    values: Tuple
    failures: Tuple[UnitFailure, ...]
    stats: SupervisorStats
    ledger: Tuple[AttemptRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class _UnitResult:
    """Tagged envelope a worker returns instead of the bare value.

    Results are recognised by ``isinstance``, never compared by value,
    so a work unit may legitimately return *any* object -- including one
    equal to a sentinel -- without being mistaken for a doomed attempt.
    """

    ok: bool
    value: object = None
    fault: Optional[str] = None


def _supervised_unit(task):
    """Worker body: execute one unit, honouring an injected fault.

    ``directive`` is the parent-computed injected fault for this attempt
    (or ``None``): simulated losses (legacy worker kills / spurious
    escalations) return a tagged envelope; *real* process-level faults
    actually happen in this process -- ``os._exit``, a deadline-busting
    sleep, a raised poison exception -- so the supervisor's recovery
    machinery is exercised for real, not simulated.
    """
    fn, item, directive, hang_seconds = task
    if directive is not None:
        marker = run_injected_real_fault(directive, hang_seconds)
        return _UnitResult(ok=False, fault=marker)
    return _UnitResult(ok=True, value=fn(item))


class _UnitState:
    """Mutable supervision state of one work unit."""

    __slots__ = ("index", "attempt", "charged", "last_kind", "last_detail",
                 "submissions", "failure")

    def __init__(self, index: int) -> None:
        self.index = index
        self.attempt = 0        # next injected-fault attempt to consult;
        # advances on every *attributed* loss, never on collateral ones,
        # so injected schedules replay identically at any worker count
        self.charged = 0        # attributed real failures (retry budget)
        self.last_kind = ""
        self.last_detail = ""
        self.submissions = 0
        self.failure: Optional[UnitFailure] = None


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly wedged or broken) pool down, hard.

    ``shutdown(wait=False)`` alone would leave a hung worker running its
    ``time.sleep`` (or a real infinite loop) forever; terminating the
    worker processes directly reclaims them. ``_processes`` is a CPython
    implementation detail, so every touch is defensive.
    """
    try:
        processes = list((getattr(pool, "_processes", None) or {}).values())
    except Exception:
        processes = []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
        except Exception:
            pass


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
    """Pool-worker initializer: one BLAS thread for the worker's life."""
    handles = _blas_handles()
    if handles is not None:
        handles[1](1)


class SupervisedPool:
    """A future-based process pool that guarantees forward progress.

    Parameters
    ----------
    jobs:
        Worker-process count. ``1`` executes inline (no pool); the
        returned values are identical at every count.
    unit_timeout:
        Per-unit deadline in seconds (``None`` disables hang detection).
        Must comfortably exceed a legitimate unit's runtime: a unit still
        running at its deadline is charged a hang and re-issued.
    max_retries:
        Attributed-failure budget per unit; the unit is quarantined on
        failure ``max_retries + 1``.
    serial_fallback:
        When the pool cannot be rebuilt, ``True`` (default) degrades to
        inline serial execution; ``False`` quarantines the remaining
        units as :data:`POOL_BROKEN`.

    One pool instance is reused across every retry round of a
    :meth:`map` call (and across successive calls), instead of the old
    build-and-tear-down-per-round cycle; it is only ever rebuilt when a
    worker death or hang actually breaks it.
    """

    def __init__(self, jobs: int = 1, unit_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 serial_fallback: bool = True) -> None:
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
        self.serial_fallback = serial_fallback
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool_factory(self) -> ProcessPoolExecutor:
        """Build the worker pool (overridable in tests)."""
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   initializer=_pin_worker_blas)

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The live pool, building one on demand; ``None`` if unbuildable."""
        if self._pool is None:
            try:
                self._pool = self._pool_factory()
            except Exception:
                self._pool = None
        return self._pool

    def _teardown(self) -> None:
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                _terminate_pool(self._pool)
            self._pool = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Supervised map
    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence,
            inject: Optional[Callable[[int, int], Optional[str]]] = None,
            hang_seconds: float = DEFAULT_HANG_SECONDS) -> MapOutcome:
        """Order-preserving supervised map.

        ``inject(index, attempt)`` (usually
        :meth:`repro.core.faults.FaultInjector.unit_fault`) supplies the
        injected fault directive for each attributed attempt of each
        unit, or ``None`` for a clean attempt. Results come back by unit
        index, so completion order never reorders downstream
        aggregation; quarantined units are enumerated in
        :attr:`MapOutcome.failures`, sorted by index. Units run with
        single-threaded BLAS (see :func:`single_threaded_blas`).
        """
        items = list(items)
        stats = SupervisorStats()
        ledger: List[AttemptRecord] = []
        states = [_UnitState(index) for index in range(len(items))]
        results: List[object] = [None] * len(items)
        done = [False] * len(items)
        with single_threaded_blas():
            if self.jobs <= 1 or len(items) <= 1:
                self._run_inline(fn, items, list(range(len(items))), inject,
                                 states, results, done, stats, ledger)
            else:
                self._run_pooled(fn, items, inject, hang_seconds,
                                 states, results, done, stats, ledger)
        failures = tuple(sorted((s.failure for s in states
                                 if s.failure is not None),
                                key=lambda f: f.index))
        return MapOutcome(values=tuple(results), failures=failures,
                          stats=stats, ledger=tuple(ledger))

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _charge(self, state: _UnitState, kind: str, detail: str,
                stats: SupervisorStats, ledger: List[AttemptRecord]) -> bool:
        """Charge one attributed real failure; returns True on quarantine."""
        ledger.append(AttemptRecord(state.index, state.attempt, kind,
                                    charged=True, detail=detail))
        state.attempt += 1
        state.charged += 1
        state.last_kind = kind
        state.last_detail = detail
        if kind == CRASH:
            stats.crashes += 1
        elif kind == HANG:
            stats.hangs += 1
        elif kind == POISON:
            stats.poisoned += 1
        if state.charged > self.max_retries:
            state.failure = UnitFailure(
                index=state.index, kind=kind, attempts=state.charged,
                detail=detail)
            stats.quarantined += 1
            return True
        return False

    def _free_loss(self, state: _UnitState, outcome: str,
                   ledger: List[AttemptRecord], attributed: bool) -> None:
        """Record an uncharged loss; attributed ones advance the injected
        schedule, collateral ones replay the same attempt."""
        ledger.append(AttemptRecord(state.index, state.attempt, outcome,
                                    charged=False))
        if attributed:
            state.attempt += 1

    @staticmethod
    def _classify_injected(directive: str) -> Tuple[str, str]:
        """Taxonomy kind + detail of a simulated injected real fault."""
        if directive == UNIT_EXIT:
            return CRASH, "injected worker os._exit (simulated inline)"
        if directive == UNIT_HANG:
            return HANG, "injected deadline hang (simulated inline)"
        return POISON, "injected poison exception (simulated inline)"

    # ------------------------------------------------------------------
    # Inline (serial) execution -- jobs=1 and pool-degraded mode
    # ------------------------------------------------------------------
    def _run_inline(self, fn, items, indices, inject, states, results,
                    done, stats, ledger) -> None:
        """Serial reference path, also the degradation target.

        Injected *real* faults are simulated here (an actual ``os._exit``
        would kill the supervisor itself; an actual sleep would stall
        it), but they are still charged and quarantined exactly as the
        pool observes them -- which is what keeps quarantine lists
        identical between ``jobs=1`` and any pool run.
        """
        for index in indices:
            state = states[index]
            while not done[index] and state.failure is None:
                directive = inject(index, state.attempt) if inject else None
                stats.attempts += 1
                if state.submissions > 0:
                    stats.retries += 1
                state.submissions += 1
                if directive in (WORKER_KILL, SPURIOUS_ESCALATION):
                    self._free_loss(state, directive, ledger, attributed=True)
                    continue
                if directive in (UNIT_EXIT, UNIT_HANG, UNIT_POISON):
                    kind, detail = self._classify_injected(directive)
                    self._charge(state, kind, detail, stats, ledger)
                    continue
                try:
                    value = fn(items[index])
                except Exception as exc:  # noqa: BLE001 -- typed quarantine
                    self._charge(state, POISON, repr(exc), stats, ledger)
                    continue
                results[index] = value
                done[index] = True
                ledger.append(AttemptRecord(index, state.attempt, "ok"))

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pooled(self, fn, items, inject, hang_seconds,
                    states, results, done, stats, ledger) -> None:
        normal_q: Deque[int] = deque(range(len(items)))
        careful_q: Deque[int] = deque()   # suspects needing solo attribution
        in_flight: Dict[object, Tuple[int, Optional[float]]] = {}
        solo_active = False               # a known-doomed attempt runs alone

        def remaining_indices() -> List[int]:
            lost = [index for index, _ in in_flight.values()]
            queued = list(careful_q) + list(normal_q)
            return sorted(set(lost + queued))

        def degrade() -> bool:
            """Pool is gone for good: finish inline or quarantine."""
            stats.degraded = True
            leftovers = remaining_indices()
            in_flight.clear()
            careful_q.clear()
            normal_q.clear()
            if self.serial_fallback:
                self._run_inline(fn, items, leftovers, inject, states,
                                 results, done, stats, ledger)
            else:
                for index in leftovers:
                    state = states[index]
                    state.failure = UnitFailure(
                        index=index, kind=POOL_BROKEN,
                        attempts=state.charged,
                        detail="process pool could not be rebuilt")
                    stats.quarantined += 1
                    ledger.append(AttemptRecord(index, state.attempt,
                                                POOL_BROKEN, charged=False))
            return self._pool is not None

        def rebuild_after(reason_losses: List[Tuple[int, bool]]) -> bool:
            """Tear down + rebuild; re-queue lost units. Returns False when
            the pool is unrecoverable (degradation already handled)."""
            nonlocal solo_active
            solo_active = False
            stats.rebuilds += 1
            for index, attributed in reason_losses:
                if not attributed:
                    stats.collateral_losses += 1
                    self._free_loss(states[index], POOL_BROKEN, ledger,
                                    attributed=False)
            self._teardown()
            if self._ensure_pool() is None:
                degrade()
                return False
            return True

        def handle_break(suspects: List[int]) -> bool:
            """A worker died. One suspect: attribute + charge. Several:
            collateral re-issue, then solo attribution runs."""
            in_flight.clear()
            suspects = sorted(set(suspects))
            losses: List[Tuple[int, bool]] = []
            if len(suspects) == 1:
                index = suspects[0]
                quarantined = self._charge(
                    states[index], CRASH,
                    "worker process died before reporting", stats, ledger)
                if not quarantined:
                    careful_q.append(index)
            else:
                for index in suspects:
                    losses.append((index, False))
                    careful_q.append(index)
            careful = sorted(set(careful_q))
            careful_q.clear()
            careful_q.extend(careful)
            return rebuild_after(losses)

        def handle_hangs(expired: List[int], collateral: List[int]) -> bool:
            """Deadline overruns: charge the hung units, free-reissue the
            rest, and replace the wedged pool."""
            in_flight.clear()
            losses = [(index, False) for index in sorted(set(collateral))]
            for index in sorted(set(expired)):
                quarantined = self._charge(
                    states[index], HANG,
                    f"no result within {self.unit_timeout}s deadline",
                    stats, ledger)
                if not quarantined:
                    normal_q.appendleft(index)
            for index in sorted(set(collateral), reverse=True):
                normal_q.appendleft(index)
            return rebuild_after(losses)

        if self._ensure_pool() is None:
            degrade()
            return

        while normal_q or careful_q or in_flight:
            # ----------------------------------------------------- submit
            pool = self._pool
            if pool is None:
                degrade()
                return
            capacity = 1 if (careful_q or solo_active) else self.jobs
            submitted_break = False
            while (careful_q or normal_q) and len(in_flight) < capacity \
                    and not solo_active:
                queue = careful_q if careful_q else normal_q
                index = queue.popleft()
                state = states[index]
                if done[index] or state.failure is not None:
                    continue
                directive = inject(index, state.attempt) if inject else None
                goes_solo = directive == UNIT_EXIT or queue is careful_q
                if goes_solo and in_flight:
                    # Known-doomed or under-attribution attempts run alone
                    # so the coming pool break is attributable to them.
                    queue.appendleft(index)
                    break
                stats.attempts += 1
                if state.submissions > 0:
                    stats.retries += 1
                state.submissions += 1
                deadline = (time.monotonic() + self.unit_timeout
                            if self.unit_timeout is not None else None)
                task = (fn, items[index], directive, hang_seconds)
                try:
                    future = pool.submit(_supervised_unit, task)
                except (BrokenExecutor, RuntimeError):
                    queue.appendleft(index)
                    state.submissions -= 1
                    stats.attempts -= 1
                    if state.submissions > 0:
                        stats.retries -= 1
                    submitted_break = True
                    break
                in_flight[future] = (index, deadline)
                if goes_solo:
                    solo_active = True
                    break
            if submitted_break:
                if not handle_break([i for i, _ in in_flight.values()]):
                    return
                continue
            if not in_flight:
                continue

            # ------------------------------------------------------- wait
            timeout = None
            if self.unit_timeout is not None:
                deadlines = [d for _, d in in_flight.values()
                             if d is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
            done_futures, _ = wait(set(in_flight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)

            # ---------------------------------------------------- resolve
            broken_suspects: List[int] = []
            for future in done_futures:
                if future not in in_flight:
                    continue
                index, _ = in_flight.pop(future)
                state = states[index]
                exc = future.exception()
                if exc is None:
                    envelope = future.result()
                    if isinstance(envelope, _UnitResult) and envelope.ok:
                        results[index] = envelope.value
                        done[index] = True
                        solo_active = False
                        ledger.append(AttemptRecord(index, state.attempt,
                                                    "ok"))
                    elif isinstance(envelope, _UnitResult) \
                            and envelope.fault == UNIT_HANG:
                        # The injected sleep finished under the deadline:
                        # an attributed (charged) hang all the same.
                        solo_active = False
                        self._charge(state, HANG,
                                     "injected hang returned under the "
                                     "deadline", stats, ledger)
                        if state.failure is None:
                            normal_q.append(index)
                    else:
                        # Legacy simulated loss (worker kill / spurious
                        # escalation): free re-issue, schedule advances.
                        fault = envelope.fault if isinstance(
                            envelope, _UnitResult) else WORKER_KILL
                        solo_active = False
                        self._free_loss(state, fault, ledger,
                                        attributed=True)
                        normal_q.append(index)
                elif isinstance(exc, BrokenExecutor):
                    broken_suspects.append(index)
                else:
                    solo_active = False
                    self._charge(state, POISON, repr(exc), stats, ledger)
                    if state.failure is None:
                        normal_q.append(index)
            if broken_suspects:
                suspects = broken_suspects + [i for i, _ in
                                              in_flight.values()]
                if not handle_break(suspects):
                    return
                continue

            # ------------------------------------------------- deadlines
            if self.unit_timeout is not None and in_flight:
                now = time.monotonic()
                expired = [index for _, (index, deadline) in
                           in_flight.items()
                           if deadline is not None and now >= deadline]
                if expired:
                    collateral = [index for _, (index, deadline) in
                                  in_flight.items() if index not in expired]
                    if not handle_hangs(expired, collateral):
                        return


def supervised_map(fn: Callable, items: Sequence, jobs: int = 1,
                   unit_timeout: Optional[float] = None,
                   max_retries: int = DEFAULT_MAX_RETRIES,
                   serial_fallback: bool = True,
                   inject: Optional[Callable[[int, int],
                                             Optional[str]]] = None,
                   hang_seconds: float = DEFAULT_HANG_SECONDS) -> MapOutcome:
    """One-shot supervised map: build a pool, run, tear it down.

    Returns the full :class:`MapOutcome` (values + typed failures +
    stats + ledger); callers that want a plain list with quarantine as a
    typed exception use :func:`repro.core.parallel.parallel_map`.
    """
    with SupervisedPool(jobs=jobs, unit_timeout=unit_timeout,
                        max_retries=max_retries,
                        serial_fallback=serial_fallback) as pool:
        return pool.map(fn, items, inject=inject, hang_seconds=hang_seconds)


def raise_on_failures(outcome: MapOutcome) -> MapOutcome:
    """Raise a typed :class:`~repro.errors.SupervisionError` if any unit
    was quarantined; otherwise pass the outcome through."""
    if outcome.failures:
        raise SupervisionError(outcome.failures)
    return outcome


__all__ = [
    "AttemptRecord",
    "CRASH",
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_MAX_RETRIES",
    "HANG",
    "MapOutcome",
    "POISON",
    "POOL_BROKEN",
    "SupervisedPool",
    "SupervisorStats",
    "UnitFailure",
    "raise_on_failures",
    "supervised_map",
]
