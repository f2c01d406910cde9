"""The GA's waveform GEMMs run with single-threaded BLAS, for every caller.

The Toeplitz GEMM in :func:`repro.cpu.execution._synthesize` is the only
BLAS call of a GA evaluation, and it runs inside
:func:`~repro.cpu.execution.single_threaded_blas`: one OpenBLAS thread
for the GEMM, and the caller's own thread count back afterwards -- also
when the block raises. The tests read the thread count the GEMM itself
sees (a spy around ``np.matmul`` for the duration of a call) in a call
outside any map, inline and in pool workers, forked or spawned. Where no OpenBLAS
handle is found the pin does nothing and synthesis works as before.
"""

import multiprocessing
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.faults import FaultPlan
from repro.core.supervisor import POISON, SupervisedPool
from repro.cpu import execution
from repro.cpu.execution import ExecutionModel, blas_threads
from repro.cpu.isa import GA_ALPHABET
from repro.cpu.kernels import InstructionLoop
from repro.viruses.didt import evolve_didt_virus

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or blas_threads() is None,
    reason="the BLAS pin looks OpenBLAS up in /proc/self/maps (Linux)")


def _loops(size):
    return [InstructionLoop.of(GA_ALPHABET[i % 5:i % 5 + 2 + i])
            for i in range(size)]


@contextmanager
def _matmul_spy(raises=False):
    """Record the BLAS thread count every ``np.matmul`` call runs under
    (and optionally fail the call), for the duration of the block."""
    seen = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        if raises:
            raise RuntimeError("GEMM failed")
        return matmul(*args, **kwargs)

    np.matmul = spy
    try:
        yield seen
    finally:
        np.matmul = matmul


def _gemm_threads(size):
    """Work unit: synthesize ``size`` waveforms and return the thread
    count each GEMM saw."""
    with _matmul_spy() as seen:
        ExecutionModel().waveform_block(_loops(size))
    return seen


def _gemm_raises(size):
    with _matmul_spy(raises=True):
        ExecutionModel().waveform_block(_loops(size))


def _synthesized(size):
    return ExecutionModel().waveform_block(_loops(size))


@pytest.fixture
def caller_threads():
    """Give the caller a thread count other than the pin's, then restore."""
    getter, setter = execution._blas_handles()
    before = getter()
    setter(2)
    yield 2
    setter(before)


def test_the_ga_outside_any_map_runs_its_gemm_on_one_thread(caller_threads):
    """``run_figure9``, the examples and library callers reach the GA
    without a supervised map, and get the pin all the same."""
    with _matmul_spy() as seen:
        evolve_didt_virus(seed=5, generations=2, population=6)
    assert seen and set(seen) == {1}
    assert blas_threads() == caller_threads


@pytest.mark.parametrize("jobs", [1, 2])
def test_units_see_one_thread_and_the_caller_gets_its_own_back(
        caller_threads, jobs):
    outcome = SupervisedPool(jobs=jobs).map(_gemm_threads, range(1, 5))
    assert [set(seen) for seen in outcome.values] == [{1}] * 4
    assert blas_threads() == caller_threads


@pytest.mark.slow
def test_workers_that_do_not_inherit_the_pin_are_pinned(monkeypatch,
                                                        caller_threads):
    """Spawned workers start from a fresh import, not from the parent's
    state; their GEMMs are pinned where they run."""
    monkeypatch.setattr(multiprocessing, "Process",
                        multiprocessing.get_context("spawn").Process)
    outcome = SupervisedPool(jobs=2).map(_gemm_threads, range(1, 3))
    assert [set(seen) for seen in outcome.values] == [{1}, {1}]


def test_thread_count_restored_when_the_gemm_raises(caller_threads):
    with _matmul_spy(raises=True) as seen, pytest.raises(RuntimeError):
        ExecutionModel().waveform_block(_loops(2))
    assert seen == [1]
    assert blas_threads() == caller_threads


@pytest.mark.parametrize("jobs", [1, 2])
def test_thread_count_restored_when_a_unit_raises(caller_threads, jobs):
    outcome = SupervisedPool(jobs=jobs, max_retries=0).map(_gemm_raises,
                                                           range(1, 3))
    assert [f.kind for f in outcome.failures] == [POISON, POISON]
    assert blas_threads() == caller_threads


def _report_threads(_):
    return blas_threads()


class _BrokenPlan(FaultPlan):
    def unit_fault(self, unit, attempt):
        raise KeyError("fault plan bug")


def test_thread_count_restored_when_map_itself_raises(caller_threads):
    with pytest.raises(KeyError):
        SupervisedPool(jobs=1).map(_report_threads, range(2),
                                   faults=_BrokenPlan())
    assert blas_threads() == caller_threads


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_works_without_a_blas_handle(monkeypatch, caller_threads, jobs):
    pinned = SupervisedPool(jobs=jobs).map(_synthesized, range(1, 4)).values
    monkeypatch.setattr(execution, "_blas_handles", lambda: None)
    assert blas_threads() is None
    with _matmul_spy() as seen:
        alone = ExecutionModel().waveform_block(_loops(3))
    assert seen and set(seen) == {None}
    unpinned = SupervisedPool(jobs=jobs).map(_synthesized, range(1, 4)).values
    assert all(map(np.array_equal, pinned, unpinned))
    assert np.array_equal(alone, pinned[-1])
    monkeypatch.undo()
    assert blas_threads() == caller_threads
