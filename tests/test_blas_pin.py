"""Supervised units run with single-threaded BLAS.

:meth:`SupervisedPool.map` pins OpenBLAS to one thread while units run
inline and in every pool worker, and gives the caller back its own
thread count afterwards -- also when a unit raises. Where no OpenBLAS
handle is found the pin does nothing and ``map`` works as before.
"""

import multiprocessing
import sys

import pytest

from repro.core import supervisor
from repro.core.faults import FaultPlan
from repro.core.supervisor import POISON, SupervisedPool, blas_threads

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or blas_threads() is None,
    reason="the BLAS pin looks OpenBLAS up in /proc/self/maps (Linux)")


def _report_threads(_):
    return blas_threads()


def _square(x):
    return x * x


def _raise(_):
    raise RuntimeError("unit failed")


@pytest.fixture
def caller_threads():
    """Give the caller a thread count other than the pin's, then restore."""
    getter, setter = supervisor._blas_handles()
    before = getter()
    setter(2)
    yield 2
    setter(before)


@pytest.mark.parametrize("jobs", [1, 2])
def test_units_see_one_thread_and_the_caller_gets_its_own_back(
        caller_threads, jobs):
    outcome = SupervisedPool(jobs=jobs).map(_report_threads, range(4))
    assert outcome.values == (1, 1, 1, 1)
    assert blas_threads() == caller_threads


@pytest.mark.slow
def test_workers_that_do_not_inherit_the_pin_are_pinned(monkeypatch,
                                                        caller_threads):
    """Spawned workers start from a fresh import, not from the parent's
    pinned state; the worker bootstrap pins them."""
    monkeypatch.setattr(multiprocessing, "Process",
                        multiprocessing.get_context("spawn").Process)
    assert SupervisedPool(jobs=2).map(_report_threads, range(2)).values \
        == (1, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_thread_count_restored_when_a_unit_raises(caller_threads, jobs):
    outcome = SupervisedPool(jobs=jobs, max_retries=0).map(_raise, range(2))
    assert [f.kind for f in outcome.failures] == [POISON, POISON]
    assert blas_threads() == caller_threads


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
    monkeypatch.setattr(supervisor, "_blas_handles", lambda: None)
    assert SupervisedPool(jobs=jobs).map(_square, range(3)).values == (0, 1, 4)
    assert blas_threads() is None
    monkeypatch.undo()
    assert blas_threads() == caller_threads
