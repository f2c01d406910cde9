"""Supervised units run with single-threaded BLAS.

:meth:`SupervisedPool.map` pins OpenBLAS to one thread while units run
inline and in every pool worker, and gives the caller back its own
thread count afterwards -- also when a unit raises. Where no OpenBLAS
handle is found the pin does nothing and ``map`` works as before.
"""

import functools
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import supervisor
from repro.core.supervisor import POISON, blas_threads, supervised_map

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
    outcome = supervised_map(_report_threads, range(4), jobs=jobs)
    assert outcome.values == (1, 1, 1, 1)
    assert blas_threads() == caller_threads


@pytest.mark.slow
def test_workers_that_do_not_inherit_the_pin_are_pinned(monkeypatch,
                                                        caller_threads):
    """Spawned workers start from a fresh import, not from the parent's
    pinned state; the pool's initializer pins them."""
    spawning = functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(supervisor, "ProcessPoolExecutor", spawning)
    assert supervised_map(_report_threads, range(2), jobs=2).values == (1, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_thread_count_restored_when_a_unit_raises(caller_threads, jobs):
    outcome = supervised_map(_raise, range(2), jobs=jobs, max_retries=0)
    assert [f.kind for f in outcome.failures] == [POISON, POISON]
    assert blas_threads() == caller_threads


def test_thread_count_restored_when_map_itself_raises(caller_threads):
    def inject(index, attempt):
        raise KeyError("injector bug")

    with pytest.raises(KeyError):
        supervised_map(_report_threads, range(2), jobs=1, inject=inject)
    assert blas_threads() == caller_threads


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_works_without_a_blas_handle(monkeypatch, caller_threads, jobs):
    monkeypatch.setattr(supervisor, "_blas_handles", lambda: None)
    assert supervised_map(_square, range(3), jobs=jobs).values == (0, 1, 4)
    assert blas_threads() is None
    monkeypatch.undo()
    assert blas_threads() == caller_threads
