"""Shared fixtures for the test suite.

Everything is seeded so the suite is fully deterministic; fixtures that
are expensive to build (reference chips, evolved viruses, DRAM
populations) are session-scoped.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.core.executor import CampaignExecutor
from repro.core.vmin import VminSearch
from repro.dram.cells import DramDevicePopulation
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_platform, build_reference_chips

TEST_SEED = 1234

#: Per-test hang guard (seconds) when pytest-timeout is not installed;
#: the same bound as the ``timeout`` option in pyproject.toml.
HANG_GUARD_S = 300

#: Duplicate of the terminal's stderr for the guard's traceback dump
#: (test output capture redirects the real one); None with the plugin.
_guard_stderr = None


def pytest_configure(config):
    global _guard_stderr
    if not config.pluginmanager.hasplugin("timeout"):
        _guard_stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    global _guard_stderr
    if _guard_stderr is not None:
        os.close(_guard_stderr)
        _guard_stderr = None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Without pytest-timeout, a test that runs past :data:`HANG_GUARD_S`
    dumps every thread's traceback and exits the run instead of wedging
    it. With the plugin this does nothing."""
    if _guard_stderr is None:
        yield
        return
    faulthandler.dump_traceback_later(HANG_GUARD_S, exit=True,
                                      file=_guard_stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def seed() -> int:
    return TEST_SEED


@pytest.fixture(scope="session")
def reference_chips():
    """The paper's three zero-jitter sigma parts."""
    return build_reference_chips(seed=TEST_SEED)


@pytest.fixture(scope="session")
def ttt_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TTT]


@pytest.fixture(scope="session")
def tff_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TFF]


@pytest.fixture(scope="session")
def tss_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TSS]


@pytest.fixture()
def ttt_executor(ttt_chip) -> CampaignExecutor:
    return CampaignExecutor(ttt_chip, seed=TEST_SEED)


@pytest.fixture()
def ttt_search(ttt_executor) -> VminSearch:
    return VminSearch(ttt_executor, repetitions=5)


@pytest.fixture(scope="session")
def ttt_platform():
    return build_platform(ProcessCorner.TTT, seed=TEST_SEED)


@pytest.fixture(scope="session")
def dram_population() -> DramDevicePopulation:
    return DramDevicePopulation(seed=TEST_SEED)


@pytest.fixture(scope="session")
def evolved_virus():
    """A small but converged GA run (session-scoped: reused everywhere)."""
    from repro.viruses.didt import evolve_didt_virus
    return evolve_didt_virus(seed=TEST_SEED, generations=8, population=16)
