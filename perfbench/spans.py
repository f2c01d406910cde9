"""Span tracing around the public functions of each layer.

The tracer lives entirely in the benchmark: :func:`install` replaces a
layer's public function (or method) with a wrapper that records one span
per call -- name, start, end and the enclosing span -- plus the work
counters the call can report. A function imported by name into other
modules (``substream``, ``encode_row``) is replaced everywhere the
program looks it up, so every caller is seen. Spans stay in memory until
the run ends; :func:`layer_stats` derives each layer's call count, busy
time (inclusive) and self time (minus the traced child spans).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span and counter store for one pass of campaigns."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[Tuple[str, str], float] = {}
        self._stack: List[int] = [-1]

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def count(self, name: str, counter: str, value: float) -> None:
        key = (name, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def spans(self) -> Iterator[Tuple[str, float, float, int]]:
        return zip(self.names, self.starts, self.ends, self.parents)


def untraced(name: str, fn: Callable, *args, **kwargs):
    """:meth:`Tracer.call` for a pass that records nothing."""
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Hook:
    """One traced public function.

    ``target`` is ``module:attribute`` or ``module:Class.method``.
    ``before(args)`` snapshots state the counters need;
    ``counts(args, kwargs, result, snapshot)`` returns counter increments.
    ``time_units`` (``SupervisedPool.map`` only) also spans each work unit.
    """

    span: str
    target: str
    counts: Optional[Callable] = None
    before: Optional[Callable] = None
    time_units: bool = False


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _checkpoint_bytes(args, kwargs, result, snapshot):
    checkpoint, token = args[0], _arg(args, kwargs, 1, "token")
    return {"bytes": os.path.getsize(checkpoint._rows_path(token))}


#: The layers the benchmark traces, by module, with their work counters.
LAYER_HOOKS = (
    Hook("rand.substream", "repro.rand:substream"),
    Hook("cpu.execution.waveform_block",
         "repro.cpu.execution:ExecutionModel.waveform_block",
         counts=lambda a, k, r, s: {"loops": len(r)}),
    Hook("pdn.em.clean_block", "repro.pdn.em:EmSensor.clean_block",
         counts=lambda a, k, r, s: {"rows": len(r[0])}),
    Hook("pdn.em.read_amplitude", "repro.pdn.em:EmSensor.read_amplitude"),
    Hook("viruses.didt.fitness_batch", "repro.viruses.didt:EmFitness.batch",
         before=lambda a: len(a[0]._clean_cache),
         counts=lambda a, k, r, s: {"evaluations": len(r),
                                    "synthesized": len(a[0]._clean_cache) - s}),
    Hook("viruses.genetic.run", "repro.viruses.genetic:GeneticAlgorithm.run"),
    Hook("core.vmin.search", "repro.core.vmin:VminSearch.search"),
    Hook("soc.chip.observe_run_block", "repro.soc.chip:Chip.observe_run_block",
         counts=lambda a, k, r, s: {"samples": int(r.size)}),
    Hook("core.executor.execute_run",
         "repro.core.executor:CampaignExecutor.execute_run",
         before=lambda a: len(a[0].store),
         counts=lambda a, k, r, s: {"rows": len(a[0].store) - s}),
    Hook("core.watchdog.supervise", "repro.core.watchdog:Watchdog.supervise"),
    Hook("core.transport.encode_row", "repro.core.transport:encode_row"),
    Hook("core.transport.decode_row", "repro.core.transport:decode_row"),
    Hook("core.transport.send", "repro.core.transport:SerialLink.send",
         before=lambda a: a[0].stats.attempts,
         counts=lambda a, k, r, s: {"attempts": a[0].stats.attempts - s,
                                    "delivered": int(bool(r))}),
    Hook("core.transport.cloud_receive",
         "repro.core.transport:CloudStore.receive"),
    Hook("core.checkpoint.save", "repro.core.checkpoint:CampaignCheckpoint.save",
         counts=_checkpoint_bytes),
    Hook("dram.cells.device_unique_locations",
         "repro.dram.cells:DramDevicePopulation.device_unique_locations"),
    Hook("dram.cells.bank_map", "repro.dram.cells:DramDevicePopulation.bank_map"),
    Hook("dram.controller.scrub_bank",
         "repro.dram.controller:MemoryControlUnit.scrub_bank",
         counts=lambda a, k, r, s: {"words_scanned": r.words_scanned}),
    Hook("thermal.testbed.run", "repro.thermal.testbed:ThermalTestbed.run",
         counts=lambda a, k, r, s: {"virtual_s": _arg(a, k, 1, "duration_s")}),
    Hook("thermal.monitor.observe", "repro.thermal.monitor:ZoneMonitor.observe"),
)

SUPERVISOR_SPAN = "core.supervisor.map"
UNIT_SPAN = "core.supervisor.unit"


def _supervisor_counts(args, kwargs, result, snapshot):
    stats, units = result.stats, len(result.values)
    # A map of one unit runs inline whatever the pool size.
    workers = 1 if units <= 1 else min(args[0].jobs, units)
    return {"units": units, "attempts": stats.attempts,
            "retries": stats.retries, "rebuilds": stats.rebuilds,
            "worker_s": workers * (time.perf_counter() - snapshot)}


def supervisor_hook(time_units: bool) -> Hook:
    """``SupervisedPool.map``; ``time_units`` also spans each work unit.

    Units can only be timed when they run inline (``jobs=1``): the
    wrapper that times them is not sent to pool workers. The ``worker_s``
    counter is each call's wall time times the workers it really used.
    """
    return Hook(SUPERVISOR_SPAN, "repro.core.supervisor:SupervisedPool.map",
                counts=_supervisor_counts,
                before=lambda a: time.perf_counter(), time_units=time_units)


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _traced(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    span, counts, before = hook.span, hook.counts, hook.before

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook.time_units:
            # SupervisedPool.map(self, fn, items, ...): span each unit call.
            unit = functools.partial(tracer.call, UNIT_SPAN, args[1])
            args = (args[0], unit) + args[2:]
        snapshot = before(args) if before is not None else None
        index = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counts is not None:
            for counter, value in counts(args, kwargs, result, snapshot).items():
                tracer.count(span, counter, value)
        return result
    return traced


class install:
    """Context manager: trace ``hooks`` into ``tracer``, then restore.

    A module-level function is replaced in every loaded ``repro`` module
    that imported it by name; a method is replaced on its class.
    """

    def __init__(self, tracer: Tracer, hooks) -> None:
        self.tracer = tracer
        self.hooks = tuple(hooks)
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "install":
        for hook in self.hooks:
            owner, name = _resolve(hook.target)
            original = getattr(owner, name)
            wrapper = _traced(self.tracer, hook, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [module for module_name, module in list(sys.modules.items())
                           if module is not None
                           and module_name.split(".")[0] == "repro"
                           and getattr(module, name, None) is original]
            for holder in holders:
                self._undo.append((holder, name, original))
                setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


def layer_stats(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s``, ``self_s`` and its counters."""
    child_s = [0.0] * len(tracer.names)
    for name, start, end, parent in tracer.spans():
        if parent >= 0:
            child_s[parent] += end - start
    stats: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(tracer.spans()):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_s[index]
    for (name, counter), value in tracer.counters.items():
        stats[name][counter] = value
    return stats


def write_spans(path: str, passes: Dict[str, Tracer]) -> None:
    """Write every recorded span as CSV: pass, index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("pass,index,name,start_s,end_s,parent\n")
        for label, tracer in passes.items():
            for index, (name, start, end, parent) in enumerate(tracer.spans()):
                handle.write(f"{label},{index},{name},{start!r},{end!r},{parent}\n")
