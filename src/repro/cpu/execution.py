"""Execution model: instruction loops -> current waveforms + counters.

This is the bridge between code (an :class:`InstructionLoop` or a named
workload's activity signature) and the electrical quantities the PDN and
EM models consume. It produces:

- a per-cycle relative supply-current waveform for a window of steady-
  state execution (the input to droop/EM analysis), and
- performance counters (IPC, FP ratio, memory intensity, ...) that feed
  the Vmin predictor of Section IV.D.

The model is deliberately behavioural: each instruction class occupies
the pipeline for its ``cycles`` and contributes its ``current`` during
that occupancy, with a one-pole low-pass smoothing that stands in for
pipeline overlap and the package's local decoupling.

There is one synthesis path, :func:`_synthesize`, and it works on a
whole batch of loops: one ``np.repeat`` expands every loop's class codes
(:attr:`InstructionLoop.code`) into one traversal per loop, a gather
lays each traversal periodically across the window, and the smoothing
filter runs as a blocked scan -- a stacked 3-D matmul of the rows'
``(window/128, 128)`` chunks against a ``128 x 128`` Toeplitz operator,
plus a carry recurrence over chunk boundaries vectorized across rows.
:meth:`ExecutionModel.waveform_block` (the GA's batched fitness path)
is that pass for N loops; :meth:`profile` and :meth:`smoothed_waveform`
are the one-row case. Every float operation a row sees is the same
whatever else is in the batch -- in particular each row keeps its own
``(window/128, 128) x (128, 128)`` GEMM -- so a row is bit-identical
whether it is synthesized alone or in any batch.

Those GEMMs, the only BLAS calls of a GA evaluation, are far too small
to gain from a second BLAS thread, so they run inside
:func:`single_threaded_blas` for every caller, in a pool worker or not.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.isa import (
    INSTRUCTION_SPECS,
    MAX_CLASS_CURRENT,
    MIN_CLASS_CURRENT,
    spec_of,
)
from repro.cpu.kernels import InstructionLoop
from repro.errors import ConfigurationError

#: Static (clock tree + leakage) floor of the relative current waveform.
STATIC_CURRENT = 0.05

#: Smoothing constant (cycles) standing in for pipeline overlap and
#: on-die decoupling; chosen well below the PDN resonance period so the
#: resonant component of the waveform survives.
SMOOTHING_CYCLES = 4.0

#: Per-class synthesis signatures, precomputed once and indexed by
#: :data:`~repro.cpu.kernels.CLASS_CODE`: pipeline occupancy in whole
#: cycles and the waveform level held during that occupancy.
_CLASS_OCCUPANCY = np.array(
    [max(1, round(spec.cycles)) for spec in INSTRUCTION_SPECS.values()],
    dtype=np.intp)
_CLASS_LEVEL = np.array(
    [STATIC_CURRENT + (1.0 - STATIC_CURRENT) * spec.current
     for spec in INSTRUCTION_SPECS.values()])

#: Block size of the low-pass scan. Each row is smoothed by its own GEMM
#: of shape ``(window/128, 128) x (128, 128)`` whatever the batch size:
#: the batch is a stacked 3-D matmul, never one flattened
#: ``(N*window/128, 128)`` GEMM, because BLAS may pick a different
#: kernel (and round differently) when the row count of a GEMM changes.
_SCAN_CHUNK = 128

#: Scratch budget (bytes) of one block of rows in the batched fitness
#: kernels: waveform synthesis here and the spectral read in
#: :meth:`repro.pdn.em.EmSensor.clean_block`. Blocks this small are
#: recycled by the allocator between blocks and calls; batch-sized
#: temporaries are page-faulted in afresh on every call, at a cost above
#: that of the arithmetic.
BLOCK_SCRATCH_BYTES = 128 * 1024


#: (getter, setter) symbol pairs of the OpenBLAS thread count: the
#: scipy-openblas build bundled with numpy wheels, then plain OpenBLAS.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _blas_handles() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """ctypes (getter, setter) of the loaded OpenBLAS's thread count.

    Looked up once per process, at the first pinned GEMM, over the
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


@dataclass(frozen=True)
class PerfCounters:
    """Performance-counter summary of a window of execution.

    These are the features of the workload-dependent Vmin predictor
    (paper Section IV.D / reference [11]).
    """

    ipc: float
    fp_ratio: float
    mem_ratio: float
    branch_ratio: float
    l2_miss_ratio: float
    mean_current: float
    current_swing: float


@dataclass(frozen=True)
class ExecutionProfile:
    """Result of simulating a window of loop execution."""

    waveform: np.ndarray  # per-cycle relative current, values in [0, 1]
    counters: PerfCounters
    cycles_per_iteration: float


class ExecutionModel:
    """Simulates steady-state execution of an instruction loop.

    Parameters
    ----------
    freq_ghz:
        Core clock; only used to translate cycles to wall time for
        spectral analysis (done by the PDN layer).
    window_cycles:
        Length of the simulated steady-state window. Must cover several
        PDN resonance periods for the spectral estimate to be stable;
        the default covers ~20 periods of a 50 MHz resonance at 2.4 GHz.
    """

    def __init__(self, freq_ghz: float = 2.4, window_cycles: int = 1024) -> None:
        if freq_ghz <= 0:
            raise ConfigurationError("freq_ghz must be positive")
        if window_cycles < 64:
            raise ConfigurationError("window_cycles must be at least 64")
        self.freq_ghz = freq_ghz
        self.window_cycles = window_cycles

    def smoothed_waveform(self, loop: InstructionLoop) -> np.ndarray:
        """The filtered per-cycle waveform (the :meth:`profile` waveform
        without the counter computation)."""
        return _synthesize([loop.code], self.window_cycles)[0]

    def waveform_block(self, loops: Sequence[InstructionLoop]) -> np.ndarray:
        """Stacked smoothed waveforms of ``loops``, shape ``(N, window)``.

        Row ``i`` is bit-identical to ``profile(loops[i]).waveform`` at
        any batch size and composition (the property
        ``tests/test_em_batch.py`` asserts).
        """
        return _synthesize([loop.code for loop in loops], self.window_cycles)

    def profile(self, loop: InstructionLoop) -> ExecutionProfile:
        """Simulate ``loop`` and return waveform + counters."""
        waveform = self.smoothed_waveform(loop)

        total_instr = len(loop)
        total_cycles = loop.total_cycles
        fp = sum(1 for k in loop if spec_of(k).uses_fp)
        mem = sum(1 for k in loop if spec_of(k).touches_memory)
        branch = sum(1 for k in loop if k.value == "branch")
        l2_miss = sum(1 for k in loop if k.value in ("load_l2", "load_dram"))
        # Effective IPC: harmonic blend of per-class throughputs.
        inv_ipc = sum(1.0 / spec_of(k).ipc_weight for k in loop) / total_instr
        counters = PerfCounters(
            ipc=min(4.0, 1.0 / inv_ipc),
            fp_ratio=fp / total_instr,
            mem_ratio=mem / total_instr,
            branch_ratio=branch / total_instr,
            l2_miss_ratio=l2_miss / total_instr,
            mean_current=float(waveform.mean()),
            current_swing=self.normalized_swing(waveform),
        )
        return ExecutionProfile(
            waveform=waveform,
            counters=counters,
            cycles_per_iteration=total_cycles,
        )

    @staticmethod
    def normalized_swing(waveform: np.ndarray) -> float:
        """Peak-to-trough current swing normalized to the ISA's headroom.

        1.0 means the waveform spans the full range between the
        lowest-power and highest-power instruction classes -- the
        theoretical maximum any loop can achieve.
        """
        headroom = (MAX_CLASS_CURRENT - MIN_CLASS_CURRENT) * (1.0 - STATIC_CURRENT)
        swing = float(waveform.max() - waveform.min())
        return min(1.0, swing / headroom)


def _synthesize(codes: Sequence[bytes], window: int) -> np.ndarray:
    """Smoothed waveforms, shape ``(N, window)``, of the loops whose
    :attr:`~repro.cpu.kernels.InstructionLoop.code` are ``codes``.

    The smoothing is the first-order IIR low-pass
    ``y[i] = beta * y[i-1] + alpha * x[i]`` (primed with ``y[-1] = x[0]``)
    as a blocked scan: each chunk's response to its own input is one
    matmul against a precomputed lower-triangular Toeplitz operator, and
    the carried filter state is a short recurrence over chunk boundaries.
    """
    rows = len(codes)
    if not rows:
        return np.empty((0, window))
    chunk = _SCAN_CHUNK
    padded = -(-window // chunk) * chunk
    chunks = padded // chunk
    out = np.empty((rows, chunks, chunk))
    classes = np.frombuffer(b"".join(codes), dtype=np.uint8)
    occupancy = _CLASS_OCCUPANCY[classes]
    # One traversal of every loop, back to back: loop i's traversal is
    # period[i] cycles long and starts at start[i].
    traversals = np.repeat(_CLASS_LEVEL[classes], occupancy)
    lengths = np.fromiter(map(len, codes), dtype=np.intp, count=rows)
    ends = np.cumsum(occupancy)[np.cumsum(lengths) - 1]
    period = np.diff(ends, prepend=0)
    start = ends - period
    # int32 makes the phase modulo several times cheaper than intp.
    cycle = np.arange(window, dtype=np.int32)
    period = period.astype(np.int32)
    alpha, toeplitz, powers = _scan_kernel(SMOOTHING_CYCLES, chunk)

    # Rows go through in blocks of BLOCK_SCRATCH_BYTES of scratch.
    block = max(1, min(rows, BLOCK_SCRATCH_BYTES // (8 * padded)))
    raw = np.zeros((block, chunks, chunk))  # zero tail = the scan padding
    phase = np.empty((block, window), dtype=np.int32)
    lo, hi = np.empty(rows), np.empty(rows)
    with single_threaded_blas():
        for i in range(0, rows, block):
            n = min(block, rows - i)
            x = raw[:n].reshape(n, padded)[:, :window]
            np.remainder(cycle, period[i:i + n, None], out=phase[:n])
            x[...] = traversals[start[i:i + n, None] + phase[:n]]
            lo[i:i + n], hi[i:i + n] = x.min(axis=1), x.max(axis=1)
            local = out[i:i + n]
            np.matmul(raw[:n], toeplitz.T, out=local)
            local *= alpha

    # Carry the filter state across chunks: the carry into chunk c+1 is
    # the last sample of chunk c, its local response plus decayed carry.
    decay = powers[-1]
    last = out[:, :, -1].T.copy()
    carries = np.empty_like(last)
    carry = traversals[start]  # x[:, 0], the filter's priming sample
    for c in range(chunks):
        carries[c] = carry
        carry = last[c] + decay * carry

    for i in range(0, rows, block):
        n = min(block, rows - i)
        local = out[i:i + n]
        np.multiply(powers, carries[:, i:i + n].T[:, :, None], out=raw[:n])
        local += raw[:n]
        # The filter output is a convex combination of input samples,
        # so it can never legitimately leave the input's range; clamp
        # the ~1-ulp excursions the Toeplitz matmul's rounding introduces.
        y = local.reshape(n, padded)[:, :window]
        np.maximum(y, lo[i:i + n, None], out=y)
        np.minimum(y, hi[i:i + n, None], out=y)
    smoothed = out.reshape(rows, padded)[:, :window]
    return smoothed if padded == window else np.ascontiguousarray(smoothed)


@lru_cache(maxsize=8)
def _scan_kernel(tau_cycles: float, chunk: int):
    """Precomputed blocked-scan operators for one smoothing constant.

    ``toeplitz[i, k] = beta**(i-k)`` (lower-triangular) turns the intra-
    chunk recurrence into one matmul; ``powers[i] = beta**(i+1)`` carries
    the pre-chunk filter state across the chunk.
    """
    alpha = 1.0 / (1.0 + tau_cycles)
    beta = 1.0 - alpha
    steps = np.arange(chunk)
    lags = steps[:, None] - steps[None, :]
    toeplitz = np.where(lags >= 0, beta ** np.abs(lags), 0.0)
    powers = beta ** np.arange(1, chunk + 1)
    toeplitz.setflags(write=False)
    powers.setflags(write=False)
    return alpha, toeplitz, powers
