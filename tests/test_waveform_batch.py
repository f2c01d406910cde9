"""Batch composition cannot change a synthesized waveform row.

:meth:`ExecutionModel.waveform_block` synthesizes and smooths a whole
batch of loops in one pass. Whatever else is in the batch -- how many
rows, loops of which lengths, duplicates -- every row must equal the
one-row result bit for bit, on the exact-multiple windows (1024, 4096)
and on a window that needs padding to the scan chunk (1000).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.execution import ExecutionModel
from repro.cpu.isa import GA_ALPHABET
from repro.cpu.kernels import MAX_LOOP_LEN, MIN_LOOP_LEN, InstructionLoop

WINDOWS = (1024, 4096, 1000)

loops_st = st.lists(
    st.lists(st.sampled_from(GA_ALPHABET), min_size=MIN_LOOP_LEN,
             max_size=MAX_LOOP_LEN).map(InstructionLoop.of),
    min_size=1, max_size=12)


def _assert_rows_match_one_row(model, loops):
    block = model.waveform_block(loops)
    assert block.shape == (len(loops), model.window_cycles)
    for row, loop in zip(block, loops):
        alone = model.waveform_block([loop])[0]
        assert np.array_equal(row, alone)
        assert np.array_equal(row, model.profile(loop).waveform)


@pytest.mark.parametrize("window", WINDOWS)
@given(loops=loops_st)
@settings(max_examples=25, deadline=None)
def test_every_row_equals_the_one_row_result(window, loops):
    _assert_rows_match_one_row(ExecutionModel(window_cycles=window), loops)


@pytest.mark.parametrize("window", WINDOWS)
@given(loops=loops_st, data=st.data())
@settings(max_examples=15, deadline=None)
def test_row_is_independent_of_its_batch_mates(window, loops, data):
    """The same loop, batched with different company and at a different
    position, synthesizes to the same row."""
    model = ExecutionModel(window_cycles=window)
    target = data.draw(st.sampled_from(loops))
    shuffled = data.draw(st.permutations(loops))
    first = model.waveform_block(loops)[loops.index(target)]
    second = model.waveform_block(shuffled + [target])[-1]
    assert np.array_equal(first, second)


def test_flattened_gemm_shape_regression():
    """window_cycles=1024 gives 8 scan chunks per row. One flattened
    ``(N*8, 128)`` GEMM over a batch rounds differently from the per-row
    ``(8, 128)`` GEMM on OpenBLAS, so a batch of mixed lengths at this
    shape is the case that catches a flattened implementation."""
    model = ExecutionModel(window_cycles=1024)
    rng = np.random.default_rng(1024)
    loops = [InstructionLoop.of(
        GA_ALPHABET[int(g)] for g in rng.integers(len(GA_ALPHABET), size=size))
        for size in (2, 7, 31, 50, 64, 128, 200, 256)]
    _assert_rows_match_one_row(model, loops)


def test_mixed_lengths_and_duplicates_in_one_batch():
    model = ExecutionModel(window_cycles=1000)
    short = InstructionLoop.of(GA_ALPHABET[:2])
    long = InstructionLoop.of((GA_ALPHABET * 19)[:MAX_LOOP_LEN])
    _assert_rows_match_one_row(model, [short, long, short, long, long])


def test_empty_batch():
    for window in WINDOWS:
        block = ExecutionModel(window_cycles=window).waveform_block([])
        assert block.shape == (0, window)


@pytest.mark.parametrize("window", WINDOWS)
def test_single_class_loops_smooth_to_exact_constants(window):
    """A constant input stays exactly constant in any batch: the clamp to
    the input's range removes the Toeplitz matmul's ~1-ulp ripple."""
    model = ExecutionModel(window_cycles=window)
    mixed = InstructionLoop.of(GA_ALPHABET)
    loops = [InstructionLoop.of([klass] * 3) for klass in GA_ALPHABET]
    block = model.waveform_block([mixed] + loops)
    for row in block[1:]:
        assert np.unique(row).size == 1
