"""Deterministic random-stream management."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rand import DEFAULT_SEED, substream, substream_normals


def test_substream_same_label_same_stream():
    a = substream(1, "chip").random(8)
    b = substream(1, "chip").random(8)
    assert np.array_equal(a, b)


def test_substream_different_labels_decorrelated():
    a = substream(1, "chip").random(8)
    b = substream(1, "dram").random(8)
    assert not np.array_equal(a, b)


def test_substream_different_seeds_differ():
    a = substream(1, "chip").random(8)
    b = substream(2, "chip").random(8)
    assert not np.array_equal(a, b)


def test_substream_index_distinguishes():
    a = substream(1, "core", 0).random(4)
    b = substream(1, "core", 1).random(4)
    assert not np.array_equal(a, b)


def test_substream_multi_index_order_matters():
    a = substream(1, "em-read", 3, 1).random(4)
    b = substream(1, "em-read", 1, 3).random(4)
    assert not np.array_equal(a, b)


def test_derive_seed_stable_and_decorrelated():
    from repro.rand import derive_seed
    assert derive_seed(1, "arm", 0) == derive_seed(1, "arm", 0)
    assert derive_seed(1, "arm", 0) != derive_seed(1, "arm", 1)
    assert 0 <= derive_seed(1, "arm", 0) < 2**63


def test_substream_none_uses_default_seed():
    a = substream(None, "x").random(4)
    b = substream(DEFAULT_SEED, "x").random(4)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# substream == default_rng(SeedSequence([base, crc32(label), *indices]))
# ----------------------------------------------------------------------
bases = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1), st.just(2**64 - 1))
parts = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
labels = st.text(max_size=12)


def _reference(base, label, *indices):
    key = zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([base, key, *indices]))


@given(base=bases, label=labels, indices=st.lists(parts, max_size=4))
@settings(max_examples=100, deadline=None)
def test_substream_state_matches_seed_sequence_of_the_parts(base, label,
                                                             indices):
    got = substream(base, label, *indices)
    want = _reference(base, label, *indices)
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
def test_substream_state_at_word_boundaries(base):
    for args in ((), (0,), (2**32, 0, 2**33)):
        got = substream(base, "em-read", *args)
        want = _reference(base, "em-read", *args)
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("args, kwargs", [
    ((-1, "x"), {}),
    ((1, "x", -2), {}),
    ((1, "x", 3, -1), {}),
    ((1, "x", 3, 4, -5), {}),
])
def test_negative_parts_raise_like_seed_sequence(args, kwargs):
    with pytest.raises(ValueError) as new:
        substream(*args, **kwargs)
    with pytest.raises(ValueError) as reference:
        _reference(*args, **kwargs)
    assert str(new.value) == str(reference.value)


# ----------------------------------------------------------------------
# substream_normals == [substream(base, label, *row).normal(0, scale)]
# ----------------------------------------------------------------------
@st.composite
def index_batches(draw):
    """An ``(N, width)`` uint64 batch, width 0-3, whose rows mix one- and
    two-word values (so one batch holds several entropy layouts)."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(parts | st.just(0), min_size=width,
                                  max_size=width), max_size=12))
    return np.array(rows, dtype=np.uint64).reshape(len(rows), width)


@given(base=bases, label=labels, indices=index_batches(),
       scale=st.sampled_from([0.0, 0.01, 1.0, 3.5]))
@settings(max_examples=60, deadline=None)
def test_substream_normals_match_substream(base, label, indices, scale):
    got = substream_normals(base, label, indices, scale)
    want = [substream(base, label, *map(int, row)).normal(0.0, scale)
            for row in indices]
    assert got.shape == (len(indices),)
    assert got.tolist() == want


@pytest.mark.parametrize("base", [0, 123, 2**31 - 2, 2**40 + 5])
def test_substream_normals_match_substream_on_em_read_rows(base):
    rows = np.array([(e, r) for e in (0, 1, 2**32 - 1, 2**32, 2**40)
                     for r in range(3)], dtype=np.uint64)
    got = substream_normals(base, "em-read", rows, 0.01)
    want = [substream(base, "em-read", e, r).normal(0.0, 0.01)
            for e, r in rows.tolist()]
    assert got.tolist() == want


def test_substream_normals_empty_batch():
    assert substream_normals(7, "em-read", np.zeros((0, 2), dtype=np.uint64),
                             0.01).shape == (0,)


@pytest.mark.parametrize("indices", [
    np.array([[1, -2]]),          # negative index, like substream
    np.array([1.0, 2.0]),         # not 2-D
    np.array([[1.5]]),            # not integers
])
def test_substream_normals_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        substream_normals(7, "em-read", indices, 0.01)
