"""Deterministic random-stream management."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rand import DEFAULT_SEED, make_rng, substream


def test_make_rng_accepts_generator_passthrough():
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen


def test_make_rng_none_is_deterministic():
    a = make_rng(None).integers(0, 1000, size=10)
    b = make_rng(None).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_make_rng_int_seed_reproducible():
    a = make_rng(42).random(5)
    b = make_rng(42).random(5)
    assert np.array_equal(a, b)


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
    a = substream(1, "core", index=0).random(4)
    b = substream(1, "core", index=1).random(4)
    assert not np.array_equal(a, b)


def test_substream_positional_indices_match_index_kwarg():
    a = substream(1, "core", 0).random(4)
    b = substream(1, "core", index=0).random(4)
    assert np.array_equal(a, b)


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


def _reference(base, label, *indices, index=None):
    key = zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF
    entropy = [base, key, *indices] + ([] if index is None else [index])
    return np.random.default_rng(np.random.SeedSequence(entropy))


@given(base=bases, label=labels, indices=st.lists(parts, max_size=3),
       index=st.none() | parts)
@settings(max_examples=100, deadline=None)
def test_substream_state_matches_seed_sequence_of_the_parts(base, label,
                                                             indices, index):
    got = substream(base, label, *indices, index=index)
    want = _reference(base, label, *indices, index=index)
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1])
def test_substream_state_at_word_boundaries(base):
    for args, index in (((), None), ((0,), None), ((2**32, 0), 2**33)):
        got = substream(base, "em-read", *args, index=index)
        want = _reference(base, "em-read", *args, index=index)
        assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("args, kwargs", [
    ((-1, "x"), {}),
    ((1, "x", -2), {}),
    ((1, "x", 3, -1), {}),
    ((1, "x"), {"index": -5}),
])
def test_negative_parts_raise_like_seed_sequence(args, kwargs):
    with pytest.raises(ValueError) as new:
        substream(*args, **kwargs)
    with pytest.raises(ValueError) as reference:
        _reference(*args, **kwargs)
    assert str(new.value) == str(reference.value)
