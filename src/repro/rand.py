"""Deterministic random-stream management.

Every stochastic component in the library draws from an explicit
:class:`numpy.random.Generator`. Components never call the global numpy
RNG, so a fixed experiment seed reproduces the same results bit-for-bit
run-to-run -- the property the test suite asserts.

The helpers here implement *named sub-streams*: a parent seed plus a
string label yields an independent child generator, so adding a new
consumer of randomness does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import List, Optional, Union

import numpy as np

from repro.errors import CampaignError

SeedLike = Union[int, np.random.Generator, None]

#: Default seed used by experiment entry points when the caller passes none.
DEFAULT_SEED = 20180625  # DSN 2018 conference week.

_WORD_MASK = 0xFFFFFFFF


def resolve_seed(seed) -> int:
    """Coerce a seed to the integer base that work units in other
    processes can re-derive.

    Non-negative integers pass through and ``None`` becomes
    :data:`DEFAULT_SEED`; generator objects are rejected because their
    state cannot be re-derived identically in worker processes, and
    negative integers because no substream can be seeded from them.
    """
    if seed is None:
        return DEFAULT_SEED
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CampaignError(
            "parallel execution needs an integer seed (or None); "
            f"got {type(seed).__name__}")
    if seed < 0:
        raise CampaignError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (which uses :data:`DEFAULT_SEED` so library behaviour is
    deterministic unless the caller opts into entropy explicitly).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def substream(seed: SeedLike, label: str, *indices: int,
              index: Optional[int] = None) -> np.random.Generator:
    """Derive an independent generator for the component named ``label``.

    The derivation hashes the label (and any number of integer indices)
    into the seed sequence, so streams for different labels are
    decorrelated and stable across library versions. Multi-index streams
    are the basis of counter-based noise protocols: e.g. the EM sensor
    draws read ``r`` of evaluation ``e`` from
    ``substream(seed, "em-read", e, r)``, so a batched evaluator and a
    serial one consume identical noise regardless of call grouping.

    The stream is ``default_rng(SeedSequence([base, crc32(label),
    *indices, index]))``; the entropy is handed to ``SeedSequence`` as
    the ``uint32`` words it would derive from those integers itself,
    which gives the same generator state for half the construction cost.
    """
    base = seed if isinstance(seed, int) else DEFAULT_SEED if seed is None else None
    if base is None:
        # Parent is a Generator: spawn a child keyed by the label hash so
        # repeated calls with the same parent+label agree only when the
        # parent state agrees. Draw the base from the parent.
        assert isinstance(seed, np.random.Generator)
        base = int(seed.integers(0, 2**31 - 1))
    words: List[int] = []
    _append_words(words, int(base))
    words.append(_label_key(label))
    for part in indices:
        _append_words(words, int(part))
    if index is not None:
        _append_words(words, int(index))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@lru_cache(maxsize=256)  # bounded: some callers derive per-run labels
def _label_key(label: str) -> int:
    return zlib.crc32(label.encode("utf-8")) & _WORD_MASK


def _append_words(words: List[int], value: int) -> None:
    """Append ``value`` as ``SeedSequence`` reads an integer: its 32-bit
    words, least significant first, and one zero word for zero."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words.append(value & _WORD_MASK)
    value >>= 32
    while value:
        words.append(value & _WORD_MASK)
        value >>= 32


def derive_seed(seed: SeedLike, label: str, *indices: int) -> int:
    """Collapse ``(seed, label, indices)`` into one stable integer seed.

    The parallel engine ships integer seeds to worker processes (a live
    generator cannot be re-derived identically on a worker), so shard
    arms -- per-chip GA searches, ablation arms -- each get one of these:
    decorrelated from every other arm and independent of which process
    executes the arm or in what order.
    """
    return int(substream(seed, label, *indices).integers(0, 2**63 - 1))
