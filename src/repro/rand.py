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
from typing import Dict, List, Sequence, Tuple, Union

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


def substream(seed: SeedLike, label: str, *indices: int) -> np.random.Generator:
    """Derive an independent generator for the component named ``label``.

    The derivation hashes the label (and any number of integer indices)
    into the seed sequence, so streams for different labels are
    decorrelated and stable across library versions. Multi-index streams
    are the basis of counter-based noise protocols: e.g. the EM sensor
    draws read ``r`` of evaluation ``e`` from
    ``substream(seed, "em-read", e, r)``, so a batched evaluator and a
    serial one consume identical noise regardless of call grouping.

    The stream is ``default_rng(SeedSequence([base, crc32(label),
    *indices]))``; the entropy is handed to ``SeedSequence`` as the
    ``uint32`` words it would derive from those integers itself, which
    gives the same generator state for half the construction cost.
    :func:`substream_normals` derives one normal from each of a whole
    batch of these streams together and reproduces them exactly
    (``tests/test_rand.py::test_substream_normals_match_substream``).
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


# numpy's SeedSequence pool mix and PCG64 seeding constants
# (numpy/random/bit_generator.pyx; pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def substream_normals(seed: int, label: str, indices: np.ndarray,
                      scale: float) -> np.ndarray:
    """Draw ``substream(seed, label, *row).normal(0.0, scale)`` for every
    row of the ``(N, width)`` non-negative integer array ``indices``.

    The whole batch is derived together instead of building a
    ``SeedSequence`` and a ``PCG64`` per row: each row's entropy words
    are laid out as :func:`_append_words` lays them out; numpy's
    ``SeedSequence`` pool mix and ``generate_state(4, uint64)`` run as
    ``uint32`` array arithmetic over all rows with the same word layout;
    each pool becomes a PCG64 ``(state, inc)`` by the ``srandom`` step in
    Python integers; and one reused generator draws from that state.
    ``tests/test_rand.py::test_substream_normals_match_substream`` pins
    the result to :func:`substream` element for element.
    """
    index = np.asarray(indices)
    if index.ndim != 2 or index.dtype.kind not in "iu":
        raise ValueError("indices must be a 2-D integer array")
    if index.dtype.kind == "i" and (index < 0).any():
        raise ValueError("expected non-negative integer")
    index = index.astype(np.uint64)
    prefix: List[int] = []
    _append_words(prefix, int(seed))
    prefix.append(_label_key(label))
    low = (index & np.uint64(_WORD_MASK)).astype(np.uint32)
    high = (index >> np.uint64(32)).astype(np.uint32)
    # Bit j of a row's layout is set when index j spans two words.
    layouts = (high != 0).dot(1 << np.arange(index.shape[1]))
    out = np.empty(len(index))
    bitgen = np.random.PCG64(0)  # its state is overwritten before each draw
    normal = np.random.Generator(bitgen).normal
    for layout in np.unique(layouts).tolist():
        rows = np.flatnonzero(layouts == layout)
        entropy = [np.full(len(rows), word, dtype=np.uint32) for word in prefix]
        for j in range(index.shape[1]):
            entropy.append(low[rows, j])
            if layout >> j & 1:
                entropy.append(high[rows, j])
        state = _seed_sequence_state(entropy).tolist()
        for row, (s_high, s_low, i_high, i_low) in zip(rows.tolist(), state):
            bitgen.state = _pcg64_state((s_high << 64) | s_low,
                                        (i_high << 64) | i_low)
            out[row] = normal(0.0, scale)
    return out


def _hash_constants(init: int, mult: int,
                    count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(xor, multiply)`` constants of ``count`` successive
    ``SeedSequence`` hashmix calls (``value ^= c; c *= mult;
    value *= c``), as ``(count, 1)`` columns that broadcast over rows."""
    xors, mults = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = (const * mult) & _WORD_MASK
        mults.append(const)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_sequence_state(entropy: Sequence[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for a batch of
    entropies given as one ``uint32`` column per word, as an ``(N, 4)``
    ``uint64`` array.

    numpy's ``mix_entropy`` hashes the pool one word at a time; the
    hashmix constants depend only on the call's position, so the updates
    that do not read each other's results (the pool's first fill, the
    three destinations of one source word, the four destinations of one
    extra entropy word, the eight output words) run as one array
    operation each, with each call's constant in its own row.
    """
    extra = entropy[_POOL_SIZE:]
    size = _POOL_SIZE
    xors, mults = _hash_constants(
        _INIT_A, _MULT_A, size * size + size * len(extra))
    words = list(entropy[:size])
    words += [np.zeros_like(entropy[0])] * (size - len(words))
    pool = _hashmix(np.stack(words), xors[:size], mults[:size])
    k = size
    for src in range(size):
        dst = [d for d in range(size) if d != src]
        hashed = _hashmix(pool[src], xors[k:k + size - 1], mults[k:k + size - 1])
        pool[dst] = _mix(pool[dst], hashed)
        k += size - 1
    for word in extra:
        pool = _mix(pool, _hashmix(word, xors[k:k + size], mults[k:k + size]))
        k += size
    xors, mults = _hash_constants(_INIT_B, _MULT_B, 2 * size)
    state = _hashmix(np.concatenate((pool, pool)), xors, mults)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _pcg64_state(initstate: int, initseq: int) -> Dict[str, object]:
    """The ``PCG64.state`` that ``pcg_setseq_128_srandom_r(initstate,
    initseq)`` leaves: ``state = 0; inc = 2*initseq + 1; step;
    state += initstate; step``."""
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def derive_seed(seed: SeedLike, label: str, *indices: int) -> int:
    """Collapse ``(seed, label, indices)`` into one stable integer seed.

    The parallel engine ships integer seeds to worker processes (a live
    generator cannot be re-derived identically on a worker), so shard
    arms -- per-chip GA searches, ablation arms -- each get one of these:
    decorrelated from every other arm and independent of which process
    executes the arm or in what order.
    """
    return int(substream(seed, label, *indices).integers(0, 2**63 - 1))
