"""Keyed random streams, hashed in bulk.

Every mini-batch, random attack and epoch order draws from its own stream,
the generator ``np.random.default_rng(key)`` for a key ``[seed, tag, *ids]``.
Building that generator (numpy's ``SeedSequence`` hash, then ``PCG64``
seeding) costs more than the draw, so a driver hashes all of a pass's keys in
one vectorised call (:func:`keyed_states`), and :func:`set_state` sets one
reused generator to a key's state before each draw.  The states are numpy's
own, which NEP 19 keeps fixed across versions; the draws are numpy's
``Generator`` methods, so every stream is the one ``default_rng(key)`` gives.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# numpy's SeedSequence hash (bit_generator.pyx): a pool of 4 uint32 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: PCG64 seeds from 8 uint32 words, 2 uint64 each of state and increment
_STATE_WORDS = 8


def _constants(init: int, mult: int, n: int) -> list[int]:
    """The hash constants ``init * mult**j`` mod 2^32 for ``j <= n``."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(values: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One hash per column of ``values`` (which may broadcast one column):
    xor its constant, multiply by the next one, fold the high half down."""
    values = (values ^ consts[0]) * consts[1]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _MIX_L * x - _MIX_R * y
    return x ^ (x >> 16)


@lru_cache(maxsize=None)
def _schedule(L: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The constant pairs of each vectorised step of :func:`_seed_words` for
    an entropy of ``L`` words, in numpy's order: the 4 pool words' first
    hash, each pool word's hash into the 3 others (the own column's pair is
    unused), each further word's hash into all 4, then the 8 state words."""
    consts = _constants(_INIT_A, _MULT_A, _POOL * (_POOL - 1) + _POOL * max(L, _POOL))
    steps = [list(range(_POOL))]
    j = _POOL
    for src in range(_POOL):
        steps.append([0 if d == src else j + d - (d > src) for d in range(_POOL)])
        j += _POOL - 1
    for _ in range(_POOL, L):
        steps.append(list(range(j, j + _POOL)))
        j += _POOL
    table = [(np.array([consts[i] for i in step], dtype=np.uint32),
              np.array([consts[i + 1] for i in step], dtype=np.uint32)) for step in steps]
    consts_b = _constants(_INIT_B, _MULT_B, _STATE_WORDS)
    return table + [(np.array(consts_b[:-1], dtype=np.uint32),
                     np.array(consts_b[1:], dtype=np.uint32))]


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(8)`` of each row of uint32
    ``entropy`` ``(n, L)``.  The hash constants run in the same sequence for
    every row, and the hashes of one step are independent, so each step is
    one vectorised call over the rows and the pool words it touches."""
    n, L = entropy.shape
    first, *cross, state = _schedule(L)
    pool = np.zeros((n, _POOL), dtype=np.uint32)
    pool[:, :min(L, _POOL)] = entropy[:, :_POOL]
    pool = _hash(pool, first)
    for src, consts in enumerate(cross[:_POOL]):
        kept = pool[:, src].copy()
        pool = _mix(pool, _hash(pool[:, src, None], consts))
        pool[:, src] = kept
    for src, consts in enumerate(cross[_POOL:], _POOL):
        pool = _mix(pool, _hash(entropy[:, src, None], consts))
    return _hash(np.tile(pool, 2), state)


def _words(key: Sequence[int]) -> tuple[int, ...]:
    """The uint32 words numpy reads ``key`` as: an entry below 2^32 is one
    word (0 included), a larger one its base-2^32 digits, lowest first."""
    if min(key) >= 0 and max(key) <= _MASK32:
        return tuple(key)
    words = []
    for entry in key:
        entry = int(entry)
        if entry < 0:
            raise ValueError(f"key entries must be non-negative, got {entry}")
        words.append(entry & _MASK32)
        while entry > _MASK32:
            entry >>= 32
            words.append(entry & _MASK32)
    return tuple(words)


def keyed_states(keys: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng(key)`` for each
    of ``keys``, nonempty sequences of non-negative ints, hashed in one
    vectorised pass per word count."""
    words = [_words(key) for key in keys]
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(w), []).append(i)
    seeds: list = [None] * len(keys)
    for ids in by_length.values():
        state = _seed_words(np.array([words[i] for i in ids], dtype=np.uint32))
        # generate_state(4, np.uint64): little-endian pairs of words
        for i, seed in zip(ids, state.astype("<u4").view("<u8").tolist()):
            seeds[i] = seed
    out = []
    for s_hi, s_lo, i_hi, i_lo in seeds:
        # pcg64_set_seed: srandom(initstate, initseq) of the 128-bit LCG
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
        out.append(((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def set_state(generator: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """The PCG64 ``generator``, set to a key's :func:`keyed_states` entry:
    it then draws what ``np.random.default_rng(key)`` would."""
    generator.bit_generator.state = {"bit_generator": "PCG64",
                                     "state": {"state": state[0], "inc": state[1]},
                                     "has_uint32": 0, "uinteger": 0}
    return generator
