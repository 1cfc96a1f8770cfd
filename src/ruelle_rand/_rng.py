"""Counter-based randomness plumbing.

Every stream is keyed, never seeded sequentially: the (path seed, level)
pair selects an independent Philox stream, so refining a path consumes
exactly the streams a direct deeper simulation would, in the same order.
Replica seeds come from a splitmix-style bijective finalizer, which makes
the map (master_seed, index) -> seed injective over the full 64-bit range.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit words
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replica seed: mix64(master + (index+1) * golden), mod 2^64.

    Injective in index for fixed master: the pre-mix map is an affine
    bijection mod 2^64 (the multiplier is odd) and mix64 is a bijection.
    """
    if index < 0:
        raise ValueError("replica index must be nonnegative")
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


def level_stream(seed: int, level: int) -> np.random.Generator:
    """Independent innovation stream for one refinement level of one path."""
    key = np.array([seed & _MASK64, level], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# rekey's state, refilled in place: the Philox state setter copies every
# entry out, and reads plain lists of ints faster than ndarrays
_KEY = [0, 0]
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": _KEY},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}


def rekey(stream: np.random.Generator, seed: int, level: int) -> None:
    """Restart stream, a Generator over Philox, as level_stream(seed, level):
    key (seed, level), counter 0, empty buffer. Assigning the state skips
    the OS entropy and SeedSequence that constructing a Philox draws and
    discards, so one generator re-keyed per (path, level) serves a whole
    process."""
    _KEY[0] = seed & _MASK64
    _KEY[1] = level
    stream.bit_generator.state = _STATE
