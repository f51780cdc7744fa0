"""Seedable SplitMix64 generator with explicit, immutable state.

Every draw returns the value together with the successor state, so callers
control exactly which stream each consumer advances.  Batched variants operate
on uint64 state arrays and are draw-for-draw identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# uint64 copies for the vectorized path.
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


@dataclass(frozen=True)
class RngState:
    """Immutable 64-bit generator state; the output sequence is a pure function of it."""

    state: int

    def __post_init__(self) -> None:
        if not 0 <= self.state <= MASK64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.state}")


def next_u64(rng: RngState) -> tuple[int, RngState]:
    """Advance one SplitMix64 step; return (output, successor state)."""
    s = (rng.state + _GOLDEN) & MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31), RngState(s)


def uniform(rng: RngState, n: int) -> tuple[int, RngState]:
    """Draw an unbiased integer in [0, n) by rejection of the modulo-biased tail.

    n must lie in [1, 2**64]: above that no 64-bit draw could be accepted.
    """
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"uniform bound must be in [1, 2**64], got {n}")
    limit = ((1 << 64) // n) * n  # == 2**64 when n divides 2**64: no rejection
    while True:
        u, rng = next_u64(rng)
        if u < limit:
            return u % n, rng


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def derive_utterance_seed(global_seed: int, utterance_id: str) -> int:
    """Mix an utterance id into the global seed.

    Hashes the id (FNV-1a over UTF-8), XORs the global seed, and scrambles the
    result with one SplitMix64 output step.  Distinct ids give decorrelated
    streams, so utterances can be processed in any order or in parallel.  A
    global seed outside [0, 2**64) raises ConfigError instead of aliasing one.
    """
    RngState(global_seed)
    h = fnv1a_64(utterance_id.encode("utf-8"))
    out, _ = next_u64(RngState(h ^ global_seed))
    return out


def next_u64_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `next_u64` over a uint64 state array.

    Returns (outputs, successor states) as two fresh arrays; `states` is not
    modified.  The mix runs in place with one reused shift buffer, so a call
    allocates three arrays.
    """
    s = states + _U_GOLDEN
    return _mix(s), s


def _mix(s: np.ndarray) -> np.ndarray:
    """SplitMix64's output function of the advanced states `s`, as a fresh array; `s` is not written."""
    with np.errstate(over="ignore"):
        z = s >> _S30
        z ^= s
        z *= _U_MIX1
        shifted = z >> _S27
        z ^= shifted
        z *= _U_MIX2
        np.right_shift(z, _S31, out=shifted)
        z ^= shifted
    return z


def uniform_batch(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `uniform`: one independent draw in [0, n) per state.

    Every state draws once in a single batch step; only the rejected ones
    (probability below n / 2**64 each) draw again.  `states` is not modified.
    Values come back as int64, or as uint64 when n > 2**63, where int64 could
    not hold every draw.  n must lie in [1, 2**64], as for `uniform`.
    """
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"uniform bound must be in [1, 2**64], got {n}")
    if n == 1:  # every draw is 0, so the states advance and nothing is mixed
        return np.zeros(states.shape[0], dtype=np.int64), states + _U_GOLDEN
    u, states = next_u64_batch(states)
    if n & (n - 1) == 0:  # n divides 2**64: nothing is rejected, and u % n is a mask
        if n < 1 << 64:
            u &= np.uint64(n - 1)
    else:
        bound = np.uint64((1 << 64) // n * n)
        if u.size and u.max() >= bound:  # one reduction; the mask is built only on a rejection
            rejected = u >= bound
            while rejected.any():
                redraw, s = next_u64_batch(states[rejected])
                states[rejected] = s
                u[rejected] = redraw
                rejected[rejected] = redraw >= bound
        # u - (u // n) * n is u % n for every uint64; numpy's uint64 floor
        # division by a scalar is several times faster than its remainder
        divisor = np.uint64(n)
        quotient = u // divisor
        quotient *= divisor
        u -= quotient
    return (u if n > 1 << 63 else u.view(np.int64)), states


def _scramble(first: int, last: int) -> np.ndarray:
    """The scrambled indices first..last-1 (one SplitMix64 output of each), read-only."""
    z, _ = next_u64_batch(np.arange(first, last, dtype=np.uint64))
    z.setflags(write=False)
    return z


_cached_scramble = lru_cache(maxsize=64)(_scramble)


def _scrambled_indices(first: int, last: int) -> np.ndarray:
    """`_scramble`, cached for ranges of at most 2**14 indices that end by 2**20.

    Those are the Monte Carlo blocks of the first 2**20 trials: all 64 fit in
    the cache (8 MiB), so a walk over more blocks, in the same order every
    cell, keeps its first 64 instead of evicting each before its reuse.
    """
    if last <= 1 << 20 and last - first <= 1 << 14:
        return _cached_scramble(first, last)
    return _scramble(first, last)


def substream_batch(seed: int, first: int, last: int) -> np.ndarray:
    """The states of decorrelated child streams first..last-1 of `seed`.

    Child i's state is the SplitMix64 output of state seed ^ z, where z is
    the output of state i: the index is scrambled before it is folded into the
    seed, so consecutive indices do not yield overlapping sequences.  The
    scrambled indices do not depend on the seed and are cached, so each call
    costs one xor and one mix.
    """
    s = _scrambled_indices(first, last) ^ np.uint64(seed & MASK64)
    s += _U_GOLDEN
    return _mix(s)
