"""Seedable SplitMix64 generator with explicit, immutable state.

Every draw returns the value together with the successor state, so callers
control exactly which stream each consumer advances.  Batched variants operate
on uint64 state arrays and are draw-for-draw identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            raise ValueError(f"state must be a 64-bit unsigned integer, got {self.state}")


def next_u64(rng: RngState) -> tuple[int, RngState]:
    """Advance one SplitMix64 step; return (output, successor state)."""
    s = (rng.state + _GOLDEN) & MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31), RngState(s)


def uniform(rng: RngState, n: int) -> tuple[int, RngState]:
    """Draw an unbiased integer in [0, n) by rejection of the modulo-biased tail."""
    if n < 1:
        raise ValueError(f"uniform bound must be >= 1, got {n}")
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
    streams, so utterances can be processed in any order or in parallel.
    """
    h = fnv1a_64(utterance_id.encode("utf-8"))
    out, _ = next_u64(RngState((h ^ global_seed) & MASK64))
    return out


def substream(seed: int, index: int) -> RngState:
    """Derive the state of decorrelated child stream `index` of `seed`.

    The index is scrambled before being folded into the seed so that
    consecutive indices do not yield overlapping SplitMix64 sequences.
    """
    z, _ = next_u64(RngState(index & MASK64))
    out, _ = next_u64(RngState((seed ^ z) & MASK64))
    return RngState(out)


def next_u64_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `next_u64` over a uint64 state array.

    Returns (outputs, successor states) as two fresh arrays; `states` is not
    modified.  The mix runs in place with one reused shift buffer, so a call
    allocates three arrays.
    """
    with np.errstate(over="ignore"):
        s = states + _U_GOLDEN
        z = s >> _S30
        z ^= s
        z *= _U_MIX1
        shifted = z >> _S27
        z ^= shifted
        z *= _U_MIX2
        np.right_shift(z, _S31, out=shifted)
        z ^= shifted
    return z, s


def uniform_batch(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `uniform`: one independent draw in [0, n) per state.

    Every state draws once in a single batch step; only the rejected ones
    (probability below n / 2**64 each) draw again.  `states` is not modified.
    Values come back as int64, or as uint64 when n > 2**63, where int64 could
    not hold every draw.
    """
    if n < 1:
        raise ValueError(f"uniform bound must be >= 1, got {n}")
    limit = ((1 << 64) // n) * n
    u, states = next_u64_batch(states)
    if limit <= MASK64:  # else n divides 2**64 and nothing is rejected
        bound = np.uint64(limit)
        rejected = u >= bound
        while rejected.any():
            redraw, s = next_u64_batch(states[rejected])
            states[rejected] = s
            u[rejected] = redraw
            rejected[rejected] = redraw >= bound
    # u - (u // n) * n is u % n for every uint64; numpy's uint64 floor division
    # by a scalar is several times faster than its remainder
    divisor = np.uint64(n)
    quotient = u // divisor
    quotient *= divisor
    u -= quotient
    return (u if n > 1 << 63 else u.view(np.int64)), states


def substream_batch(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized `substream` for an int64/uint64 index array."""
    z, _ = next_u64_batch(indices.astype(np.uint64))
    out, _ = next_u64_batch(z ^ np.uint64(seed & MASK64))
    return out
