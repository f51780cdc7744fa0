"""SplitMix64 generator, hashing, and the vectorized twins."""

from __future__ import annotations

import numpy as np
import pytest

from specmask import rng as rng_module
from specmask.errors import ConfigError
from specmask.rng import (
    MASK64,
    RngState,
    derive_utterance_seed,
    fnv1a_64,
    next_u64,
    next_u64_batch,
    substream_batch,
    uniform,
    uniform_batch,
)
from specmask.stats import MC_BLOCK_TRIALS

from conftest import run_python, substream


def reference_splitmix(state: int) -> tuple[int, int]:
    """Independent restatement of the recurrence, kept deliberately separate."""
    state = (state + 0x9E3779B97F4A7C15) % 2**64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31), state


def test_seed_zero_first_output():
    out, state = next_u64(RngState(0))
    assert out == 0xE220A8397B1DCDAF
    assert state.state == 0x9E3779B97F4A7C15


def test_matches_reference_recurrence_along_a_stream():
    state = RngState(42)
    ref = 42
    for _ in range(100):
        out, state = next_u64(state)
        expected, ref = reference_splitmix(ref)
        assert out == expected


def test_purity_and_distinct_seeds():
    a1, _ = next_u64(RngState(7))
    a2, _ = next_u64(RngState(7))
    b, _ = next_u64(RngState(8))
    assert a1 == a2
    assert a1 != b
    out0, _ = next_u64(RngState(0))
    out1, _ = next_u64(RngState(1))
    assert out0 != out1


def test_state_validation():
    # RngState owns the seed range; ConfigError stays a ValueError for callers that catch that
    assert issubclass(ConfigError, ValueError)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
            RngState(seed)
    RngState(MASK64)  # boundary is legal


def test_uniform_n1_is_always_zero():
    rng = RngState(123)
    for _ in range(20):
        value, rng = uniform(rng, 1)
        assert value == 0


def test_uniform_rejects_bad_bound():
    with pytest.raises(ValueError):
        uniform(RngState(0), 0)
    with pytest.raises(ValueError):
        uniform(RngState(0), -3)


def test_uniform_no_rejection_when_n_divides_2_64():
    # n = 2**16 divides 2**64, so the draw is a plain modulo of one output
    rng = RngState(99)
    out, _ = next_u64(rng)
    value, _ = uniform(rng, 2**16)
    assert value == out % 2**16


def test_uniform_frequencies_n6():
    # 600k draws: each of the 6 values lands within 1% relative of 100k
    rng = RngState(2024)
    counts = [0] * 6
    for _ in range(600_000):
        value, rng = uniform(rng, 6)
        counts[value] += 1
    for c in counts:
        assert abs(c - 100_000) < 1_000


def test_fnv1a_vectors():
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    # one xor-multiply step computed independently
    expected = ((0xCBF29CE484222325 ^ ord("a")) * 0x100000001B3) % 2**64
    assert fnv1a_64(b"a") == expected
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


def test_derive_utterance_seed_composition():
    seed = 0xDEADBEEF
    uid = "utt-0042"
    for s in (seed, 0, MASK64):  # the u64 ends are accepted as they are
        expected, _ = next_u64(RngState(fnv1a_64(uid.encode()) ^ s))
        assert derive_utterance_seed(s, uid) == expected
    assert derive_utterance_seed(seed, uid) == derive_utterance_seed(seed, uid)
    assert derive_utterance_seed(seed, uid) != derive_utterance_seed(seed, "utt-0043")
    assert derive_utterance_seed(seed, uid) != derive_utterance_seed(seed + 1, uid)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_derive_utterance_seed_refuses_a_seed_outside_u64(seed):
    # masking into u64 would alias -1 to 2**64 - 1 and 2**64 to 0
    with pytest.raises(ConfigError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}$"):
        derive_utterance_seed(seed, "utt-0042")


def test_batch_next_matches_scalar_including_wraparound():
    states = np.array(
        [0, 1, MASK64, MASK64 - 0x9E3779B97F4A7C15 + 1, 2**63, 12345678901234567890],
        dtype=np.uint64,
    )
    outs, succ = next_u64_batch(states)
    for i, s in enumerate(states.tolist()):
        expected_out, expected_state = next_u64(RngState(s))
        assert int(outs[i]) == expected_out
        assert int(succ[i]) == expected_state.state


def test_batch_next_leaves_its_input_alone():
    states = np.random.default_rng(4).integers(0, 2**64, size=256, dtype=np.uint64)
    before = states.copy()
    outs, succ = next_u64_batch(states)
    assert np.array_equal(states, before)
    assert outs is not states and succ is not states
    assert not np.shares_memory(outs, states) and not np.shares_memory(succ, states)
    assert not np.shares_memory(outs, succ)


@pytest.mark.parametrize(
    "n", [1, 2, 3, 7, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1, 3 * 2**62, 2**64 - 1]
)
def test_batch_uniform_is_the_remainder_of_the_accepted_draw(n):
    states = np.random.default_rng(9).integers(0, 2**64, size=400, dtype=np.uint64)
    values, _ = uniform_batch(states, n)
    assert values.dtype == (np.uint64 if n > 2**63 else np.int64)
    limit = (2**64 // n) * n
    for value, s in zip(values.tolist(), states.tolist()):
        u, state = reference_splitmix(s)
        while u >= limit:
            u, state = reference_splitmix(state)
        assert value == u % n


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 7, 8, 12, 13, 1000, 2**16, 2**32, 2**63, 3 * 2**62, 2**64 - 5, 2**64]
)
def test_batch_uniform_matches_scalar(n):
    rng = np.random.default_rng(5)  # only to pick arbitrary starting states
    states = rng.integers(0, 2**64, size=300, dtype=np.uint64)
    values, succ = uniform_batch(states, n)
    assert values.dtype == (np.uint64 if n > 2**63 else np.int64)
    assert succ.dtype == np.uint64
    for i, s in enumerate(states.tolist()):
        expected_value, expected_state = uniform(RngState(s), n)
        assert int(values[i]) == expected_value
        assert int(succ[i]) == expected_state.state


@pytest.mark.parametrize("n", [1, 3, 4, 2**64])
def test_batch_uniform_of_no_states(n):
    values, succ = uniform_batch(np.empty(0, dtype=np.uint64), n)
    assert values.shape == succ.shape == (0,)


def test_batch_uniform_exercises_rejection():
    # n just above 2**63 rejects roughly half of all raw draws
    n = 2**63 + 1
    rng = np.random.default_rng(6)
    states = rng.integers(0, 2**64, size=200, dtype=np.uint64)
    values, succ = uniform_batch(states, n)
    rejected = 0
    for i, s in enumerate(states.tolist()):
        expected_value, expected_state = uniform(RngState(s), n)
        assert int(values[i]) == expected_value
        assert int(succ[i]) == expected_state.state
        # count scalar draws consumed to confirm the rejection path ran
        steps = 0
        probe = RngState(s)
        while True:
            _, probe = next_u64(probe)
            steps += 1
            if probe.state == expected_state.state:
                break
        rejected += steps - 1
    assert rejected > 0


@pytest.mark.parametrize("n", [6, 2**63 + 1])
def test_batch_uniform_leaves_caller_states_alone(n):
    states = np.random.default_rng(8).integers(0, 2**64, size=64, dtype=np.uint64)
    before = states.copy()
    _, succ = uniform_batch(states, n)
    assert np.array_equal(states, before)
    assert not np.shares_memory(succ, states)


def test_substream_batch_matches_scalar():
    seed = 77
    states = substream_batch(seed, 0, 50)
    for i in range(50):
        assert int(states[i]) == substream(seed, i).state


def test_substream_batch_across_a_block_boundary_and_its_read_only_cache():
    seed = 2**64 - 3
    first, last = MC_BLOCK_TRIALS - 40, MC_BLOCK_TRIALS + 40
    states = substream_batch(seed, first, last)
    assert states.dtype == np.uint64
    assert [int(s) for s in states] == [substream(seed, i).state for i in range(first, last)]
    scrambled = rng_module._scrambled_indices(first, last)
    assert not scrambled.flags.writeable
    with pytest.raises(ValueError):
        scrambled[0] = 0
    # the caller's states are its own: writing them leaves the cache and the next call alone
    assert not np.shares_memory(states, scrambled)
    states[:] = 0
    assert [int(s) for s in substream_batch(seed, first, last)] == [
        substream(seed, i).state for i in range(first, last)
    ]


def test_scramble_cache_keeps_ranges_walked_in_order(monkeypatch):
    # the Monte Carlo harness walks the same block ranges in the same order for
    # every cell; past 2**20 trials the first 64 ranges must still hit
    blocks = 80
    ranges = [(first, first + MC_BLOCK_TRIALS) for first in range(0, blocks * MC_BLOCK_TRIALS, MC_BLOCK_TRIALS)]
    rng_module._cached_scramble.cache_clear()
    for first, last in ranges:
        rng_module._scrambled_indices(first, last)
    scrambled = []
    real = rng_module.next_u64_batch
    monkeypatch.setattr(rng_module, "next_u64_batch", lambda states: scrambled.append(states.size) or real(states))
    for first, last in ranges:
        assert rng_module._scrambled_indices(first, last).size == MC_BLOCK_TRIALS
    assert len(scrambled) == blocks - 64
    assert rng_module._cached_scramble.cache_info().hits == 64
    # the cache never holds more than 64 ranges of 2**14 indices: 8 MiB
    assert rng_module._scrambled_indices(0, 1 << 15) is not rng_module._scrambled_indices(0, 1 << 15)
    first, last = ranges[-1][1] - 3, ranges[-1][1]  # past 2**20: built per call
    assert [int(s) for s in substream_batch(5, first, last)] == [substream(5, i).state for i in range(first, last)]


@pytest.mark.parametrize("call", ["uniform(RngState(1), 2**64 + 1)", "uniform_batch(np.ones(4, np.uint64), 2**65)"])
def test_uniform_bound_above_2_64_raises_instead_of_looping(call):
    # above 2**64 the rejection limit (2**64 // n) * n is 0, so no draw is
    # ever accepted; the child process keeps a regression from hanging the suite
    code = (
        "import numpy as np\n"
        "from specmask.rng import RngState, uniform, uniform_batch\n"
        f"try:\n    {call}\nexcept ValueError as exc:\n    print('ValueError', exc)\n"
    )
    result = run_python(["-c", code])
    assert result.stdout.startswith("ValueError"), result.stderr
    assert "2**64" in result.stdout


def test_substreams_are_decorrelated():
    # adjacent substreams should not share outputs over a short horizon
    seen = set()
    for index in range(100):
        state = substream(9, index)
        for _ in range(10):
            out, state = next_u64(state)
            seen.add(out)
    assert len(seen) == 1000
