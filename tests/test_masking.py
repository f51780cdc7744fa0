"""Mask sampling, application, and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from specmask.errors import FormatError, MaskBoundsError
from specmask.features import FeatureMatrix
from specmask.masking import (
    POLICY_PRESETS,
    AugmentPolicy,
    MaskSpec,
    apply_masks,
    augment,
    masks_from_text,
    masks_to_text,
    resolve_policy,
    sample_axis_masks,
    sample_axis_masks_batch,
    sample_policy_masks,
)
from specmask.rng import RngState, uniform


def ones_matrix(t: int, nu: int) -> FeatureMatrix:
    return FeatureMatrix(data=np.ones((t, nu)), frame_shift_ms=10.0, kind="log_mel")


def test_policy_presets():
    def tup(p):
        return (p.max_freq_width, p.num_freq_masks, p.max_time_width, p.num_time_masks)

    assert tup(POLICY_PRESETS["libri-best"]) == (5, 1, 40, 2)
    assert tup(POLICY_PRESETS["iwslt-best"]) == (4, 1, 40, 2)
    assert tup(POLICY_PRESETS["ld-like"]) == (27, 2, 100, 2)
    assert tup(POLICY_PRESETS["none"]) == (0, 0, 0, 0)


def test_resolve_policy():
    assert resolve_policy("libri-best") == POLICY_PRESETS["libri-best"]
    assert resolve_policy("3,1,10,2") == AugmentPolicy(3, 1, 10, 2)
    with pytest.raises(FormatError):
        resolve_policy("not-a-preset")
    with pytest.raises(FormatError):
        resolve_policy("1,2,3")
    with pytest.raises(FormatError):
        resolve_policy("1,2,3,x")
    with pytest.raises(FormatError):
        resolve_policy("-1,2,3,4")


def test_policy_validation():
    with pytest.raises(ValueError):
        AugmentPolicy(max_freq_width=-1)
    assert POLICY_PRESETS["none"].is_identity
    assert AugmentPolicy(0, 5, 0, 5).is_identity  # zero widths mask nothing
    assert not POLICY_PRESETS["libri-best"].is_identity


@pytest.mark.parametrize("field", ["max_freq_width", "max_time_width"])
def test_policy_width_must_fit_a_64_bit_draw(field):
    assert getattr(AugmentPolicy(**{field: 2**64 - 1}), field) == 2**64 - 1
    with pytest.raises(ValueError, match="2\\*\\*64 - 1"):
        AugmentPolicy(**{field: 2**64})
    with pytest.raises(FormatError):
        resolve_policy(f"0,0,{2**65},1" if field == "max_time_width" else f"{2**65},1,0,0")


def test_max_width_zero_gives_zero_lengths():
    masks, _ = sample_axis_masks(0, 5, 10, "time", RngState(3))
    assert len(masks) == 5
    assert all(m.length == 0 for m in masks)


def test_count_capped_at_extent_with_permutation_starts():
    masks, _ = sample_axis_masks(5, 9, 5, "time", RngState(4))
    assert len(masks) == 5
    assert sorted(m.start for m in masks) == [0, 1, 2, 3, 4]


def test_masks_deterministic_and_in_draw_order():
    a, state_a = sample_axis_masks(4, 3, 10, "frequency", RngState(5))
    b, state_b = sample_axis_masks(4, 3, 10, "frequency", RngState(5))
    assert a == b
    assert state_a == state_b
    assert all(m.axis == "frequency" for m in a)


def test_mask_fixture_replays_the_stream():
    # re-derive the expected masks from raw uniform draws
    max_width, count, extent = 4, 2, 7
    rng = RngState(99)
    expected = []
    used = set()
    for _ in range(count):
        w, rng = uniform(rng, max_width + 1)
        s, rng = uniform(rng, extent)
        while s in used:
            s, rng = uniform(rng, extent)
        used.add(s)
        expected.append(MaskSpec(axis="time", start=s, length=min(w, extent - s)))
    masks, final = sample_axis_masks(max_width, count, extent, "time", RngState(99))
    assert masks == expected
    assert final == rng


def test_mask_bounds_and_distinct_starts_over_many_seeds():
    for seed in range(300):
        masks, _ = sample_axis_masks(6, 4, 9, "time", RngState(seed))
        starts = [m.start for m in masks]
        assert len(set(starts)) == len(starts)
        for m in masks:
            assert 0 <= m.start < 9
            assert m.length <= 6
            assert m.start + m.length <= 9


def test_extent_must_be_positive():
    with pytest.raises(ValueError):
        sample_axis_masks(1, 1, 0, "time", RngState(0))


def test_batch_sampler_matches_scalar():
    rng = np.random.default_rng(7)
    shapes = [
        (0, 1, 1), (4, 1, 10), (6, 2, 12), (3, 4, 5), (5, 9, 5), (2, 2, 2),
        (0, 2, 6), (5, 3, 1),  # width bound 1, extent 1: draws that are always 0
        (1, 2, 4), (3, 2, 8), (7, 3, 16),  # power-of-two width bounds and extents
        (4, 3, 2), (6, 3, 3),  # long redraw loops: k = 3 on extents 2 and 3
        (2**64 - 1, 2, 6),  # the largest width bound, uint64 widths
        (3, 2, 2**63 - 1), (2**64 - 1, 2, 2**63 - 1),  # the largest extent, with small and uint64 widths
    ]
    for max_width, count, extent in shapes:
        seeds = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        starts, lengths, states = sample_axis_masks_batch(max_width, count, extent, seeds)
        for i, seed in enumerate(seeds.tolist()):
            masks, final = sample_axis_masks(max_width, count, extent, "time", RngState(seed))
            assert [m.start for m in masks] == starts[i].tolist()
            assert [m.length for m in masks] == lengths[i].tolist()
            assert final.state == int(states[i])


def test_batch_count_extent_permutations():
    # count == extent: every trial's starts are a permutation
    starts, _, _ = sample_axis_masks_batch(3, 6, 6, np.arange(500, dtype=np.uint64))
    sorted_starts = np.sort(starts, axis=1)
    assert np.array_equal(sorted_starts, np.tile(np.arange(6), (500, 1)))


def test_width_draws_are_uniform_chi_square():
    # the sampler draws widths through uniform(); check that path at scale
    scipy_stats = pytest.importorskip("scipy.stats")
    from specmask.rng import substream_batch

    n = 7
    trials = 1_000_000
    extent = 10**6
    states = substream_batch(31337, 0, trials)
    starts, lengths, _ = sample_axis_masks_batch(n - 1, 1, extent, states)
    # keep only draws where no width would clamp; start is independent of
    # width, so the surviving widths stay uniform
    unclamped = starts[:, 0] + (n - 1) <= extent
    widths = lengths[unclamped, 0]
    counts = np.bincount(widths, minlength=n)
    expected = widths.shape[0] / n
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < scipy_stats.chi2.ppf(0.999, df=n - 1)


def test_policy_masks_time_then_frequency():
    masks, _ = sample_policy_masks(POLICY_PRESETS["libri-best"], 100, 40, RngState(11))
    assert [m.axis for m in masks] == ["time", "time", "frequency"]
    # shared stream: the time draws change what the frequency masks see
    masks2, _ = sample_policy_masks(
        AugmentPolicy(max_freq_width=5, num_freq_masks=1), 100, 40, RngState(11)
    )
    assert masks2[0].axis == "frequency"
    assert masks2[0] != masks[2]


def test_policy_none_draws_nothing():
    masks, state = sample_policy_masks(POLICY_PRESETS["none"], 50, 20, RngState(12))
    assert masks == []
    assert state == RngState(12)


def test_policy_requires_positive_extents():
    with pytest.raises(ValueError):
        sample_policy_masks(POLICY_PRESETS["none"], 0, 4, RngState(0))


def test_apply_empty_mask_list_is_identity():
    m = ones_matrix(10, 4)
    out = apply_masks(m, [])
    assert out.data.tobytes() == m.data.tobytes()
    assert out is not m


def test_apply_single_time_mask():
    out = apply_masks(ones_matrix(10, 4), [MaskSpec("time", 2, 3)])
    assert np.all(out.data[2:5] == 0.0)
    assert out.data.sum() == 28.0


def test_apply_overlapping_time_masks():
    out = apply_masks(ones_matrix(10, 4), [MaskSpec("time", 0, 5), MaskSpec("time", 3, 5)])
    assert np.all(out.data[0:8] == 0.0)
    assert out.data.sum() == 8.0


def test_apply_frequency_mask():
    out = apply_masks(ones_matrix(3, 6), [MaskSpec("frequency", 4, 2)])
    assert np.all(out.data[:, 4:6] == 0.0)
    assert out.data.sum() == 12.0


def test_apply_does_not_mutate_input():
    m = ones_matrix(5, 5)
    apply_masks(m, [MaskSpec("time", 0, 5)])
    assert np.all(m.data == 1.0)


@pytest.mark.parametrize("via", ["apply_masks", "augment"])
def test_masking_a_matrix_masks_a_copy(via):
    features = FeatureMatrix(
        data=np.random.default_rng(8).normal(size=(40, 12)), frame_shift_ms=10.0, kind="log_mel"
    )
    before = features.data.tobytes()
    masks = [MaskSpec("time", 3, 9), MaskSpec("frequency", 10, 2)]
    expected = features.data.copy()
    expected[3:12] = 0.0
    expected[:, 10:12] = 0.0
    if via == "apply_masks":
        result = apply_masks(features, masks)
    else:
        result, drawn, _ = augment(features, POLICY_PRESETS["ld-like"], RngState(5))
        expected = apply_masks(FeatureMatrix(np.frombuffer(before).reshape(40, 12), 10.0, "log_mel"), drawn).data
    assert result.data.tobytes() == expected.tobytes()
    assert not np.shares_memory(result.data, features.data)
    assert features.data.tobytes() == before


def test_apply_out_of_bounds():
    with pytest.raises(MaskBoundsError):
        apply_masks(ones_matrix(10, 4), [MaskSpec("time", 8, 3)])
    with pytest.raises(MaskBoundsError):
        apply_masks(ones_matrix(10, 4), [MaskSpec("frequency", 4, 1)])


def test_augment_deterministic():
    m = ones_matrix(50, 20)
    out1, masks1, _ = augment(m, POLICY_PRESETS["libri-best"], RngState(21))
    out2, masks2, _ = augment(m, POLICY_PRESETS["libri-best"], RngState(21))
    assert masks1 == masks2
    assert out1.data.tobytes() == out2.data.tobytes()


def test_augment_identity_policy():
    m = ones_matrix(30, 10)
    out, masks, state = augment(m, POLICY_PRESETS["none"], RngState(33))
    assert masks == []
    assert out.data.tobytes() == m.data.tobytes()
    assert state == RngState(33)


def test_augment_ld_like_mask_counts():
    m = ones_matrix(150, 80)
    _, masks, _ = augment(m, POLICY_PRESETS["ld-like"], RngState(44))
    assert sum(m.axis == "time" for m in masks) == 2
    assert sum(m.axis == "frequency" for m in masks) == 2


def test_mask_text_round_trip():
    masks = [MaskSpec("time", 3, 5), MaskSpec("frequency", 0, 0), MaskSpec("time", 9, 1)]
    text = masks_to_text(masks)
    assert text == "time\t3\t5\nfrequency\t0\t0\ntime\t9\t1\n"
    assert masks_from_text(text) == masks
    assert masks_from_text("") == []
    assert masks_to_text([]) == ""


def test_mask_text_errors_cite_line():
    with pytest.raises(FormatError, match="line 1"):
        masks_from_text("time\t3\n")
    with pytest.raises(FormatError, match="line 2: axis must be one of .*, got 'space'"):
        masks_from_text("time\t3\t5\nspace\t0\t0\n")
    with pytest.raises(FormatError, match="line 1"):
        masks_from_text("time\tx\t5\n")
    with pytest.raises(FormatError, match="line 1"):
        masks_from_text("time\t-1\t5\n")
