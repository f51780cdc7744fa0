"""PGM rendering of feature matrices and mask overlays."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specmask.errors import MaskBoundsError
from specmask.features import FeatureMatrix
from specmask.masking import MaskSpec, apply_masks
from specmask.render import render_masks_pgm


def parse_pgm(path) -> tuple[int, int, np.ndarray]:
    """Independent P2 reader: returns (width, height, pixel grid)."""
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert maxval == 255
    pixels = np.array([int(t) for t in tokens[4:]]).reshape(height, width)
    return width, height, pixels


def matrix(data) -> FeatureMatrix:
    return FeatureMatrix(data=np.asarray(data, dtype=float), frame_shift_ms=10.0, kind="log_mel")


def test_constant_matrix_renders_mid_gray(tmp_path):
    path = tmp_path / "c.pgm"
    render_masks_pgm(matrix(np.ones((10, 4))), [], path)
    width, height, pixels = parse_pgm(path)
    assert (width, height) == (10, 4)
    assert np.all(pixels == 128)


def test_time_mask_blacks_out_columns(tmp_path):
    path = tmp_path / "m.pgm"
    render_masks_pgm(matrix(np.ones((10, 4))), [MaskSpec("time", 2, 3)], path)
    _, _, pixels = parse_pgm(path)
    assert np.all(pixels[:, 2:5] == 0)
    assert np.all(pixels[:, :2] == 128)
    assert np.all(pixels[:, 5:] == 128)


def test_frequency_mask_blacks_out_rows_bottom_up(tmp_path):
    # channel 0 is the bottom image row
    path = tmp_path / "f.pgm"
    render_masks_pgm(matrix(np.ones((6, 5))), [MaskSpec("frequency", 0, 2)], path)
    _, height, pixels = parse_pgm(path)
    assert height == 5
    assert np.all(pixels[3:, :] == 0)  # channels 0..1 = bottom two rows
    assert np.all(pixels[:3, :] == 128)


def test_low_channel_at_bottom_orientation(tmp_path):
    data = np.zeros((3, 4))
    data[:, 3] = 1.0  # highest channel bright
    path = tmp_path / "o.pgm"
    render_masks_pgm(matrix(data), [], path)
    _, _, pixels = parse_pgm(path)
    assert np.all(pixels[0] == 255)  # top row = channel 3
    assert np.all(pixels[1:] == 0)


def test_hand_frozen_gray_values(tmp_path):
    # values 0..3 rescale to floor(v/3*255 + 0.5)
    path = tmp_path / "g.pgm"
    render_masks_pgm(matrix([[0.0, 1.0], [2.0, 3.0]]), [], path)
    _, _, pixels = parse_pgm(path)
    # T=2, nu=2: pixel grid rows top->bottom are channels 1, 0
    assert pixels.tolist() == [[85, 255], [0, 170]]


def test_gray_formula_matches_independent_computation(tmp_path):
    rng = np.random.default_rng(6)
    data = rng.normal(size=(12, 7))
    path = tmp_path / "r.pgm"
    render_masks_pgm(matrix(data), [], path)
    _, _, pixels = parse_pgm(path)
    lo, hi = data.min(), data.max()
    for t in range(12):
        for c in range(7):
            expected = math.floor((data[t, c] - lo) / (hi - lo) * 255 + 0.5)
            assert pixels[6 - c, t] == expected


def test_raster_lines_stay_short(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "wide.pgm"
    render_masks_pgm(matrix(rng.normal(size=(200, 30))), [], path)
    for line in path.read_text().splitlines():
        assert len(line) <= 70


def test_mask_out_of_bounds(tmp_path):
    with pytest.raises(MaskBoundsError):
        render_masks_pgm(matrix(np.ones((4, 4))), [MaskSpec("time", 3, 2)], tmp_path / "x.pgm")


def test_zero_length_masks_change_nothing(tmp_path):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    m = matrix(np.arange(12.0).reshape(4, 3))
    render_masks_pgm(m, [], a)
    render_masks_pgm(m, [MaskSpec("time", 1, 0), MaskSpec("frequency", 2, 0)], b)
    assert a.read_bytes() == b.read_bytes()


def test_figure_panels_match_goldens(tmp_path):
    from conftest import GOLDEN_DIR, figure_panels

    panels = figure_panels(tmp_path)
    assert set(panels) == {"none", "time", "freq", "both"}
    for name, data in panels.items():
        assert data == (GOLDEN_DIR / f"panel_{name}.pgm").read_bytes(), name


def test_black_cells_are_exactly_the_cells_apply_masks_zeroes(tmp_path):
    rng = np.random.default_rng(12)
    for trial in range(40):
        frames, channels = (int(v) for v in rng.integers(1, 12, size=2))
        masks = []
        for _ in range(int(rng.integers(0, 5))):
            axis = "time" if rng.random() < 0.5 else "frequency"
            extent = frames if axis == "time" else channels
            start = int(rng.integers(0, extent))
            masks.append(MaskSpec(axis, start, int(rng.integers(0, extent - start + 1))))
        features = matrix(1.0 + rng.random((frames, channels)))  # no cell is zero before masking
        zeroed = apply_masks(features, masks).data == 0.0
        plain, masked = tmp_path / f"plain{trial}.pgm", tmp_path / f"masked{trial}.pgm"
        render_masks_pgm(features, [], plain)
        render_masks_pgm(features, masks, masked)
        plain_pixels = parse_pgm(plain)[2][::-1].T  # back to (frames, channels)
        masked_pixels = parse_pgm(masked)[2][::-1].T
        assert np.array_equal(masked_pixels == 0, zeroed | (plain_pixels == 0)), masks
        assert np.array_equal(masked_pixels[~zeroed], plain_pixels[~zeroed]), masks
