"""Plain-text PGM (P2) rendering of feature matrices with mask overlays."""

from __future__ import annotations

import textwrap
from pathlib import Path

import numpy as np

from .features import FeatureMatrix
from .masking import MaskSpec, mask_index

MAX_LINE = 70  # PGM raster lines must stay short


def render_masks_pgm(features: FeatureMatrix, masks: list[MaskSpec], path) -> None:
    """Write a P2 image: width T, height num_channels, low channel at the bottom.

    Cell values are linearly rescaled to 0..255 over the matrix min/max
    (a constant matrix renders as all 128); masked cells are forced to black.
    """
    data = features.data
    num_frames, num_channels = data.shape
    lo = float(data.min())
    hi = float(data.max())
    if hi == lo:
        gray = np.full((num_frames, num_channels), 128, dtype=np.int64)
    else:
        gray = np.floor((data - lo) / (hi - lo) * 255.0 + 0.5).astype(np.int64)

    for mask in masks:
        gray[mask_index(mask, gray.shape)] = 0

    lines = ["P2", f"{num_frames} {num_channels}", "255"]
    for channel in range(num_channels - 1, -1, -1):  # top image row = highest channel
        lines += textwrap.wrap(" ".join(map(str, gray[:, channel])), MAX_LINE)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
