"""The output checks catch rows and trees that are wrong in ways the program cannot see itself."""

from __future__ import annotations

import math

import numpy as np

import checks
import gen

EXTENTS, WIDTHS, COUNTS, TRIALS = (1, 3), (0, 2), (1, 2), 10_000


def good_rows() -> list[dict]:
    rows = []
    for extent in EXTENTS:
        for max_width in WIDTHS:
            for count in COUNTS:
                mean, variance, _ = checks.covered_moments(max_width, count, extent)
                rows.append(
                    dict(extent=extent, max_width=max_width, count=count, exact=mean, mc_mean=mean,
                         mc_stderr=math.sqrt(variance / TRIALS), trials=TRIALS, passed=True, reran=False)
                )
    return rows


def test_covered_moments_by_hand():
    # one mask of width 0..1 on a single position: covered with probability 1/2
    assert checks.covered_moments(1, 1, 1) == (0.5, 0.25, 0.0625)
    # two masks on two positions cover both whenever both widths are 1
    assert checks.covered_moments(1, 2, 2)[0] == 1.0


def test_check_grid_accepts_the_planned_grid():
    assert checks.check_grid(good_rows(), EXTENTS, WIDTHS, COUNTS, TRIALS) == []


def test_check_grid_rejects_missing_and_wrong_rows():
    assert len(checks.check_grid([], EXTENTS, WIDTHS, COUNTS, TRIALS)) == 8
    assert len(checks.check_grid(good_rows()[1:], EXTENTS, WIDTHS, COUNTS, TRIALS)) == 8
    for field, value in (("trials", TRIALS // 2), ("exact", 0.3), ("passed", False)):
        rows = good_rows()
        rows[-1][field] = value
        assert len(checks.check_grid(rows, EXTENTS, WIDTHS, COUNTS, TRIALS)) == 1, field
    # fewer trials than reported: the standard error is sqrt(2) too large
    rows = good_rows()
    rows[-1]["mc_stderr"] *= math.sqrt(2)
    assert len(checks.check_grid(rows, EXTENTS, WIDTHS, COUNTS, TRIALS)) == 1


def test_check_tree_rejects_a_file_its_iteration_did_not_write(tmp_path):
    # trees are emptied before each iteration, so a file the iteration did not write is missing
    utt = gen.Utterance("u", frames=4, audio_s=0.04)
    (tmp_path / "u.spfx").write_bytes(gen.spfx_bytes(np.ones((4, 3), dtype="<f4"), gen.KIND_LOG_MEL, gen.FRAME_SHIFT_MS))
    (tmp_path / "u.masks").write_text("", encoding="utf-8")
    policy = (0, 0, 0, 0)
    assert checks.check_tree(tmp_path, [utt], 3, gen.KIND_LOG_MEL, policy).failed == []
    (tmp_path / "u.masks").unlink()
    assert len(checks.check_tree(tmp_path, [utt], 3, gen.KIND_LOG_MEL, policy).failed) == 1
