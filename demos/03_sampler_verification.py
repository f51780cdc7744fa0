"""
Checking the sampler against exact enumeration
==============================================

The expected number of positions covered by the mask union can be
enumerated exactly on small axes, and it also has a closed form in integer
arithmetic that returns the same float in time linear in the axis; `verify`
uses the closed form, and the single-mask mean is its one-mask case.
Monte Carlo from the shipped sampler must land within three standard errors
of it, cell by cell.
"""

import sys

from specmask import (
    RngState,
    exact_masked_mean,
    exact_masked_mean_closed,
    exact_masked_mean_multi,
    monte_carlo_masked_mean,
    verify_grid,
)

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000

# The worked single-mask example: width uniform on {0..4}, axis of 10.
# Enumerating all 50 (width, start) pairs sums clamped lengths to 90; the
# closed form with one mask gets the same 90/50.
print(f"exact_masked_mean(4, 10) = {exact_masked_mean(4, 10)}  (90/50)")

# Two masks interact through the no-replacement rule and overlap, so the
# brute force enumerates ordered distinct start pairs instead.  The closed
# form gets the same number without enumerating: per position, the chance
# that no mask covers it, in integers; `verify` uses it.
exact_two = exact_masked_mean_multi(4, 2, 10)
print(f"exact_masked_mean_multi(4, 2, 10) = {exact_two:.6f}")
print(f"exact_masked_mean_closed(4, 2, 10) = {exact_masked_mean_closed(4, 2, 10):.6f}")

# One Monte Carlo cell, by hand.
report = monte_carlo_masked_mean(4, 2, 10, trials, RngState(123))
sigma = abs(report.mc_mean - exact_two) / report.mc_stderr
print(f"monte carlo at {trials} trials: mean={report.mc_mean:.6f} stderr={report.mc_stderr:.6f} ({sigma:.2f} sigma)")

# A reduced grid of the full verification (the CLI's `verify` runs
# extents 1..12, widths 0..6, counts 1 and 2 at a million trials).
rows = verify_grid(range(1, 7), range(0, 4), (1, 2), trials, seed=1)
failures = [row for row in rows if not row.passed]
print(f"{len(rows) - len(failures)}/{len(rows)} grid cells within 3 standard errors")
for row in failures:
    print(f"  FAIL extent={row.extent} max_width={row.max_width} count={row.count}")
