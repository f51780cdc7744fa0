"""
Checking the sampler against the exact expected coverage
========================================================

The expected number of positions covered by the mask union has a closed
form in integer arithmetic, exact and linear in the axis; `verify` uses
it, and the single-mask mean is its one-mask case.  The test suite checks
it against a brute-force enumeration of every (width, start) tuple on
small axes.  Monte Carlo from the shipped sampler must land within three
standard errors of it, cell by cell.
"""

import sys

from specmask import (
    RngState,
    exact_masked_mean,
    exact_masked_mean_multi,
    monte_carlo_masked_mean,
    verify_grid,
)

trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000

# The worked single-mask example: width uniform on {0..4}, axis of 10.
# Enumerating all 50 (width, start) pairs sums clamped lengths to 90; the
# closed form with one mask gets the same 90/50.
clamped = sum(min(width, 10 - start) for width in range(5) for start in range(10))
print(f"exact_masked_mean(4, 10) = {exact_masked_mean(4, 10)}  ({clamped}/50)")

# Two masks interact through the no-replacement rule and overlap.  The
# closed form does not enumerate them: per position, it counts the chance
# that no mask covers it, in integers.
exact_two = exact_masked_mean_multi(4, 2, 10)
print(f"exact_masked_mean_multi(4, 2, 10) = {exact_two:.6f}")

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
