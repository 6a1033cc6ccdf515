"""The z-scan: seeded Monte Carlo z-scores against the analytic values.

A run's z-score for a statistic is (estimate - analytic) / stderr.  When
the estimates and their standard errors are right, z is close to standard
normal at every source and on every sampling path, so a scan over sources
and seeds checks the estimator as a whole, whatever the stream.

Run a larger scan with ``python tests/test_zscan.py GATES SEEDS``; it
exits 1 when the pooled sd or the largest |z| leaves SCAN_SD_BOUNDS or
SCAN_Z_MAX.
"""

import math
import sys

import numpy as np

from hbtcount import (
    SimulationConfig,
    SourceLaw,
    TernaryLaw,
    exact_correlation,
    series_moments,
    simulate_series,
    source_factorial_moments,
)
from hbtcount import mc, sources
from test_acceptance import GRID

STATISTICS = ("k", "r", "f", "mean_xi", "mean_eta")
LAW = TernaryLaw(0.3, 0.2, 0.5)

# (source, law) beyond GRID, whose 12 points draw every gate through the
# occupancy table and mostly through the binomial tables.
PATH_CASES = [
    # occupancies up to about 100: gates above the row split are thinned
    # one by one, in both stages
    (SourceLaw("boson-polarized", modes=1, nbar=10.0), LAW),
    # a two-component table, one convolution, reaching past mean + 8 sd
    (SourceLaw("boson-partial", modes=2, nbar=3.0, polarization=0.4), LAW),
    # a table of about 10800 cells, wider than 10**4 gates: sample_occupancy
    # and per-gate thinning, chunk by chunk
    (SourceLaw("coherent", modes=1, nbar=1e4), LAW),
]
CASES = GRID + PATH_CASES


def zscan(cases, gates, seeds):
    """The z-score of each statistic, per case and seed, as an array of
    shape (cases, seeds, statistics); nan where the run's stderr is 0 (a
    statistic that does not vary, such as K for one fermion per gate)."""
    z = np.full((len(cases), len(seeds), len(STATISTICS)), np.nan)
    for i, (src, law) in enumerate(cases):
        sm = series_moments(law, src)
        analytic = {"k": sm.k_ratio, "r": exact_correlation(law, src),
                    "f": sm.fano, "mean_xi": sm.mean_xi,
                    "mean_eta": sm.mean_eta}
        for j, seed in enumerate(seeds):
            report = simulate_series(SimulationConfig(
                law=law, source=src, gates=gates, seed=seed))
            for m, name in enumerate(STATISTICS):
                est = report.estimate(name)
                if est.stderr != 0.0:
                    z[i, j, m] = est.z_score(analytic[name])
    return z


def summary(z) -> dict:
    values = z[~np.isnan(z)]
    return {"count": values.size, "mean": float(values.mean()),
            "sd": float(values.std()),
            "above_4": int(np.count_nonzero(np.abs(values) > 4.0)),
            "max_abs": float(np.abs(values).max())}


# 15 cases x 20 seeds x 5 statistics, less the 2 that do not vary at the
# point fermion-polarized M = 1, nbar = 1: 1460 z-scores.
SEEDS = range(20)
GATES = 10 ** 4
# The bounds, for a pass probability above 0.999 when the estimator is
# right:
# * no |z| > 5: for a standard normal z, P(|z| > 5) = 5.7e-7, so by the
#   union bound the chance of any among 1460 is below 8.3e-4.  A skewed z
#   (the ratio statistics at 10**4 gates) moves mass from one tail to the
#   other at first order and leaves their sum as it is.
# * pooled sd in [0.9, 1.1]: over 100 disjoint sets of 20 seeds (1000 to
#   2999), the pooled sd of a set had mean 1.002 and sd 0.022, so the
#   bounds lie 4.7 and 4.5 of those sds away: a two-sided normal tail of
#   7e-6.  (The parent estimator, a 64-block jackknife, gave 1.019 and
#   0.028 on the same sets.)
SD_BOUNDS = (0.9, 1.1)
Z_MAX = 5.0
# The bounds of a larger scan from the command line, which exits 1 outside
# them.  At 10**4 gates and 100 seeds (7300 z-scores), a pooled sd in
# [0.95, 1.05] lies 6 of its sds, 1 / sqrt(2 * 7300), from 1, and a standard
# normal passes |z| > 5.5 with chance 3.8e-8, 2.8e-4 for any of 7300.
SCAN_SD_BOUNDS = (0.95, 1.05)
SCAN_Z_MAX = 5.5


def test_z_scores_are_standard_normal():
    z = zscan(CASES, GATES, SEEDS)
    result = summary(z)
    assert result["count"] == 15 * 20 * 5 - 2 * 20
    assert SD_BOUNDS[0] <= result["sd"] <= SD_BOUNDS[1], result
    assert result["max_abs"] <= Z_MAX, result


def test_scan_covers_each_path():
    """Each PATH_CASES source takes the path that its comment names."""
    split, convolved, per_gate = (
        SimulationConfig(law=law, source=src, gates=GATES)
        for src, law in PATH_CASES)
    rng = np.random.default_rng(0)
    histogram = mc._occupancy_histogram(rng, split)
    for stage in (histogram, mc._detected(rng, histogram, LAW.s)):
        assert mc._row_split(stage) < len(stage) - 1
    assert mc._occupancy_histogram(rng, convolved) is not None
    fm = source_factorial_moments(convolved.source)
    window, _ = sources._cutoff_window(convolved.source, sources._TAIL_EPS,
                                       GATES // mc._CELL_GATES - 1)
    assert len(window) - 1 > fm.mean + 8.0 * math.sqrt(fm.fano * fm.mean)
    assert mc._occupancy_histogram(rng, per_gate) is None


if __name__ == "__main__":
    gates, seeds = int(float(sys.argv[1])), int(sys.argv[2])
    z = zscan(CASES, gates, range(seeds))
    result = summary(z)
    print("all", result)
    for m, name in enumerate(STATISTICS):
        print(name, summary(z[:, :, m]))
    worst = np.argwhere(np.abs(z) > 4.0)
    for i, j, m in worst:
        print(f"|z| > 4: case {i} seed {j} {STATISTICS[m]} "
              f"{z[i, j, m]:+.2f}")
    print("pooled sd per case:",
          [round(float(np.nanstd(z[i])), 3) for i in range(len(CASES))])
    if not (SCAN_SD_BOUNDS[0] <= result["sd"] <= SCAN_SD_BOUNDS[1]
            and result["max_abs"] <= SCAN_Z_MAX):
        sys.exit(f"z-scan outside pooled sd {SCAN_SD_BOUNDS} or |z| <= "
                 f"{SCAN_Z_MAX}")
