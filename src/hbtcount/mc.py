"""Monte Carlo verification of the analytic series statistics.

Gates are split into 64 near-equal blocks (fewer when there are fewer
gates).  A run draws all blocks together, layer by layer, from one
counter-based Philox stream keyed by the seed, so a configuration gives a
bit-identical report; there is no per-block stream and no block schedule.

Gates are iid, so a block needs only its histogram of gate occupancies
n.  Each of a gate's n quanta excites detector A (p), detector B (q) or
neither (r): it is detected with s = 1 - r, and a detected quantum goes
to A with p/(p + q).  Given its d detected quanta, a gate's split (xi,
eta = d - xi) does not depend on n.  Each layer is one exact draw for the
whole run:

* Occupancies: one multinomial per block, in one call, over a once-per-run
  pmf table W_0..W_hi plus a tail cell with the exact mass past hi; the
  run's tail gates get their n by inversion over the pmf past hi.  A run
  whose window has more cells than its largest block (or too many for
  _GROUP_COST) draws its gates from `sample_occupancy` instead, block
  after block, and thins them gate by gate.
* Counts, in two binomial-thinning stages: the occupancy histograms are
  thinned to histograms of detected counts d ~ Binomial(n, s), and those
  to histograms of xi ~ Binomial(d, p/(p + q)), with the per-block sums
  of d*xi.  In each stage a row split j, chosen from the histograms,
  sends the gates with a count k <= j through one multinomial per block
  and row over the binomial cells 0..j, (j + 1)**2 cells a block, and the
  gates with k > j through one binomial each.  j minimises the cells
  drawn plus _GATE_COST per gate thinned one by one.  The eta sums follow
  exactly from the d and xi sums.

Point estimates are computed from the pooled sums.  Standard errors are
leave-one-block-out jackknife errors over the exact pooled sums, which
stay finite when one block has no count in a detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementary import TernaryLaw, _xlogy
from .errors import DomainError
from .sources import SourceLaw, occupancy_table, source_factorial_moments

DEFAULT_Z_MAX = 4.0
BLOCKS = 64
# Occupancy tables reach this many standard deviations past the mean; the
# tail cell holds the rest exactly, so this only trades table cells
# against tail draws.
_WINDOW_SIGMAS = 8.0
# The cost of thinning one gate by one binomial, in multinomial table
# cells: timeit puts it at 2 to 4, and pass times are flat from 2 to 12
# (2-core Xeon, numpy 2.4).  6 rather than 3 halves the gates that each
# group of blocks (below) thins one by one, which lowers a wide run's peak.
_GATE_COST = 6
# A run's histograms and each group of blocks thinned together hold
# about this many cost units at most, which bounds the memory of a run.
_GROUP_COST = 2 ** 20


@dataclass(frozen=True)
class SimulationConfig:
    law: TernaryLaw
    source: SourceLaw
    gates: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if self.gates < 2:
            raise ValueError("insufficient data: need at least 2 gates")
        # the seed is the run's Philox key
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2**64)")

    @property
    def n_blocks(self) -> int:
        return min(BLOCKS, self.gates)


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float

    def z_score(self, analytic: float) -> float:
        if self.stderr > 0.0:
            return (self.value - analytic) / self.stderr
        return 0.0 if self.value == analytic else math.inf


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimates of K, R, F and the mean counts."""

    gates: int
    blocks: int
    k_hat: Estimate
    r_hat: Estimate
    f_hat: Estimate
    mean_xi_hat: Estimate
    mean_eta_hat: Estimate

    STATISTICS = ("k", "r", "f", "mean_xi", "mean_eta")

    def estimate(self, name: str) -> Estimate:
        try:
            return getattr(self, f"{name}_hat")
        except AttributeError:
            raise ValueError(f"unknown statistic: {name!r}") from None

    def as_dict(self) -> dict:
        out = {"gates": self.gates, "blocks": self.blocks}
        for name in self.STATISTICS:
            est = self.estimate(name)
            out[name] = {"value": est.value, "stderr": est.stderr}
        return out


def sample_occupancy(source: SourceLaw, rng: np.random.Generator,
                     size: int | None = None):
    """Draw gate occupancies n ~ {W_n}, summing one draw per component
    of the source in component order."""
    shape = 1 if size is None else size
    total = sum(comp.sample(rng, shape) for comp in source._components)
    return int(total[0]) if size is None else total


def _stats(count, s_xi, s_eta, s_n, s_xi2, s_eta2, s_n2, s_cross):
    """K, R, F and the mean counts, in `EstimateReport.STATISTICS` order,
    from arrays of per-gate sums; an undefined ratio (0/0) comes out nan."""
    mean_xi = s_xi / count
    mean_eta = s_eta / count
    cross = s_cross / count
    var_xi = s_xi2 / count - mean_xi ** 2
    var_eta = s_eta2 / count - mean_eta ** 2
    n_mean = s_n / count
    k = cross / (mean_xi * mean_eta)
    r = (cross - mean_xi * mean_eta) / np.sqrt(var_xi * var_eta)
    f = (s_n2 / count - n_mean ** 2) / n_mean
    return k, r, f, mean_xi, mean_eta


def _binomial_table(top: int, pi: float):
    """A (top + 1, top + 1) table whose row k holds P(a) for a ~
    Binomial(k, pi), a = 0..top (0 when a > k), evaluated in log space."""
    values = np.arange(top + 1)
    k, a = values[:, None], values
    rest = np.maximum(k - a, 0)
    log_fact = np.cumsum(np.log(np.maximum(values, 1)))
    return np.tril(np.exp(log_fact[k] - log_fact[a] - log_fact[rest]
                          + _xlogy(a, pi) + _xlogy(rest, -pi, math.log1p)))


def _stage_probabilities(law: TernaryLaw):
    """The keep probabilities of the two thinning stages: a quantum is
    detected with s = 1 - r, and a detected one goes to A with p/(p + q),
    taken as 0 when nothing can be detected."""
    detected = law.p + law.q
    return law.s, (law.p / detected if detected > 0.0 else 0.0)


def _thin_per_gate(rng: np.random.Generator, law: TernaryLaw, n):
    """Per-gate counts: d ~ Binomial(n, s) detected, xi ~ Binomial(d,
    p/(p + q)), and eta = d - xi."""
    s, t = _stage_probabilities(law)
    d = rng.binomial(n, s)
    xi = rng.binomial(d, t)
    return xi, d - xi


def _sorted_cells(pvals):
    """The order that sorts pvals along the last axis, and the sorted
    pvals.  A multinomial draw gives its last cell whatever count is left,
    rounding residue included, so sorted cells send it to the most probable
    cell, never to an impossible one."""
    return np.argsort(pvals, axis=-1, kind="stable"), np.sort(pvals, axis=-1)


def _occupancy_table(cfg: SimulationConfig):
    """The source's pmf table, reaching _WINDOW_SIGMAS standard deviations
    past the mean (or the end of a bounded support), or None when that
    window has more cells than the largest block, or than _GROUP_COST over
    all blocks; gates are then drawn one by one."""
    fm = source_factorial_moments(cfg.source)
    hi = fm.mean + _WINDOW_SIGMAS * math.sqrt(max(fm.fano * fm.mean, 0.0))
    if cfg.source.max_count is not None:
        hi = min(hi, cfg.source.max_count)
    b = cfg.n_blocks
    if hi + 1 <= min(-(-cfg.gates // b), _GROUP_COST // b):  # False for nan
        return occupancy_table(cfg.source, math.ceil(hi))
    return None


def _trimmed(histogram):
    """histogram without its trailing columns that count no gate."""
    return histogram[:, :np.flatnonzero(histogram.any(axis=0))[-1] + 1]


def _occupancy_histograms(rng: np.random.Generator, table, sizes):
    """The gates per block and occupancy 0..top, shape (blocks, top + 1),
    with top the largest drawn: one multinomial per block over W_0..W_hi
    and the tail cell, then one inversion draw per tail gate, the run's
    tail gates booked to the blocks in block order."""
    order, pvals = _sorted_cells(np.append(table.window, table.tail))
    cells = np.empty((len(sizes), len(pvals)), dtype=np.int64)
    cells[:, order] = rng.multinomial(sizes, pvals)
    occupancy, in_tail = cells[:, :-1], cells[:, -1]
    if in_tail.any():
        tail = table.sample_tail(rng, int(in_tail.sum()))
        width = max(table.hi, int(tail.max())) + 1
        block = np.repeat(np.arange(len(sizes)), in_tail)
        occupancy = np.bincount(block * width + tail,
                                minlength=len(sizes) * width)
        occupancy = occupancy.reshape(len(sizes), width)
        occupancy[:, :table.hi + 1] += cells[:, :-1]
    return _trimmed(occupancy)


def _row_split(histogram) -> int:
    """The largest count j thinned as histograms.  Thinning rows 0..j
    draws (j + 1)**2 table cells for each block, and each gate with a
    count above j costs _GATE_COST cells; j minimises the sum, among the j
    whose cells for all blocks fit in _GROUP_COST."""
    counts = histogram.sum(axis=0)
    rows = np.arange(1, len(counts) + 1)
    cells = len(histogram) * rows * rows
    left = counts.sum() - np.cumsum(counts)
    cost = np.where(cells <= _GROUP_COST, cells + _GATE_COST * left, np.inf)
    return int(np.argmin(cost))


def _thin(rng: np.random.Generator, histogram, pi: float):
    """Thin the gates per block and count k in `histogram`, shape (blocks,
    width): each of a gate's k units is kept with probability pi, so the
    gate keeps a ~ Binomial(k, pi).  Returns the gates per block and kept
    count a, of the same shape, and each block's exact int64 sum of k*a.

    For a row split j (`_row_split`), gates with k <= j are thinned by one
    multinomial per block and row over the sorted cells of
    `_binomial_table(j, pi)`, gates with k > j by one binomial each.  Both
    draws are exact.  Blocks go in equal groups of at most _GROUP_COST cost
    units (or one block), so memory does not grow with a run's gates.
    """
    width = histogram.shape[1]
    split = _row_split(histogram)
    order, pvals = _sorted_cells(_binomial_table(split, pi))
    rows, values = np.arange(split + 1), np.arange(split + 1, width)
    above = histogram[:, split + 1:]
    per_block = above.sum(axis=1)
    step = max(1, _GROUP_COST
               // (pvals.size + _GATE_COST * int(per_block.max())))
    kept = np.zeros(histogram.shape, dtype=np.int64)
    cross = np.empty(len(histogram), dtype=np.int64)
    for lo in range(0, len(histogram), step):
        group = slice(lo, lo + step)
        part = kept[group]
        # joint[block, a, k]: the gates of count k that keep a
        joint = np.empty((len(part), split + 1, split + 1), dtype=np.int64)
        joint[:, order, rows[:, None]] = rng.multinomial(
            histogram[group, :split + 1], pvals)
        # per block and a: the gates, and the sum of k over them
        sums = joint @ np.stack([np.ones_like(rows), rows], axis=1)
        part[:, :split + 1] = sums[:, :, 0]
        cross[group] = sums[:, :, 1] @ rows
        gates = per_block[group]
        if gates.any():
            k = np.repeat(np.tile(values, len(part)), above[group].ravel())
            a = rng.binomial(k, pi)
            # each gate's cell in the group's flattened (blocks, width) part
            at = np.repeat(np.arange(0, part.size, width), gates)
            at += a
            part += np.bincount(at, minlength=part.size).reshape(part.shape)
            a *= k
            has = gates > 0
            cross[group][has] += np.add.reduceat(
                a, (np.cumsum(gates) - gates)[has])
    return kept, cross


def _power_sums(histogram):
    """Each block's exact int64 sums of k and k**2 over its gates."""
    k = np.arange(histogram.shape[1])
    return histogram @ k, histogram @ (k * k)


def _thinned_sums(rng: np.random.Generator, law: TernaryLaw, occupancy):
    """Per-block sums of xi, eta, xi**2, eta**2 and xi*eta, shape (blocks,
    5), for the gates per block and occupancy in `occupancy`: the detected
    counts d, then their split xi, in two `_thin` stages, each with its own
    row split, and eta = d - xi."""
    s, t = _stage_probabilities(law)
    # a trimmed copy, so a wide run frees the full-width detected histogram
    detected = _trimmed(_thin(rng, occupancy, s)[0]).copy()
    in_a, s_dxi = _thin(rng, detected, t)
    s_d, s_d2 = _power_sums(detected)
    s_xi, s_xi2 = _power_sums(in_a)
    # sum xi*eta = sum d*xi - sum xi**2, and sum eta**2 = sum d*eta -
    # sum xi*eta, each term within int64
    s_cross = s_dxi - s_xi2
    return np.stack([s_xi, s_d - s_xi, s_xi2, s_d2 - s_dxi - s_cross,
                     s_cross], axis=1)


def _check_sums(tops, counts):
    # xi, eta <= n, so this bounds every int64 block sum
    if any(top * top * count >= 2 ** 63 for top, count in zip(tops, counts)):
        raise DomainError("occupancy too large: block sums of squares "
                          "would overflow int64")


def _simulate_blocks(cfg: SimulationConfig) -> list[tuple]:
    """Simulate the run and return each block's sums as Python ints, in
    block order: (count, sum xi, sum eta, sum n, sum xi**2, sum eta**2,
    sum n**2, sum xi*eta).

    Block i covers gates [i*g//B, (i+1)*g//B), so block sizes differ by at
    most one.  Every draw comes from one Philox stream keyed by the seed.
    With an occupancy table, the blocks are drawn together, layer by
    layer; without one, block after block, gate by gate.
    """
    g, b = cfg.gates, cfg.n_blocks
    sizes = [(i + 1) * g // b - i * g // b for i in range(b)]
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    table = _occupancy_table(cfg)
    if table is None:
        blocks = []
        for count in sizes:
            n = sample_occupancy(cfg.source, rng, count)
            _check_sums([int(n.max())], [count])
            xi, eta = _thin_per_gate(rng, cfg.law, n)
            blocks.append((count, *map(int, (
                xi.sum(), eta.sum(), n.sum(), xi @ xi, eta @ eta, n @ n,
                xi @ eta))))
        return blocks
    occupancy = _occupancy_histograms(rng, table, np.array(sizes))
    tops = occupancy.shape[1] - 1 - np.argmax(occupancy[:, ::-1] > 0, axis=1)
    _check_sums(tops.tolist(), sizes)
    s_n, s_n2 = _power_sums(occupancy)
    s_xi, s_eta, s_xi2, s_eta2, s_cross = _thinned_sums(
        rng, cfg.law, occupancy).T
    columns = np.stack([sizes, s_xi, s_eta, s_n, s_xi2, s_eta2, s_n2,
                        s_cross], axis=1)
    return [tuple(row) for row in columns.tolist()]


def simulate_series(cfg: SimulationConfig) -> EstimateReport:
    """Simulate the configured series and estimate K, R, F and the means."""
    return reduce_blocks(cfg, _simulate_blocks(cfg))


def reduce_blocks(cfg: SimulationConfig, blocks: list[tuple]) -> EstimateReport:
    """Reduce per-block sums into a report.

    The point estimates come from the block sums pooled exactly as Python
    ints, so they do not depend on block order.  Each standard error is a
    leave-one-block-out jackknife, sqrt((B - 1) * var0), where var0 is the
    population variance of the B estimates from the pooled sums less one
    block, each also formed exactly; a block with no count in a detector
    leaves them finite.  var0 is a float reduction in list order.
    """
    if len(blocks) != cfg.n_blocks:
        raise ValueError("block list does not match the configuration")
    sums = np.array(blocks, dtype=object)
    pooled = sums.sum(axis=0)
    scale = len(blocks) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.array(_stats(
            *np.vstack([pooled - sums, pooled]).astype(float).T))
        stderrs = np.sqrt(scale * table[:, :-1].var(axis=1))
    return EstimateReport(cfg.gates, len(blocks), *map(
        Estimate, table[:, -1].tolist(), stderrs.tolist()))


def verify(report: EstimateReport, analytic: dict,
           z_max: float = DEFAULT_Z_MAX) -> dict:
    """Compare estimates against analytic values at a z-score threshold.

    `analytic` maps statistic names (a subset of 'k', 'r', 'f', 'mean_xi',
    'mean_eta') to their analytic values.  Returns, per statistic, the
    estimate, z-score and pass flag.
    """
    if not analytic:
        raise ValueError("no analytic values supplied")
    out = {}
    for name, target in analytic.items():
        est = report.estimate(name)  # raises on unknown names
        z = est.z_score(target)
        out[name] = {
            "estimate": est.value,
            "stderr": est.stderr,
            "analytic": target,
            "z": z,
            "pass": bool(abs(z) <= z_max),
        }
    return out
