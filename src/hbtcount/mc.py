"""Monte Carlo verification of the analytic series statistics.

Gates are split into 64 near-equal blocks (fewer when there are fewer
gates).  A run draws all blocks together, layer by layer, from one
counter-based Philox stream keyed by the seed, so a configuration gives a
bit-identical report; there is no per-block stream and no block schedule.

Gates are iid, so a block needs only its histogram of gate occupancies
n, and given n a gate's counts (xi, eta) are trinomial: each of the n
quanta excites detector A (p), detector B (q) or neither (r).  Each layer
is one exact draw for the whole run:

* Occupancies: one multinomial per block, in one call, over a once-per-run
  pmf table W_0..W_hi plus a tail cell with the exact mass past hi; the
  run's tail gates get their n by inversion over the pmf past hi.  A run
  whose window has more cells than its largest block (or too many for
  _GROUP_COST) draws its gates from `sample_occupancy` instead, block
  after block, and thins them gate by gate.
* Counts: a row split j, chosen once per run, sends the gates with n <= j
  through one multinomial over the (xi, eta) cells for each block and
  occupancy, (j + 1)(j + 2)/2 table cells a row, and the gates with n > j
  through per-gate binomials, xi ~ Binomial(n, p), then
  eta ~ Binomial(n - xi, q/(q + r)).  j minimises the table cells drawn
  plus _GATE_COST per gate thinned one by one.

Point estimates are computed from the pooled sums.  Standard errors are
leave-one-block-out jackknife errors over the exact pooled sums, which
stay finite when one block has no count in a detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementary import TernaryLaw
from .errors import DomainError
from .sources import SourceLaw, occupancy_table, source_factorial_moments

DEFAULT_Z_MAX = 4.0
BLOCKS = 64
# Occupancy tables reach this many standard deviations past the mean; the
# tail cell holds the rest exactly, so this only trades table cells
# against tail draws.
_WINDOW_SIGMAS = 8.0
# The cost of thinning one gate by two binomials, in multinomial table
# cells.  Benchmark pass times are flat within noise for values from 3 to
# 12 (2-core Xeon, numpy 2.4), so this is a constant, not an option.
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


def _xlog(counts, prob: float):
    """counts * log(prob), elementwise, with 0 * log(0) = 0."""
    if prob > 0.0:
        return counts * math.log(prob)
    return np.where(counts > 0, -np.inf, 0.0)


def _trinomial_table(law: TernaryLaw, top: int):
    """The cells (a, b) with a + b <= top, and a (top + 1, cells) table
    whose row k holds P(xi = a, eta = b) in a gate of k acts (0 when
    a + b > k), evaluated in log space."""
    values = np.arange(top + 1)
    a, b = np.nonzero(np.add.outer(values, values) <= top)
    k = values[:, None]
    c = k - a - b
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(values[1:]))))
    log_w = (log_fact[k] - log_fact[a] - log_fact[b]
             - log_fact[np.maximum(c, 0)]
             + _xlog(a, law.p) + _xlog(b, law.q) + _xlog(c, law.r))
    return a, b, np.exp(np.where(c >= 0, log_w, -np.inf))


def _thin_per_gate(rng: np.random.Generator, law: TernaryLaw, n):
    """Per-gate counts: xi ~ Binomial(n, p), then
    eta ~ Binomial(n - xi, q/(q + r))."""
    xi = rng.binomial(n, law.p)
    if law.q + law.r > 0.0:
        eta = rng.binomial(n - xi, law.q / (law.q + law.r))
    else:
        eta = np.zeros_like(xi)
    return xi, eta


def _sorted_cells(pvals):
    """The order that sorts pvals along the last axis, and the sorted
    pvals.  A multinomial draw gives its last cell whatever count is left,
    rounding residue included, so sorted cells send it to the most probable
    cell, never to an impossible one."""
    order = np.argsort(pvals, axis=-1, kind="stable")
    return order, np.take_along_axis(pvals, order, axis=-1)


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
    return occupancy[:, :np.flatnonzero(occupancy.any(axis=0))[-1] + 1]


def _row_split(occupancy) -> int:
    """The largest occupancy j thinned as histograms.  Thinning rows 0..j
    draws (j + 1)(j + 2)/2 table cells for each block and occupancy up to
    j, and each gate with n > j costs _GATE_COST cells; j minimises the
    sum, among the j whose cells for all blocks fit in _GROUP_COST."""
    rows = np.arange(occupancy.shape[1])
    cells = len(occupancy) * (rows + 1.0) ** 2 * (rows + 2.0) / 2.0
    left = occupancy.sum() - np.cumsum(occupancy.sum(axis=0))
    cost = np.where(cells <= _GROUP_COST, cells + _GATE_COST * left, np.inf)
    return int(np.argmin(cost))


def _thinned_sums(rng: np.random.Generator, law: TernaryLaw, occupancy,
                  split: int):
    """Per-block sums of xi, eta, xi**2, eta**2 and xi*eta, shape
    (blocks, 5), for the gates per block and occupancy in `occupancy`.

    Gates with n <= split are thinned by one multinomial over the (xi, eta)
    cells per block and occupancy, whose sorted counts are contracted
    against the cells' moments in the same order; gates with n > split are
    thinned one by one, each block's sums being an exact int64 segment sum.
    Both draws are exact.  Blocks go in groups of about _GROUP_COST cost
    units (`_row_split`), so memory does not grow with a run's gates.
    """
    a, b, table = _trinomial_table(law, split)
    order, pvals = _sorted_cells(table)
    # (xi, eta, xi**2, eta**2, xi*eta) of each sorted cell, one row a cell
    moments = np.stack([a, b, a * a, b * b, a * b])[:, order].reshape(5, -1).T
    values = np.arange(split + 1, occupancy.shape[1])
    cost = np.cumsum(pvals.size
                     + _GATE_COST * occupancy[:, split + 1:].sum(axis=1))
    sums = []
    for blocks in np.split(occupancy,
                           np.flatnonzero(np.diff(cost // _GROUP_COST)) + 1):
        part = rng.multinomial(blocks[:, :split + 1], pvals).reshape(
            len(blocks), -1) @ moments
        gates = blocks[:, split + 1:]
        per_block = gates.sum(axis=1)
        if per_block.any():
            xi, eta = _thin_per_gate(rng, law, np.repeat(
                np.tile(values, len(blocks)), gates.ravel()))
            has = per_block > 0
            starts = (np.cumsum(per_block) - per_block)[has]
            for column, term in enumerate(
                    (xi, eta, xi * xi, eta * eta, xi * eta)):
                part[has, column] += np.add.reduceat(term, starts)
        sums.append(part)
    return np.concatenate(sums)


def _check_sums(top: int, count: int):
    # xi, eta <= n, so this bounds every int64 block sum
    if top ** 2 * count >= 2 ** 63:
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
            _check_sums(int(n.max()), count)
            xi, eta = _thin_per_gate(rng, cfg.law, n)
            blocks.append((count, *map(int, (
                xi.sum(), eta.sum(), n.sum(), xi @ xi, eta @ eta, n @ n,
                xi @ eta))))
        return blocks
    occupancy = _occupancy_histograms(rng, table, np.array(sizes))
    tops = occupancy.shape[1] - 1 - np.argmax(occupancy[:, ::-1] > 0, axis=1)
    for top, count in zip(tops.tolist(), sizes):
        _check_sums(top, count)
    k = np.arange(occupancy.shape[1])
    s_xi, s_eta, s_xi2, s_eta2, s_cross = _thinned_sums(
        rng, cfg.law, occupancy, _row_split(occupancy)).T
    columns = np.stack([sizes, s_xi, s_eta, occupancy @ k, s_xi2, s_eta2,
                        occupancy @ (k * k), s_cross], axis=1)
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
    pooled = [sum(column) for column in zip(*blocks)]
    rest = [[total - part for total, part in zip(pooled, block)]
            for block in blocks]
    scale = len(blocks) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        table = _stats(*np.array([*rest, pooled], dtype=float).T)
        estimates = [
            Estimate(value=float(col[-1]),
                     stderr=math.sqrt(scale * float(col[:-1].var())))
            for col in table]
    return EstimateReport(cfg.gates, len(blocks), *estimates)


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
