"""Monte Carlo verification of the analytic series statistics.

Gates are simulated in 64 near-equal blocks (fewer when there are fewer
gates).  Each block draws from its own counter-based random stream keyed
by (seed, block index), and blocks are reduced in index order, so results
are bit-identical for a given configuration regardless of how blocks are
scheduled.

Given its occupancy n, a gate's counts (xi, eta) are trinomial: each of
the n quanta excites detector A (p), detector B (q) or neither (r).  The
statistics need only the block sums of xi, eta, their squares and xi*eta,
and a block draws them in one of two exact ways.  A block of many gates
whose occupancies span few values draws, for each occupancy k, how its
gates fall into the (xi, eta) cells: one multinomial draw per k over a
table of about (k_max + 1)**3 / 2 probabilities.  Any other block draws
per gate, xi ~ Binomial(n, p) and then eta ~ Binomial(n - xi,
q/(q + r)), which costs two draws per gate whatever the occupancies.

Point estimates are computed from the pooled sums; standard errors come
from batch means over the blocks.  A fixed, moderate number of batches is
enough for batch means (Schmeiser 1982, Oper. Res. 30:556).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementary import TernaryLaw
from .errors import DomainError
from .sources import SourceLaw

DEFAULT_Z_MAX = 4.0
BLOCKS = 64
# Below this block size the histogram's fixed cost, mostly building its
# probability table, exceeds that of drawing every gate.
HISTOGRAM_MIN_GATES = 400


@dataclass(frozen=True)
class SimulationConfig:
    law: TernaryLaw
    source: SourceLaw
    gates: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if self.gates < 2:
            raise ValueError("insufficient data: need at least 2 gates")

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


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _thin_histogram(rng: np.random.Generator, law: TernaryLaw, n, top: int):
    """The cells (a, b) with a + b <= top = max(n), and gate counts h[k, j]
    with n = k, xi = a[j] and eta = b[j]: one multinomial draw per
    occupancy over its trinomial cells."""
    a, b, table = _trinomial_table(law, top)
    rows = np.arange(top + 1)[:, None]
    # Each row's most probable cell goes last: the multinomial assigns the
    # last cell whatever count is left, rounding residue included.
    order = np.argsort(table, axis=1, kind="stable")
    hist = np.empty(table.shape, dtype=np.int64)
    hist[rows, order] = rng.multinomial(np.bincount(n, minlength=top + 1),
                                        table[rows, order])
    return a, b, hist


def _thin_per_gate(rng: np.random.Generator, law: TernaryLaw, n):
    """Per-gate counts: xi ~ Binomial(n, p), then
    eta ~ Binomial(n - xi, q/(q + r))."""
    xi = rng.binomial(n, law.p)
    if law.q + law.r > 0.0:
        eta = rng.binomial(n - xi, law.q / (law.q + law.r))
    else:
        eta = np.zeros_like(xi)
    return xi, eta


def _simulate_block(cfg: SimulationConfig, block_index: int) -> tuple:
    """Simulate one block of gates and return its sums as Python ints:
    (count, sum xi, sum eta, sum n, sum xi**2, sum eta**2, sum n**2,
    sum xi*eta).

    Block i covers gates [i*g//B, (i+1)*g//B), so block sizes differ by at
    most one.  Both ways of drawing (xi, eta) are exact.  The histogram
    draw costs about (top + 1)**3 / 2 binomial steps for the largest
    occupancy `top`, plus a fixed cost, and the per-gate draw two binomials
    per gate, so the block takes the histogram when (top + 1)**3 <= count
    and count >= HISTOGRAM_MIN_GATES.
    """
    g, b = cfg.gates, cfg.n_blocks
    count = (block_index + 1) * g // b - block_index * g // b
    rng = _block_rng(cfg.seed, block_index)

    n = sample_occupancy(cfg.source, rng, count)
    top = int(n.max())
    # xi, eta <= n, so this bounds every int64 block sum below
    if top ** 2 * count >= 2 ** 63:
        raise DomainError("occupancy too large: block sums of squares "
                          "would overflow int64")
    if count >= HISTOGRAM_MIN_GATES and (top + 1) ** 3 <= count:
        cell_xi, cell_eta, hist = _thin_histogram(rng, cfg.law, n, top)
        s_xi, s_eta, s_xi2, s_eta2, s_cross = np.stack(
            [cell_xi, cell_eta, cell_xi ** 2, cell_eta ** 2,
             cell_xi * cell_eta]) @ hist.sum(axis=0)
    else:
        xi, eta = _thin_per_gate(rng, cfg.law, n)
        s_xi, s_eta = xi.sum(), eta.sum()
        s_xi2, s_eta2, s_cross = xi @ xi, eta @ eta, xi @ eta
    return (count, int(s_xi), int(s_eta), int(n.sum()),
            int(s_xi2), int(s_eta2), int(n @ n), int(s_cross))


def simulate_series(cfg: SimulationConfig) -> EstimateReport:
    """Simulate the configured series and estimate K, R, F and the means."""
    blocks = [_simulate_block(cfg, i) for i in range(cfg.n_blocks)]
    return reduce_blocks(cfg, blocks)


def reduce_blocks(cfg: SimulationConfig, blocks: list[tuple]) -> EstimateReport:
    """Reduce per-block sums into a report.

    The point estimates come from the block sums pooled exactly as Python
    ints, so they do not depend on block order.  The batch-means standard
    errors are float reductions over the blocks in list order; blocks
    passed in index order, as `simulate_series` does, make the whole
    report independent of how the blocks were scheduled.
    """
    if len(blocks) != cfg.n_blocks:
        raise ValueError("block list does not match the configuration")
    pooled = tuple(sum(column) for column in zip(*blocks))
    with np.errstate(divide="ignore", invalid="ignore"):
        table = _stats(*np.array([*blocks, pooled], dtype=float).T)
        estimates = [
            Estimate(value=float(col[-1]),
                     stderr=float(col[:-1].std(ddof=1)
                                  / math.sqrt(len(blocks))))
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
