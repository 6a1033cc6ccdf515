"""Monte Carlo verification of the analytic series statistics.

Gates are simulated in 64 near-equal blocks (fewer when there are fewer
gates).  Each block draws from its own counter-based random stream keyed
by (seed, block index), and blocks are reduced in index order, so results
are bit-identical for a given configuration regardless of how blocks are
scheduled.

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


def _simulate_block(cfg: SimulationConfig, block_index: int) -> tuple:
    """Simulate one block of gates and return its sums as Python ints:
    (count, sum xi, sum eta, sum n, sum xi**2, sum eta**2, sum n**2,
    sum xi*eta).

    Block i covers gates [i*g//B, (i+1)*g//B), so block sizes differ by at
    most one.  Within a gate the counts are drawn as xi ~ Binomial(n, p)
    followed by eta ~ Binomial(n - xi, q/(q + r)): at most one detector is
    excited per elementary act by construction.
    """
    g, b = cfg.gates, cfg.n_blocks
    count = (block_index + 1) * g // b - block_index * g // b
    rng = _block_rng(cfg.seed, block_index)
    p, q, r = cfg.law.p, cfg.law.q, cfg.law.r

    n = sample_occupancy(cfg.source, rng, count)
    # xi, eta <= n, so this bounds every int64 block sum below
    if int(n.max()) ** 2 * count >= 2 ** 63:
        raise DomainError("occupancy too large: block sums of squares "
                          "would overflow int64")
    xi = rng.binomial(n, p)
    remaining = n - xi
    if q + r > 0.0:
        eta = rng.binomial(remaining, q / (q + r))
    else:
        eta = np.zeros_like(xi)
    return (count, int(xi.sum()), int(eta.sum()), int(n.sum()),
            int(xi @ xi), int(eta @ eta), int(n @ n), int(xi @ eta))


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
