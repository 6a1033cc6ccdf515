"""Monte Carlo verification of the analytic series statistics.

Gates are simulated in fixed-size blocks.  Each block draws from its own
counter-based random stream keyed by (seed, block index), and blocks are
reduced in index order, so results are bit-identical for a given
configuration regardless of how blocks are scheduled.

Point estimates are computed from the pooled sums; standard errors come
from batch means over the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementary import TernaryLaw
from .sources import SourceLaw

DEFAULT_Z_MAX = 4.0

_SUM_FIELDS = ("count", "sum_xi", "sum_eta", "sum_xi2", "sum_eta2",
               "sum_cross", "sum_n", "sum_n2")


@dataclass(frozen=True)
class SimulationConfig:
    law: TernaryLaw
    source: SourceLaw
    gates: int = 10 ** 6
    seed: int = 0
    block_size: int | None = None

    def __post_init__(self):
        if self.gates < 2:
            raise ValueError("insufficient data: need at least 2 gates")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError("block size must be positive")

    @property
    def effective_block_size(self) -> int:
        if self.block_size is not None:
            return min(self.block_size, self.gates)
        # aim for ~64 blocks so batch-means errors are stable
        return max(1, self.gates // 64)

    @property
    def n_blocks(self) -> int:
        bs = self.effective_block_size
        return (self.gates + bs - 1) // bs


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


def _stats_from_sums(sums: dict) -> dict:
    """K, R, F and the mean counts from accumulated per-gate sums."""
    g = sums["count"]
    mean_xi = sums["sum_xi"] / g
    mean_eta = sums["sum_eta"] / g
    cross = sums["sum_cross"] / g
    var_xi = sums["sum_xi2"] / g - mean_xi ** 2
    var_eta = sums["sum_eta2"] / g - mean_eta ** 2
    cov = cross - mean_xi * mean_eta
    n_mean = sums["sum_n"] / g
    n_var = sums["sum_n2"] / g - n_mean ** 2
    return {
        "mean_xi": mean_xi,
        "mean_eta": mean_eta,
        "k": cross / (mean_xi * mean_eta)
             if mean_xi > 0 and mean_eta > 0 else math.nan,
        "r": cov / math.sqrt(var_xi * var_eta)
             if var_xi > 0 and var_eta > 0 else 0.0,
        "f": n_var / n_mean if n_mean > 0 else 0.0,
    }


def _simulate_block(cfg: SimulationConfig, block_index: int) -> dict:
    """Simulate one block of gates and return its accumulated sums.

    Within a gate the counts are drawn as xi ~ Binomial(n, p) followed by
    eta ~ Binomial(n - xi, q/(q + r)): at most one detector is excited per
    elementary act by construction.
    """
    bs = cfg.effective_block_size
    start = block_index * bs
    count = min(bs, cfg.gates - start)
    rng = _block_rng(cfg.seed, block_index)
    p, q, r = cfg.law.p, cfg.law.q, cfg.law.r

    n = sample_occupancy(cfg.source, rng, count)
    xi = rng.binomial(n, p)
    remaining = n - xi
    if q + r > 0.0:
        eta = rng.binomial(remaining, q / (q + r))
    else:
        eta = np.zeros_like(xi)

    return {
        "count": count,
        "sum_xi": int(xi.sum()),
        "sum_eta": int(eta.sum()),
        "sum_xi2": int((xi.astype(np.int64) ** 2).sum()),
        "sum_eta2": int((eta.astype(np.int64) ** 2).sum()),
        "sum_cross": int((xi.astype(np.int64) * eta).sum()),
        "sum_n": int(n.sum()),
        "sum_n2": int((n ** 2).sum()),
    }


def simulate_series(cfg: SimulationConfig) -> EstimateReport:
    """Simulate the configured series and estimate K, R, F and the means."""
    blocks = [_simulate_block(cfg, i) for i in range(cfg.n_blocks)]
    return reduce_blocks(cfg, blocks)


def reduce_blocks(cfg: SimulationConfig, blocks: list[dict]) -> EstimateReport:
    """Deterministic ordered reduction of per-block sums into a report.

    Accepts the blocks in any order (they carry no index; ordering of the
    integer sums is immaterial for exact integer accumulation), making the
    result independent of the execution schedule.
    """
    if len(blocks) != cfg.n_blocks:
        raise ValueError("block list does not match the configuration")
    pooled = {name: sum(b[name] for b in blocks) for name in _SUM_FIELDS}
    point = _stats_from_sums(pooled)

    per_block = [_stats_from_sums(b) for b in blocks]
    estimates = {}
    for name in EstimateReport.STATISTICS:
        values = np.array([s[name] for s in per_block], dtype=float)
        if len(values) > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
        else:
            stderr = 0.0
        estimates[name] = Estimate(value=point[name], stderr=stderr)
    return EstimateReport(gates=cfg.gates, blocks=len(blocks),
                          k_hat=estimates["k"], r_hat=estimates["r"],
                          f_hat=estimates["f"],
                          mean_xi_hat=estimates["mean_xi"],
                          mean_eta_hat=estimates["mean_eta"])


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
