"""Monte Carlo verification of the analytic series statistics.

Gates are iid, so a run needs only its histogram of gate occupancies n.
Each of a gate's n quanta is detected with s = 1 - r, and a detected
quantum goes to detector A with p/(p + q), so the split (xi, eta = d - xi)
of a gate's d detected quanta does not depend on n.  Every draw comes from
one Philox stream keyed by the seed, so a configuration gives a
bit-identical report.  Each layer is one exact draw for the whole run:

* Occupancies: one multinomial over a once-per-run pmf table W_0..W_N,
  with N the first count whose mass past it is at most 2**-53
  (`sources._cutoff_window`).  The multinomial gives its last cell, the
  table's most probable once sorted, whatever count is left: the mass
  past N goes there with the rounding residue of the table's sum.  A run
  whose table would have more cells than its gates over _CELL_GATES, or
  than _TABLE_CELLS (_CONVOLVE_CELLS for two components), draws
  near-equal chunks of gates from `sample_occupancy` instead (_CHUNKS, or
  more so that none exceeds _GROUP_COST // 64 gates).
* Counts, in two binomial-thinning stages (`_thin`): d ~ Binomial(n, s),
  then xi ~ Binomial(d, p/(p + q)).  Every batch of gates is cells (k, a,
  gates): gates[i] gates of count k[i] that keep a[i].  Each stage's row
  split prices a table cell at 1, a gate thinned one by one at _GATE_COST
  and any such gates at _START_COST more.

Point estimates come from exact integer sums of per-gate features: (xi,
eta, xi**2, eta**2, xi*eta) for K, R and the mean counts, (n, n**2) for
F.  Each standard error is the delta-method error sqrt(g' S g / (N - 1)),
with S the per-gate covariance of those features and g the statistic's
gradient at the sample means: for iid gates, the infinitesimal jackknife
(Efron 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elementary import TernaryLaw, _xlogy
from .errors import DomainError
from .sources import SourceLaw, _TAIL_EPS, _cutoff_window

DEFAULT_Z_MAX = 4.0
# The cost of thinning one gate by one binomial, in multinomial table
# cells: timeit puts it at 2 to 4, and pass times are flat from 2 to 12
# (2-core Xeon, numpy 2.4).
_GATE_COST = 6
# The cost of starting to thin a stage's gates one by one, in table cells:
# timeit puts it at 250-350 in the first stage and 650-850 in the second,
# pass times are flat from 64 to 2048, and from 512 on a table run at 10**12
# gates peaks at 1.7 times its memory at 10**9 (2-core Xeon, numpy 2.4).
_START_COST = 256
# A thinning stage's binomial table holds this many cells at most, which
# bounds its time, and a batch of its draws, or a chunk of gates drawn one
# by one, _GROUP_COST // 64 gates or cells, which bounds the memory of a run.
_GROUP_COST = 2 ** 20
# An occupancy table has at most one cell for this many gates.  Built once
# a run, it costs 0.1-1.2 us a cell for one component and 2-6 us a cell
# for two (tables of 300 to 3e4 cells, convolved whole), against 0.3-0.4 us
# for a gate drawn and thinned one by one (2-core Xeon, numpy 2.4).
_CELL_GATES = 16
# The most cells in a one-component table, which bounds the memory of its
# build, at most about 9 floats a cell (7.5 MiB for 110229 cells); a
# two-component table is one direct convolution, cells**2 products:
# 2**14 cells take 0.07 s, 2**15 0.22 s, 2**16 0.84 s.
_TABLE_CELLS = 2 ** 17
_CONVOLVE_CELLS = 2 ** 15
# Runs without an occupancy table draw their gates in this many chunks, or
# more when a chunk would exceed _GROUP_COST // 64 gates.
_CHUNKS = 64


@dataclass(frozen=True)
class SimulationConfig:
    law: TernaryLaw
    source: SourceLaw
    gates: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if self.gates < 2:
            raise ValueError("insufficient data: need at least 2 gates")
        if self.gates >= 2 ** 63:  # int64 in every draw and histogram
            raise ValueError("gates must lie below 2**63")
        # the seed is the run's Philox key
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2**64)")


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
        out = {"gates": self.gates}
        for name in self.STATISTICS:
            est = self.estimate(name)
            out[name] = {"value": est.value, "stderr": est.stderr}
        return out


def sample_occupancy(source: SourceLaw, rng: np.random.Generator,
                     size: int | None = None):
    """Draw gate occupancies n ~ {W_n}, summing one draw per component
    of the source in component order.  A component whose parameters pass
    numpy's sampler range raises DomainError."""
    shape = 1 if size is None else size
    try:
        total = sum(comp.sample(rng, shape) for comp in source._components)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"occupancy too large to draw: {exc}") from None
    return int(total[0]) if size is None else total


class _Moments:
    """Per-gate features pooled batch by batch: their exact sums as Python
    ints, and the float sum of the products of their deviations from the
    mean, merged as in Chan, Golub & LeVeque (1983), so no raw fourth
    moment is ever differenced."""

    def __init__(self, width: int):
        self.count, self.sums = 0, [0] * width
        self.comoment = np.zeros((width, width))

    def means(self):
        return np.array([total / self.count for total in self.sums])

    def add(self, features, gates):
        """Add gates[i] gates with the non-negative int64 features of column
        i, one row a feature; the sums are int64 when they cannot wrap."""
        count = int(gates.sum())
        if count * int(features.max()) < 2 ** 63:
            sums = (features @ gates).tolist()
        else:  # in Python ints
            sums = (features.astype(object) @ gates.astype(object)).tolist()
        mean = np.array([total / count for total in sums])
        # the deviations and their weighted copy in one block (as two arrays
        # a fallback chunk faulted in about 500 more pages), and einsum, not
        # a BLAS matmul, whose first call maps about 0.4 MB of buffers
        dev, weighted = np.empty((2, *features.shape))
        np.subtract(features, mean[:, None], out=dev)
        np.multiply(dev, gates, out=weighted)
        self.comoment += np.einsum("ij,kj->ik", weighted, dev)
        if self.count:
            delta = mean - self.means()
            self.comoment += np.outer(delta, delta) * (
                self.count * count / (self.count + count))
        self.count += count
        self.sums = [a + b for a, b in zip(self.sums, sums)]


def _count_features(xi, eta):
    """(xi, eta, xi**2, eta**2, xi*eta), one column a gate."""
    return np.array([xi, eta, xi * xi, eta * eta, xi * eta])


def _occupancy_features(n):
    """(n, n**2), one column a gate."""
    return np.array([n, n * n])


def _estimates(gates: int, counts: _Moments,
               occupancy: _Moments) -> EstimateReport:
    """K, R, F and the mean counts at the sample means, each with its
    delta-method error; an undefined ratio (0/0) and its error are nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xi, eta, xi2, eta2, cross = counts.means()
        n, n2 = occupancy.means()
        var_xi, var_eta = xi2 - xi * xi, eta2 - eta * eta
        scale = np.sqrt(var_xi * var_eta)
        k, r = cross / (xi * eta), (cross - xi * eta) / scale
        # the gradients of K, R and the mean counts in the count features,
        # one a row, and of F in the occupancy features
        grad = np.array([
            [-k / xi, -k / eta, 0.0, 0.0, 1.0 / (xi * eta)],
            [r * xi / var_xi - eta / scale, r * eta / var_eta - xi / scale,
             -0.5 * r / var_xi, -0.5 * r / var_eta, 1.0 / scale],
            [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
        f_grad = np.array([-n2 / (n * n) - 1.0, 1.0 / n])
        errors = np.sqrt(np.append(
            np.einsum("ij,jk,ik->i", grad, counts.comoment, grad),
            f_grad @ occupancy.comoment @ f_grad) / (gates * (gates - 1.0)))
        return EstimateReport(gates, *(  # K, R, F, then the mean counts
            Estimate(float(value), float(error)) for value, error in
            zip((k, r, (n2 - n * n) / n, xi, eta), errors[[0, 1, 4, 2, 3]])))


def _binomial_table(rows, top: int, pi: float):
    """The table whose row i holds P(a) for a ~ Binomial(rows[i], pi),
    a = 0..top (0 when a > rows[i]), evaluated in log space; rows <= top."""
    a = np.arange(top + 1)
    k = np.asarray(rows)[:, None]
    rest = np.maximum(k - a, 0)
    log_fact = np.cumsum(np.log(np.maximum(a, 1)))
    table = np.exp(log_fact[k] - log_fact[a] - log_fact[rest]
                   + _xlogy(a, pi) + _xlogy(rest, -pi, math.log1p))
    return np.where(a <= k, table, 0.0)


def _stage_probabilities(law: TernaryLaw):
    """The keep probabilities of the two thinning stages: a quantum is
    detected with s = 1 - r, and a detected one goes to A with
    `law.t_transmit`, taken as 0 when nothing can be detected."""
    return law.s, (law.t_transmit if law.p + law.q > 0.0 else 0.0)


def _multinomial(rng: np.random.Generator, n, pvals):
    """Draw n gates over the cells of pvals, or n[i] over those of its row
    i, sorted by their probability: a multinomial draw gives its last cell
    whatever count is left, rounding residue included, so sorted cells send
    it to the most probable cell, never to an impossible one."""
    rows = () if pvals.ndim == 1 else (np.arange(len(pvals))[:, None],)
    drawn = np.empty(pvals.shape, dtype=np.int64)
    drawn[(*rows, np.argsort(pvals, kind="stable"))] = rng.multinomial(
        n, np.sort(pvals))
    return drawn


def _trimmed(histogram):
    """histogram without its trailing cells that count no gate."""
    return histogram[:np.flatnonzero(histogram)[-1] + 1]


def _occupancy_histogram(rng: np.random.Generator, cfg: SimulationConfig):
    """The run's gates per occupancy 0..top, with top the largest drawn,
    from one multinomial over the source's table W_0..W_N; None when that
    table would exceed the run's cells (see the module docstring)."""
    src = cfg.source
    cells = min(cfg.gates // _CELL_GATES, _TABLE_CELLS
                if len(src._components) == 1 else _CONVOLVE_CELLS)
    window = _cutoff_window(src, _TAIL_EPS, cells - 1)[0]
    return None if window is None else _trimmed(
        _multinomial(rng, cfg.gates, window))


def _row_split(histogram) -> int:
    """The largest count j thinned as a histogram.  Thinning the rows 0..j
    that count a gate draws j + 1 table cells for each, the gates above j
    cost _GATE_COST cells each and _START_COST if any; j minimises the sum,
    among the j whose cells fit in _GROUP_COST.  Costs are floats:
    _GATE_COST times the gates left would wrap in int64 past 1.5e18."""
    cells = (histogram > 0).cumsum() * np.arange(1, len(histogram) + 1)
    left = float(_GATE_COST) * (histogram.sum() - histogram.cumsum())
    cost = np.where(cells <= _GROUP_COST,
                    cells + left + _START_COST * (left > 0), np.inf)
    return int(cost.argmin())


def _pooled(k, a):
    """Gates of counts k that keep a, as cells (k, a, gates): pooled by one
    bincount when the (k, a) cells span no more cells than there are gates,
    else one cell a gate.  Few new arrays, gates a view of ones: after a heap
    trim, each new 128 KiB array of a batch faults its pages in again."""
    k_low, a_low = k.min(), a.min()
    width = int(a.max() - a_low) + 1
    if (int(k.max() - k_low) + 1) * width > len(k):
        return k, a, np.broadcast_to(np.int64(1), k.shape)
    key = (k - k_low) * width
    key += a - a_low
    gates = np.bincount(key)
    cell = np.flatnonzero(gates)
    return k_low + cell // width, a_low + cell % width, gates[cell]


def _gates_above(histogram, split: int):
    """The counts k > split of the gates in `histogram`, in order, as
    arrays of at most _GROUP_COST // 64 gates."""
    size = _GROUP_COST // 64
    counts = histogram[split + 1:]
    values = np.arange(split + 1, len(histogram))
    ends = counts.cumsum()
    starts = ends - counts
    for lo in range(0, int(counts.sum()), size):
        # the rows that hold gates lo..lo + size - 1, and their gates there
        first, last = np.searchsorted(ends, [lo, lo + size], side="right")
        rows = slice(first, last + 1)
        take = (np.minimum(ends[rows], lo + size)
                - np.maximum(starts[rows], lo))
        yield np.repeat(values[rows], take)


def _thin(rng: np.random.Generator, histogram, pi: float):
    """Thin the gates per count k in `histogram`, each unit kept with
    probability pi, so a gate keeps a ~ Binomial(k, pi).  Yields cells (k,
    a, gates) as they are drawn: those of one multinomial per occupied row
    k <= j, the row split (`_row_split`), over its `_binomial_table` row, at
    most _GROUP_COST // 64 cells (or one row) a draw; then the gates above
    j, one binomial each in the batches of `_gates_above`, by `_pooled`.
    The draw is exact, and memory does not grow with a run's gates."""
    split = _row_split(histogram)
    occupied = np.flatnonzero(histogram[:split + 1])
    step = max(1, _GROUP_COST // 64 // (split + 1))
    for lo in range(0, len(occupied), step):
        rows = occupied[lo:lo + step]
        kept = _multinomial(rng, histogram[rows],
                            _binomial_table(rows, split, pi))
        row, a = np.nonzero(kept)
        yield rows[row], a, kept[row, a]
    for k in _gates_above(histogram, split):
        yield _pooled(k, rng.binomial(k, pi))


def _detected(rng: np.random.Generator, occupancy, s: float):
    """First thinning stage: gates per detected count d ~ Binomial(n, s)."""
    detected = np.zeros(len(occupancy), dtype=np.int64)
    for _, d, gates in _thin(rng, occupancy, s):
        np.add.at(detected, d, gates)
    return _trimmed(detected)


def _thin_counts(rng: np.random.Generator, law: TernaryLaw, occupancy,
                 counts: _Moments):
    """Add to `counts` the count features of the gates per occupancy in
    `occupancy`: detected counts d, their split xi, and eta = d - xi."""
    s, t = _stage_probabilities(law)
    for d, xi, gates in _thin(rng, _detected(rng, occupancy, s), t):
        counts.add(_count_features(xi, d - xi), gates)


def _simulate(cfg: SimulationConfig) -> tuple[_Moments, _Moments]:
    """The moments of the run's count features and occupancy features.
    With an occupancy table, the whole run is drawn layer by layer; without
    one, chunk after chunk, gate by gate, chunk i covering gates [i*g//C,
    (i+1)*g//C) for C = max(min(_CHUNKS, g), ceil(g / (_GROUP_COST // 64))):
    its occupancies, then both thinning stages, one binomial a gate."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts, occupancy = _Moments(5), _Moments(2)
    histogram = _occupancy_histogram(rng, cfg)
    if histogram is None:
        s, t = _stage_probabilities(cfg.law)
        g = cfg.gates
        c = max(min(_CHUNKS, g), -(-g // (_GROUP_COST // 64)))
        for i in range(c):
            size = (i + 1) * g // c - i * g // c
            n = sample_occupancy(cfg.source, rng, size)
            # _Moments keeps every sum exact; this bound, n.max()**2 times
            # size, keeps the per-gate products n*n, xi*xi, xi*eta in int64
            if int(n.max()) ** 2 * size >= 2 ** 63:
                raise DomainError("occupancy too large: chunk sums of "
                                  "squares would overflow int64")
            occupancy.add(_occupancy_features(n),
                          np.broadcast_to(np.int64(1), n.shape))
            d = rng.binomial(n, s)
            d, xi, gates = _pooled(d, rng.binomial(d, t))
            counts.add(_count_features(xi, d - xi), gates)
    else:
        n = np.flatnonzero(histogram)
        occupancy.add(_occupancy_features(n), histogram[n])
        _thin_counts(rng, cfg.law, histogram, counts)
    return counts, occupancy


def simulate_series(cfg: SimulationConfig) -> EstimateReport:
    """Simulate the configured series and estimate K, R, F and the means."""
    return _estimates(cfg.gates, *_simulate(cfg))


def verify(report: EstimateReport, analytic: dict,
           z_max: float = DEFAULT_Z_MAX) -> dict:
    """Compare estimates against analytic values at a z-score threshold.

    `analytic` maps statistic names (a subset of 'k', 'r', 'f', 'mean_xi',
    'mean_eta') to their analytic values.  Returns, per statistic, the
    estimate, z-score and pass flag.  A statistic the run cannot define,
    as K or R without counts at one detector or F without quanta, has a
    nan estimate: a DomainError names each such statistic asked for,
    instead of a miss.
    """
    if not analytic:
        raise ValueError("no analytic values supplied")
    undefined = [name for name in analytic
                 if math.isnan(report.estimate(name).value)]
    if undefined:
        raise DomainError(f"{', '.join(undefined)} undefined in "
                          f"{report.gates} gates")
    out = {}
    for name, target in analytic.items():
        est = report.estimate(name)  # raises on unknown names
        z = est.z_score(target)
        out[name] = {"estimate": est.value, "stderr": est.stderr,
                     "analytic": target, "z": z,
                     "pass": bool(abs(z) <= z_max)}
    return out
