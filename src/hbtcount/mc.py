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
  then xi ~ Binomial(d, p/(p + q)).  Every batch of gates is rows k, each
  with a row of cells (a, gates): gates[i, j] gates of count k[i] that
  keep a[i, j].  Neither stage puts a table draw back in its cells: the
  first sums them into its int64 histogram of d, the second keeps the
  occupied ones.  Each stage's row split prices a table cell at 1, a gate
  thinned one by one at _GATE_COST and any such gates at _START_COST
  more.  A histogram whose whole table costs no more than _START_COST +
  _GATE_COST cells is thinned whole, with no cost search, and a stage
  with no gate above its split draws no tail.

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

from .elementary import TernaryLaw, _count, _xlogy
from .errors import DomainError
from .sources import SourceLaw, _TAIL_EPS, _cutoff_window

DEFAULT_Z_MAX = 4.0
# Times below are timeit's, on a 2-core Xeon with numpy 2.4.
# The cost of thinning one gate by one binomial, in table cells: a gate
# takes 0.06-0.15 us, a cell 0.06-0.08 us; pass times are flat from 2 to 12.
_GATE_COST = 6
# The cost of starting to thin a stage's gates one by one, in table cells:
# 19 us (300 cells) in stage 1, 57 us (700) in stage 2; pass times are flat
# from 64 to 2048, and from 512 on a table run at 10**12 gates peaks at
# 1.5-1.6 times its memory at 10**9.
_START_COST = 256
# A thinning stage's binomial table holds this many cells at most, which
# bounds its time, and a batch of its draws, or a chunk of gates drawn one
# by one, _GROUP_COST // 64 gates or cells, which bounds the memory of a run.
_GROUP_COST = 2 ** 20
# An occupancy table has at most one cell for this many gates.  Built once a
# run, it costs 0.04-1 us a cell for one component and 0.4-8 us for two (700
# to 9e4 cells, convolved whole), against 0.2 us a gate drawn and thinned.
_CELL_GATES = 16
# The most cells in a one-component table, which bounds the memory of its
# build, at most about 9 floats a cell (7.5 MiB for 110229 cells); a
# two-component table is one direct convolution of the terms its cutoff
# read, at most cells**2 products: 2**14 cells take 0.07 s, 2**15 0.22 s,
# 2**16 0.84 s.
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
        # gates are int64 in every draw and histogram; the seed is the
        # run's Philox key
        object.__setattr__(self, "gates", _count(self.gates, "gates", 2,
                                                 2 ** 63))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0, 2 ** 64))


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
    shape = 1 if size is None else _count(size, "size")
    try:
        total = sum(comp.sample(rng, shape) for comp in source._components)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"occupancy too large to draw: {exc}") from None
    return int(total[0]) if size is None else total


class _Moments:
    """Per-gate features pooled batch by batch: their exact sums as Python
    ints, and the float sum of the products of their deviations from the
    mean, merged as in Chan, Golub & LeVeque (1983), so no raw fourth
    moment is ever differenced; `comoment` is set by the first `add`."""

    def __init__(self, width: int):
        self.count, self.sums = 0, [0] * width

    def means(self):
        """The features' means as floats."""
        return [total / self.count for total in self.sums]

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
        # a fallback chunk faulted in 30 times the pages), the features copied
        # in (a casting subtraction takes a buffer of their size), and einsum,
        # not a BLAS matmul, whose first call maps about 0.4 MB of buffers
        dev, weighted = np.empty((2, *features.shape))
        np.copyto(dev, features)
        dev -= mean[:, None]
        np.multiply(dev, gates, out=weighted)
        comoment = np.einsum("ij,kj->ik", weighted, dev)
        if self.count:  # merged; a table run has one batch
            comoment += self.comoment
            delta = mean - self.means()
            comoment += np.outer(delta, delta) * (
                self.count * count / (self.count + count))
            sums = [a + b for a, b in zip(self.sums, sums)]
        self.count += count
        self.sums, self.comoment = sums, comoment


def _count_features(xi, eta):
    """(xi, eta, xi**2, eta**2, xi*eta), one column a gate."""
    return np.array([xi, eta, xi * xi, eta * eta, xi * eta])


def _occupancy_features(n):
    """(n, n**2), one column a gate."""
    return np.array([n, n * n])


def _estimates(gates: int, counts: _Moments, occupancy: _Moments,
               scalar=float) -> EstimateReport:
    """K, R, F and the mean counts at the sample means, each with its
    delta-method error, in floats; a ratio undefined there (0/0) and its
    error are nan in np.float64, whose x/0 and sqrt(-x) are inf or nan."""
    sqrt = math.sqrt if scalar is float else np.sqrt
    xi, eta, xi2, eta2, cross, n, n2 = map(
        scalar, counts.means() + occupancy.means())
    try:
        var_xi, var_eta = xi2 - xi * xi, eta2 - eta * eta
        scale = sqrt(var_xi * var_eta)
        k, r = cross / (xi * eta), (cross - xi * eta) / scale
        # the gradients of K, R and the mean counts in the count features,
        # one a row, and of F in the occupancy features
        grad = np.array([
            [-k / xi, -k / eta, 0.0, 0.0, 1.0 / (xi * eta)],
            [r * xi / var_xi - eta / scale, r * eta / var_eta - xi / scale,
             -0.5 * r / var_xi, -0.5 * r / var_eta, 1.0 / scale],
            [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
        f_grad = np.array([-n2 / (n * n) - 1.0, 1.0 / n])
        k_err, r_err, xi_err, eta_err = np.einsum(
            "ij,jk,ik->i", grad, counts.comoment, grad).tolist()
        f_err = float(f_grad @ occupancy.comoment @ f_grad)
        pairs = gates * (gates - 1.0)
        return EstimateReport(gates, *(  # K, R, F, then the mean counts
            Estimate(float(value), float(sqrt(error / pairs))) for value,
            error in ((k, k_err), (r, r_err), ((n2 - n * n) / n, f_err),
                      (xi, xi_err), (eta, eta_err))))
    except (ZeroDivisionError, ValueError):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _estimates(gates, counts, occupancy, np.float64)


def _binomial_table(rows, top: int, pi: float):
    """The table whose row i holds P(a) for a ~ Binomial(rows[i], pi),
    a = 0..top (0 when a > rows[i]), evaluated in log space; rows <= top."""
    a = np.arange(top + 1)
    k = np.asarray(rows)[:, None]
    rest = k - a
    # log_fact[i] = log i! for i = 0..top, +inf at a rest < 0 (exp gives 0)
    log_fact = np.full(2 * top + 1, np.inf)
    log_fact[:top + 1] = np.log(np.maximum(a, 1)).cumsum()
    # in place in one array, in the order log k! - log a! - log rest!
    # + a log pi + rest log(1 - pi)
    table = log_fact[k] - log_fact[:top + 1]
    table -= log_fact[rest]
    table += _xlogy(a, pi)
    table += _xlogy(rest, -pi, math.log1p)
    np.exp(table, out=table)
    return table


def _stage_probabilities(law: TernaryLaw):
    """The keep probabilities of the two thinning stages: a quantum is
    detected with s = 1 - r, and a detected one goes to A with
    `law.t_transmit`, taken as 0 when nothing can be detected."""
    return law.s, (law.t_transmit if law.p + law.q > 0.0 else 0.0)


def _sorted_draw(rng: np.random.Generator, n, pvals):
    """The argsort of pvals (along its rows) and a draw of n gates over its
    cells in that order, or n[i] over row i's: a multinomial draw gives its
    last cell whatever count is left, rounding residue included, so sorted
    cells send it to the most probable cell, never to an impossible one."""
    return pvals.argsort(kind="stable"), rng.multinomial(n, np.sort(pvals))


def _occupancy_histogram(rng: np.random.Generator, cfg: SimulationConfig):
    """The run's gates per occupancy 0..top, with top the largest drawn,
    from one multinomial over the source's table W_0..W_N; None when that
    table would exceed the run's cells (see the module docstring)."""
    src = cfg.source
    cells = min(cfg.gates // _CELL_GATES, _TABLE_CELLS
                if len(src._components) == 1 else _CONVOLVE_CELLS)
    window = _cutoff_window(src, _TAIL_EPS, cells - 1)[0]
    if window is None:
        return None
    order, drawn = _sorted_draw(rng, cfg.gates, window)
    histogram = np.empty_like(drawn)
    histogram[order] = drawn
    return histogram[:histogram.nonzero()[0][-1] + 1]


def _row_split(histogram) -> int:
    """The largest count j thinned as a histogram.  Thinning the rows 0..j
    that count a gate draws j + 1 table cells for each, the gates above j
    cost _GATE_COST cells each and _START_COST if any; j minimises the sum,
    among the j whose cells fit in _GROUP_COST.  Costs are floats:
    _GATE_COST times the gates left would wrap in int64 past 1.5e18.

    The last cell of `histogram` counts a gate, so a j below the top
    leaves a gate above it and costs _START_COST + _GATE_COST at least,
    while the top costs len(histogram)**2 cells at most (the two tie only
    if every row counts a gate and the rows 0..j none, which cannot be): a
    histogram whose top costs no more (16 cells or fewer at these costs) is
    thinned whole, unsearched."""
    rows = len(histogram)
    if rows ** 2 <= _START_COST + _GATE_COST:
        return rows - 1
    cells = (histogram > 0).cumsum() * np.arange(1, rows + 1)
    running = histogram.cumsum()
    cost = cells + float(_GATE_COST) * (running[-1] - running)
    cost[:-1] += _START_COST  # every row below the top leaves a gate above
    if rows ** 2 > _GROUP_COST:
        cost[cells > _GROUP_COST] = np.inf
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
    cell = gates.nonzero()[0]
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
    probability pi, so a gate keeps a ~ Binomial(k, pi).  Yields batches
    (k, a, gates) as drawn, gates[i, j] gates of count k[i] that keep
    a[i, j]: up to the row split j (`_row_split`), a `_sorted_draw` over
    the table rows of _GROUP_COST // 64 cells (or one row) of occupied
    counts, empty cells included; then a binomial per gate above j, pooled
    into rows of one cell."""
    split = _row_split(histogram)
    occupied = histogram[:split + 1].nonzero()[0]
    step = max(1, _GROUP_COST // 64 // (split + 1))
    for lo in range(0, len(occupied), step):
        rows = occupied[lo:lo + step]
        yield rows, *_sorted_draw(rng, histogram[rows],
                                  _binomial_table(rows, split, pi))
    if split + 1 < len(histogram):  # a gate lies above the split
        for k in _gates_above(histogram, split):
            k, a, gates = _pooled(k, rng.binomial(k, pi))
            yield k, a[:, None], gates[:, None]


def _detected(rng: np.random.Generator, occupancy, s: float):
    """First thinning stage: gates per detected count d ~ Binomial(n, s),
    every cell of `_thin`'s batches summed in int64 at its d."""
    detected = np.zeros(len(occupancy), dtype=np.int64)
    for _, d, gates in _thin(rng, occupancy, s):
        # raveled: np.add.at takes 3-4 times as long over 2-D indices
        np.add.at(detected, d.ravel(), gates.ravel())
    return detected[:detected.nonzero()[0][-1] + 1]


def _thin_counts(rng: np.random.Generator, law: TernaryLaw, occupancy,
                 counts: _Moments):
    """Add to `counts` the count features of the gates per occupancy in
    `occupancy`: detected counts d, their split xi, and eta = d - xi, the
    occupied cells of each of `_thin`'s batches."""
    s, t = _stage_probabilities(law)
    for d, xi, gates in _thin(rng, _detected(rng, occupancy, s), t):
        row, cell = gates.nonzero()
        xi = xi[row, cell]
        counts.add(_count_features(xi, d[row] - xi), gates[row, cell])


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
            # n.max()**2 < 2**63 alone keeps the per-gate products n*n,
            # xi*xi, xi*eta in int64; the factor size keeps the chunk's sums
            # on _Moments.add's int64 path too.  Both of its paths are exact,
            # so this guard is stricter than exactness needs.
            if int(n.max()) ** 2 * size >= 2 ** 63:
                raise DomainError("occupancy too large: chunk sums of "
                                  "squares would overflow int64")
            occupancy.add(_occupancy_features(n),
                          np.broadcast_to(np.int64(1), n.shape))
            d = rng.binomial(n, s)
            d, xi, gates = _pooled(d, rng.binomial(d, t))
            counts.add(_count_features(xi, d - xi), gates)
    else:
        n = histogram.nonzero()[0]
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
    instead of a miss.  Each analytic value, and z_max, must be finite (a
    ValueError names one that is not), and z_max positive.
    """
    if not analytic:
        raise ValueError("no analytic values supplied")
    if not 0.0 < z_max < math.inf:
        raise ValueError(f"z_max must be positive and finite, not {z_max}")
    undefined = [name for name in analytic
                 if math.isnan(report.estimate(name).value)]
    if undefined:
        raise DomainError(f"{', '.join(undefined)} undefined in "
                          f"{report.gates} gates")
    out = {}
    for name, target in analytic.items():
        if not math.isfinite(target):
            raise ValueError(f"analytic {name} must be finite, not {target}")
        est = report.estimate(name)  # raises on unknown names
        z = est.z_score(target)
        out[name] = {"estimate": est.value, "stderr": est.stderr,
                     "analytic": target, "z": z,
                     "pass": bool(abs(z) <= z_max)}
    return out
