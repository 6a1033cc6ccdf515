"""Gate-occupancy distributions for coherent, thermal-boson and
thermal-fermion sources at arbitrary polarization.

Each source is reduced to one or two independent primitive components,
each of which owns its pmf, pgf, moments and sampler:

* `Poisson` (coherent excitation of M modes),
* `NegBinomial` of order N (thermal bosons, N = M polarized,
  N = 2M unpolarized, two order-M components for partial polarization),
* `Binomial` of order N (thermal fermions, same order bookkeeping).

The pmf of a two-component source is the explicit finite convolution of
the component pmfs.  All pmfs are evaluated in log space.

`occupancy_table` gives W_0..W_hi as one array, plus the exact mass past
hi, for the Monte Carlo occupancy histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError

KINDS = (
    "coherent",
    "boson-polarized",
    "boson-partial",
    "boson-unpolarized",
    "fermion-polarized",
    "fermion-partial",
    "fermion-unpolarized",
)

TRUNCATION_MASS = 1.0 - 1e-10
TRUNCATION_CAP = 10 ** 6
# An occupancy table sums a component's terms past its window until the
# mass left is below this fraction of the sum: within its rounding.
_TAIL_EPS = 2.0 ** -53


# -- primitive components --------------------------------------------------
# Each owns log_pmf(n), pgf(z), mean_f2() = (<n>, <n(n-1)>), sample(rng, size)
# and max_count, the largest n with nonzero weight (None when unbounded).


class Poisson(NamedTuple):
    """Poisson law of the given mean (coherent excitation, K = 1)."""

    mean: float
    max_count = None

    def log_pmf(self, n: int) -> float:
        return n * math.log(self.mean) - self.mean - math.lgamma(n + 1)

    def pgf(self, z: float) -> float:
        return math.exp(self.mean * (z - 1.0))

    def mean_f2(self) -> tuple[float, float]:
        return self.mean, self.mean * self.mean

    def sample(self, rng, size: int):
        return rng.poisson(self.mean, size)


class NegBinomial(NamedTuple):
    """Negative binomial law of order N and ratio b (bosons, K = 1 + 1/N)."""

    order: int
    b: float
    max_count = None

    def log_pmf(self, n: int) -> float:
        order, b = self
        return (math.lgamma(order + n) - math.lgamma(order)
                - math.lgamma(n + 1)
                + order * math.log1p(-b) + (n * math.log(b) if n else 0.0))

    def pgf(self, z: float) -> float:
        order, b = self
        if b * z >= 1.0:
            raise DomainError("boson pgf requires b*z < 1")
        return ((1.0 - b) / (1.0 - b * z)) ** order

    def mean_f2(self) -> tuple[float, float]:
        order, b = self
        per_mode = b / (1.0 - b)
        return order * per_mode, order * (order + 1) * per_mode * per_mode

    def sample(self, rng, size: int):
        """Sum of `order` geometric draws per gate, an exact NB draw."""
        draws = rng.geometric(1.0 - self.b, size=(size, self.order)) - 1
        return draws.sum(axis=1)


class Binomial(NamedTuple):
    """Binomial law of order N and occupancy a (fermions, K = 1 - 1/N)."""

    order: int
    a: float

    @property
    def max_count(self) -> int:
        return self.order

    def log_pmf(self, n: int) -> float:
        order, a = self
        if n > order:
            return -math.inf
        out = (math.lgamma(order + 1) - math.lgamma(n + 1)
               - math.lgamma(order - n + 1))
        if n:
            if a == 0.0:
                return -math.inf
            out += n * math.log(a)
        if order - n:
            if a == 1.0:
                return -math.inf
            out += (order - n) * math.log1p(-a)
        return out

    def pgf(self, z: float) -> float:
        return (1.0 + self.a * (z - 1.0)) ** self.order

    def mean_f2(self) -> tuple[float, float]:
        order, a = self
        return order * a, order * (order - 1) * a * a

    def sample(self, rng, size: int):
        return rng.binomial(self.order, self.a, size)


def _neg_binomial(order: int, b: float) -> NegBinomial:
    if b >= 1.0:
        raise DomainError("boson occupancy too large: the ratio "
                          "nbar / (1 + nbar) rounds to 1")
    return NegBinomial(order, b)


def _pmf(comp, n: int) -> float:
    lp = comp.log_pmf(n)
    return 0.0 if lp == -math.inf else math.exp(lp)


@dataclass(frozen=True)
class SourceLaw:
    """Occupancy law {W_n} for the number of quanta arriving in one gate.

    modes is the number of relevant spatial modes M; nbar the mean
    occupation per mode; polarization the degree of polarization, used by
    the partial kinds only.
    """

    kind: str
    modes: int = 1
    nbar: float = 1.0
    polarization: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown source kind: {self.kind!r}")
        if self.modes != int(self.modes) or self.modes < 1:
            raise ValueError("modes must be a positive integer")
        object.__setattr__(self, "modes", int(self.modes))
        if not self.nbar > 0.0:
            raise ValueError("nbar must be positive")
        if self.kind.endswith("partial"):
            if self.polarization is None:
                raise ValueError("partial kinds require a polarization degree")
            if not 0.0 <= self.polarization <= 1.0:
                raise ValueError("polarization must lie in [0, 1]")
        elif self.polarization is not None:
            raise ValueError("polarization applies to partial kinds only")
        if self.kind.startswith("fermion"):
            if self.nbar > 1.0:
                raise ValueError("fermion occupancy per mode cannot exceed 1")

    # -- component decomposition ------------------------------------------

    @cached_property
    def _components(self) -> tuple:
        """The one or two independent primitive laws whose sum is n."""
        m, nb = self.modes, self.nbar
        if self.kind == "coherent":
            return (Poisson(nb * m),)
        if self.kind == "boson-polarized":
            return (_neg_binomial(m, nb / (1.0 + nb)),)
        if self.kind == "boson-unpolarized":
            return (_neg_binomial(2 * m, nb / (2.0 + nb)),)
        if self.kind == "fermion-polarized":
            return (Binomial(m, nb),)
        if self.kind == "fermion-unpolarized":
            return (Binomial(2 * m, 0.5 * nb),)
        # partial kinds: one order-M component per polarization channel
        n1 = 0.5 * nb * (1.0 + self.polarization)
        n2 = 0.5 * nb * (1.0 - self.polarization)
        if self.kind == "boson-partial":
            return tuple(_neg_binomial(m, n / (1.0 + n))
                         for n in (n1, n2) if n > 0.0)
        return tuple(Binomial(m, n) for n in (n1, n2) if n > 0.0)

    @property
    def max_count(self) -> int | None:
        """Largest n with nonzero weight, or None for unbounded support."""
        bounds = [comp.max_count for comp in self._components]
        return None if None in bounds else sum(bounds)


@dataclass(frozen=True)
class FactorialMoments:
    """Low-order moments of the occupancy: <n>, <n^2>, <n(n-1)>, Fano, Mandel Q."""

    mean: float
    second: float
    factorial2: float
    fano: float
    mandel_q: float

    @property
    def k_ratio(self) -> float:
        """Coincidence ratio K = <n(n-1)> / <n>^2."""
        return self.factorial2 / (self.mean * self.mean)


# -- public operations -----------------------------------------------------


def source_pmf(src: SourceLaw, n: int) -> float:
    """Weight W_n that exactly n quanta arrive in one gate."""
    if n != int(n) or n < 0:
        raise ValueError("n must be a non-negative integer")
    n = int(n)
    comps = src._components
    if len(comps) == 1:
        return _pmf(comps[0], n)
    a, b = comps
    return sum(_pmf(a, k) * _pmf(b, n - k) for k in range(n + 1))


def source_pgf(src: SourceLaw, z: float) -> float:
    """Probability generating function Phi(z) = sum W_n z^n."""
    out = 1.0
    for comp in src._components:
        out *= comp.pgf(z)
    return out


def source_factorial_moments(src: SourceLaw) -> FactorialMoments:
    """Analytic <n>, <n^2>, <n(n-1)>, Fano factor and Mandel Q."""
    means, f2s = zip(*(comp.mean_f2() for comp in src._components))
    mean, f2 = sum(means), sum(f2s)
    if len(means) == 2:
        f2 += 2.0 * means[0] * means[1]
    second = f2 + mean
    var = second - mean * mean
    fano = var / mean
    return FactorialMoments(mean=mean, second=second, factorial2=f2,
                            fano=fano, mandel_q=fano - 1.0)


def support_cutoff(src: SourceLaw, mass: float = TRUNCATION_MASS) -> int:
    """Smallest n* whose cumulative weight reaches `mass`.

    Raises DomainError when the weight up to n = TRUNCATION_CAP falls short.
    """
    bound = src.max_count
    if bound is not None:
        return bound
    total = 0.0
    for n in range(TRUNCATION_CAP + 1):
        total += source_pmf(src, n)
        if total >= mass:
            return n
    raise DomainError(f"support cutoff: the weight up to n = {TRUNCATION_CAP}"
                      f" is {total!r}, short of {mass!r}")


def _component_terms(comp, hi: int):
    """comp's pmf at n = 0, 1, ..., hi and on past hi until the mass left
    is below _TAIL_EPS times the mass summed past hi (the whole support when
    bounded)."""
    if comp.max_count is not None:
        return np.array([_pmf(comp, n) for n in range(comp.max_count + 1)])
    mean = comp.mean_f2()[0]
    terms = [_pmf(comp, n) for n in range(hi + 1)]
    tail = 0.0
    while True:
        n = len(terms)
        w = _pmf(comp, n)
        terms.append(w)
        tail += w
        # Past the mean the ratio r = w_n / w_(n-1) of these log-concave
        # laws is below 1 and does not grow, so the mass past n is at most
        # w_n r / (1 - r) = w_n**2 / (w_(n-1) - w_n).
        if n > mean and w * w <= _TAIL_EPS * tail * (terms[-2] - w):
            return np.array(terms)


@dataclass(frozen=True)
class OccupancyTable:
    """W_0..W_hi of a source, and the mass past hi summed term by term.

    For n = first + second, a sum of the source's components (second = 0
    for one component), P(n > hi) = sum_k P(first = k) P(second > hi - k).
    `split` is the running sum of those terms over k and `suffix[m]` is
    P(second >= m), each a sum of component terms, so no mass is taken as
    1 minus a rounded sum.
    """

    window: np.ndarray
    split: np.ndarray
    suffix: np.ndarray

    @property
    def hi(self) -> int:
        return len(self.window) - 1

    @property
    def tail(self) -> float:
        """P(n > hi)."""
        return float(self.split[-1])

    def sample_tail(self, rng, size: int):
        """size draws of n given n > hi, by inversion: first the first
        component's value k, then the second's given that it is at least
        hi + 1 - k."""
        u = rng.random((2, size))
        first = np.searchsorted(self.split, u[0] * self.split[-1],
                                side="right")
        low = np.clip(self.hi + 1 - first, 0, len(self.suffix) - 1)
        second = np.searchsorted(-self.suffix,
                                 -self.suffix[low] * (1.0 - u[1]),
                                 side="right") - 1
        return first + second


def occupancy_table(src: SourceLaw, hi: int) -> OccupancyTable:
    """The table of W_0..W_hi and the exact tail mass past hi.

    Each component's pmf is evaluated once per term and a two-component
    window is one convolution.  A window reaching the end of a bounded
    support has tail 0.
    """
    if hi < 0 or (src.max_count is not None and hi > src.max_count):
        raise ValueError("hi must lie in the support")
    terms = [_component_terms(comp, hi) for comp in src._components]
    first, second = terms if len(terms) == 2 else (terms[0], np.ones(1))
    window = np.convolve(first[:hi + 1], second[:hi + 1])[:hi + 1]
    suffix = np.append(np.cumsum(second[::-1])[::-1], 0.0)
    low = np.clip(hi + 1 - np.arange(len(first)), 0, len(second))
    return OccupancyTable(window, np.cumsum(first * suffix[low]), suffix)


def poisson_tv_distance(src: SourceLaw) -> float:
    """Total-variation distance between {W_n} and a Poisson law of equal mean.

    Goes to zero in the many-mode, low-occupancy limit at fixed total mean.
    """
    mean = source_factorial_moments(src).mean
    poisson = SourceLaw("coherent", modes=1, nbar=mean)
    cutoff = max(support_cutoff(src), support_cutoff(poisson))
    return 0.5 * sum(abs(source_pmf(src, n) - _pmf(Poisson(mean), n))
                     for n in range(cutoff + 1))
