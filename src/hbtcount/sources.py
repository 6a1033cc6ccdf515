"""Gate-occupancy distributions in three families: coherent light, and
thermal bosons or fermions at a degree of polarization P (the polarized
kinds are P = 1, the unpolarized kinds P = 0).

Each source is one or two independent primitive components, each owning
its pmf, pgf, moments and sampler: `Poisson` (coherent, M modes), and
`NegBinomial` (bosons) or `Binomial` (fermions) of order M for each
polarization channel; two equal channels merge into one of order 2M.

Every W_n comes from one array path: the components' `log_pmf` over an
integer array, and `_window`, W_0..W_hi as one component's terms or one
convolution of two.  Every mass past a window, for `support_cutoff` and
for the Monte Carlo occupancy histograms (`occupancy_table`), is summed
from the components' terms past it, never taken as 1 minus a rounded sum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elementary import _xlogy
from .errors import DomainError

KINDS = ("coherent", "boson-polarized", "boson-partial", "boson-unpolarized",
         "fermion-polarized", "fermion-partial", "fermion-unpolarized")

TRUNCATION_MASS = 1.0 - 1e-10
TRUNCATION_CAP = 10 ** 6
# A component's terms past a window are summed until the mass left is below
# this fraction of their sum: within its rounding.
_TAIL_EPS = 2.0 ** -53
# support_cutoff's first window, and the first chunk of terms past a window.
_FIRST_WINDOW = 64


# -- primitive components --------------------------------------------------
# Each owns log_pmf(n) over an integer array n (-inf outside the support),
# pgf(z), mean_f2() = (<n>, <n(n-1)>), sample(rng, size) and max_count,
# the largest n with nonzero weight (None when unbounded).


def _lgamma(x):
    """math.lgamma over an integer array, float by float (no Python ints)."""
    return np.fromiter(map(math.lgamma, x.astype(float)), float, len(x))


class Poisson(NamedTuple):
    """Poisson law of the given mean (coherent excitation, K = 1)."""

    mean: float
    max_count = None

    def log_pmf(self, n):
        return n * math.log(self.mean) - self.mean - _lgamma(n + 1)

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

    def log_pmf(self, n):
        order, b = self
        # the log binomial coefficient, 0 for one mode (a geometric law)
        coef = 0.0 if order == 1 else (
            _lgamma(order + n) - math.lgamma(order) - _lgamma(n + 1))
        return coef + order * math.log1p(-b) + _xlogy(n, b)

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
        """One exact draw a gate (numpy's gamma-Poisson mixture)."""
        try:
            return rng.negative_binomial(self.order, 1.0 - self.b, size)
        except ValueError as exc:  # "n too large or p too small"
            raise DomainError(
                f"boson occupancy too large to draw: {exc}") from None


class Binomial(NamedTuple):
    """Binomial law of order N and occupancy a (fermions, K = 1 - 1/N)."""

    order: int
    a: float

    @property
    def max_count(self) -> int:
        return self.order

    def log_pmf(self, n):
        order, a = self
        rest = order - n
        out = (math.lgamma(order + 1) - _lgamma(n + 1)
               - _lgamma(np.maximum(rest, 0) + 1)
               + _xlogy(n, a) + _xlogy(rest, -a, math.log1p))
        return np.where(rest >= 0, out, -np.inf)

    def pgf(self, z: float) -> float:
        return (1.0 + self.a * (z - 1.0)) ** self.order

    def mean_f2(self) -> tuple[float, float]:
        order, a = self
        return order * a, order * (order - 1) * a * a

    def sample(self, rng, size: int):
        return rng.binomial(self.order, self.a, size)


def _neg_binomial(order: int, nbar: float) -> NegBinomial:
    b = nbar / (1.0 + nbar)
    if b >= 1.0:
        raise DomainError("boson occupancy too large: the ratio "
                          "nbar / (1 + nbar) rounds to 1")
    return NegBinomial(order, b)


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
        if self.kind.startswith("fermion") and self.nbar > 1.0:
            raise ValueError("fermion occupancy per mode cannot exceed 1")

    @cached_property
    def _components(self) -> tuple:
        """The one or two independent primitive laws whose sum is n."""
        m, nb = self.modes, self.nbar
        if self.kind == "coherent":
            return (Poisson(nb * m),)
        family, suffix = self.kind.split("-")
        pol = {"polarized": 1.0, "unpolarized": 0.0}.get(suffix,
                                                         self.polarization)
        make = _neg_binomial if family == "boson" else Binomial
        # equal to 0.5 * nb * (1 +/- P) for normal nb, and exactly nb at P = 1
        channels = [nb * (0.5 * (1.0 + pol)), nb * (0.5 * (1.0 - pol))]
        if pol == 1.0:
            channels.pop()
        if 0.0 in channels:
            raise DomainError(f"occupancy too small: a channel occupancy "
                              f"0.5 * nbar * (1 +/- P) underflows to 0 at "
                              f"nbar = {nb!r}")
        comps = [make(m, n) for n in channels]
        if len(comps) == 2 and comps[0] == comps[1]:
            return (comps[0]._replace(order=2 * m),)
        return tuple(comps)

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
        square = self.mean * self.mean
        if square < sys.float_info.min:  # 0, or subnormal with digits lost
            raise DomainError(f"occupancy too small: <n>**2 underflows at "
                              f"mean <n> = {self.mean!r}")
        return self.factorial2 / square


def _window(src: SourceLaw, hi: int, terms=None):
    """W_0..W_hi: one component's terms, or one convolution of two; `terms`
    are their terms from n = 0 to hi at least (or a support's end)."""
    if terms is None:
        n = np.arange(hi + 1)
        terms = [np.exp(comp.log_pmf(n)) for comp in src._components]
    if len(terms) == 1:
        return terms[0][:hi + 1]
    return np.convolve(terms[0][:hi + 1], terms[1][:hi + 1])[:hi + 1]


# -- public operations -----------------------------------------------------


def source_pmf(src: SourceLaw, n: int) -> float:
    """Weight W_n that exactly n quanta arrive in one gate."""
    if n != int(n) or n < 0:
        raise ValueError("n must be a non-negative integer")
    n = int(n)
    comps = src._components
    if len(comps) == 1:
        return float(np.exp(comps[0].log_pmf(np.array([n])))[0])
    k = np.arange(n + 1)
    return float(np.exp(comps[0].log_pmf(k)) @ np.exp(comps[1].log_pmf(n - k)))


def source_pgf(src: SourceLaw, z: float) -> float:
    """Probability generating function Phi(z) = sum W_n z^n."""
    return math.prod(comp.pgf(z) for comp in src._components)


def source_factorial_moments(src: SourceLaw) -> FactorialMoments:
    """Analytic <n>, <n^2>, <n(n-1)>, Fano factor and Mandel Q."""
    means, f2s = zip(*(comp.mean_f2() for comp in src._components))
    mean, f2 = sum(means), sum(f2s)
    if len(means) == 2:
        f2 += 2.0 * means[0] * means[1]
    second = f2 + mean
    fano = (second - mean * mean) / mean
    return FactorialMoments(mean=mean, second=second, factorial2=f2,
                            fano=fano, mandel_q=fano - 1.0)


def _component_terms(comp, hi: int, terms, limit=math.inf, room=math.inf):
    """comp's terms from n = 0: `terms`, then on to hi and past it in chunks
    of about doubling size until they hold its mass past hi (all of a
    bounded support).  Returns all terms at hand and the holding ones, or
    None for these once comp needs `limit` terms (its mean lies past them)
    or its mass past hi, which bounds the source's, exceeds `room`."""
    bound, mean = comp.max_count, comp.mean_f2()[0]
    end = hi + 1 + _FIRST_WINDOW if bound is None else bound + 1
    while True:
        if end > len(terms):
            n = np.arange(len(terms), end)
            terms = np.append(terms, np.exp(comp.log_pmf(n)))
        if bound is not None:
            return terms, terms
        # Past the mean the ratio r = w_n / w_(n-1) of these log-concave laws
        # is below 1 and does not grow, so the mass past n is at most
        # w_n r / (1 - r) = w_n**2 / (w_(n-1) - w_n); mass sums past hi.
        w = terms[hi + 1:]
        mass = np.cumsum(w)
        stop = ((np.arange(hi + 1, len(terms)) > mean)
                & (w * w <= _TAIL_EPS * mass * (terms[hi:-1] - w)))
        if stop.any():
            return terms, terms[:hi + 2 + np.argmax(stop)]
        if mass[-1] > room or max(len(terms), mean) >= limit:
            return terms, None
        end = min(2 * len(terms) - hi, limit)


def _tail_split(terms, hi: int):
    """`OccupancyTable.split` and `suffix` past the window 0..hi, from the
    components' terms that hold their mass past hi."""
    first, second = terms if len(terms) == 2 else (terms[0], np.ones(1))
    suffix = np.append(np.cumsum(second[::-1])[::-1], 0.0)
    low = np.clip(hi + 1 - np.arange(len(first)), 0, len(second))
    return np.cumsum(first * suffix[low]), suffix


def support_cutoff(src: SourceLaw, mass: float = TRUNCATION_MASS) -> int:
    """Smallest n* whose mass past it, P(n > n*), is at most 1 - mass,
    summed from the far end: the exact mass past a window 0..hi, then W_hi
    down to W_(n*+1).  The window doubles until its mass past hi is at most
    1 - mass, each tested in O(hi) from at most 3 hi terms a component
    before it is convolved.  Raises DomainError when no window up to
    TRUNCATION_CAP passes."""
    if src.max_count is not None:
        return src.max_count
    comps, room = src._components, 1.0 - mass
    far = max(comp.mean_f2()[0] for comp in comps)
    if far > 3 * TRUNCATION_CAP:  # no window reads terms past this mean
        raise DomainError(f"support cutoff: a component mean {far!r} lies "
                          f"past the {3 * TRUNCATION_CAP} terms read")
    hi, terms = _FIRST_WINDOW, [np.empty(0)] * len(comps)
    while True:
        terms, held = zip(*(_component_terms(comp, hi, t, 3 * hi, room)
                            for comp, t in zip(comps, terms)))
        tail = (math.inf if any(h is None for h in held)
                else _tail_split(held, hi)[0][-1])
        if tail <= room:
            # P(n > m) for m = hi, hi - 1, ..., 0
            past = np.cumsum(np.append(tail, _window(src, hi, held)[:0:-1]))
            return hi + 1 - int(np.searchsorted(past, room, side="right"))
        if hi == TRUNCATION_CAP:
            below = (np.cumsum(terms[1][:hi + 1])[::-1] if len(terms) == 2
                     else 1.0)
            weight = np.sum(terms[0][:hi + 1] * below)
            raise DomainError(f"support cutoff: the weight up to n = "
                              f"{TRUNCATION_CAP} is {float(weight)!r}, "
                              f"short of {mass!r}")
        hi = min(2 * hi + 1, TRUNCATION_CAP)


@dataclass(frozen=True)
class OccupancyTable:
    """W_0..W_hi of a source, and the mass past hi summed term by term.

    For n = first + second, a sum of the source's components (second = 0
    for one), `split` holds the running sums over k of P(first = k)
    P(second > hi - k), whose total is P(n > hi), and `suffix[m]` is
    P(second >= m), each summed from component terms.
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
    """The table of W_0..W_hi and the exact mass past hi (0 at the end of a
    bounded support); a two-component window is one convolution."""
    if hi < 0 or (src.max_count is not None and hi > src.max_count):
        raise ValueError("hi must lie in the support")
    terms = [_component_terms(comp, hi, np.empty(0))[1]
             for comp in src._components]
    return OccupancyTable(_window(src, hi, terms), *_tail_split(terms, hi))


def poisson_tv_distance(src: SourceLaw) -> float:
    """Total-variation distance between {W_n} and a Poisson law of equal
    mean; it goes to zero in the many-mode, low-occupancy limit."""
    mean = source_factorial_moments(src).mean
    poisson = SourceLaw("coherent", modes=1, nbar=mean)
    cutoff = max(support_cutoff(src), support_cutoff(poisson))
    return 0.5 * float(np.abs(_window(src, cutoff)
                              - _window(poisson, cutoff)).sum())
