"""Gate-occupancy distributions in three families: coherent light, and
thermal bosons or fermions at a degree of polarization P (the polarized
kinds are P = 1, the unpolarized kinds P = 0).

Each source is one or two independent primitive components, each owning
its pmf, pgf, moments and sampler: `Poisson` (coherent, M modes), and
`NegBinomial` (bosons) or `Binomial` (fermions) of order M for each
polarization channel; two equal channels merge into one of order 2M.

Every W_n comes from one array path: the components' `log_pmf` over an
integer array, and `_window`, W_0..W_hi as one component's terms or one
convolution of two.  Every truncation is one `_cutoff_window`: W_0..W_n*
for the first n* whose mass past it, summed from the components' terms
and never taken as 1 minus a rounded sum, is at most a given room; for a
Monte Carlo occupancy table, _TAIL_EPS (float resolution), a mass its
draw gives to the table's most probable cell.
"""

from __future__ import annotations

import bisect
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
# this fraction of their sum: within its rounding.  A Monte Carlo occupancy
# table leaves out at most this mass.
_TAIL_EPS = 2.0 ** -53
# _cutoff_window's first window, and the first chunk of terms past a window.
_FIRST_WINDOW = 64


# -- primitive components --------------------------------------------------
# Each owns log_pmf(n) over an integer array n (-inf outside the support),
# pgf(z), mean_f2() = (<n>, <n(n-1)>), variance(), sample(rng, size) and
# max_count, the largest n with nonzero weight (None when unbounded).


# math.lgamma(k) for 0 < k < 2**12 (inf at the pole k = 0), read by _lgamma
_LGAMMA = np.array([math.inf, *map(math.lgamma, range(1, 2 ** 12))])


def _lgamma(x):
    """math.lgamma over an array of integers x >= 1: from _LGAMMA, or float
    by float (no Python ints) when one is past it."""
    if len(x) and x.max() < len(_LGAMMA):
        return _LGAMMA[x]
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

    def variance(self) -> float:
        return self.mean

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

    def variance(self) -> float:
        per_mode = self.b / (1.0 - self.b)
        return self.order * per_mode * (1.0 + per_mode)

    def sample(self, rng, size: int):
        """One exact draw a gate (numpy's gamma-Poisson mixture)."""
        return rng.negative_binomial(self.order, 1.0 - self.b, size)


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

    def variance(self) -> float:
        return self.order * self.a * (1.0 - self.a)

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
    if not math.isfinite(second - mean * mean):  # inf - inf past 1.3e154
        raise DomainError(f"occupancy too large: <n(n-1)> or <n^2> "
                          f"overflows at mean <n> = {mean!r}")
    fano = (second - mean * mean) / mean
    return FactorialMoments(mean=mean, second=second, factorial2=f2,
                            fano=fano, mandel_q=fano - 1.0)


def _component_terms(comp, hi: int, terms, limit=math.inf, room=math.inf):
    """comp's terms from n = 0: `terms`, then on to hi and past it in chunks
    of about doubling size until they hold its mass past hi (or reach the
    end of its support).  Returns all terms at hand and the holding ones, or
    None for these once comp needs `limit` terms (its mean lies past them)
    or its mass past hi, which bounds the source's, exceeds `room`: without
    reading a term when Cantelli's bound on that mass does."""
    bound = math.inf if comp.max_count is None else comp.max_count
    mean = comp.mean_f2()[0]
    # P(n > hi) >= gap**2 / (variance + gap**2) for gap > 0, so it exceeds
    # room when gap * (1 - room) > room * variance / gap: no term overflows
    gap = mean - hi
    if gap > 0 and gap * (1.0 - room) > room * (comp.variance() / gap):
        return terms, None
    end = hi + 1 + _FIRST_WINDOW
    while True:
        end = min(end, bound + 1)
        if end > len(terms):
            n = np.arange(len(terms), end)
            terms = np.append(terms, np.exp(comp.log_pmf(n)))
        if len(terms) > bound:
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


def _cutoff_window(src: SourceLaw, room: float, cap: int):
    """W_0..W_n* for the smallest n* whose mass past it, summed from the
    components' terms, is at most `room`.  The window 0..hi doubles up to
    `cap` (or the end of a bounded support) until P(n > hi) <= room, each
    tested in O(hi) from at most 3 hi terms a component; n* is then
    bisected in 0..hi and only W_0..W_n* convolved.  Returns that window,
    or None when no window up to cap passes, and the component terms read."""
    comps = src._components
    top = cap if src.max_count is None else min(cap, src.max_count)
    hi, terms = min(_FIRST_WINDOW, top), [np.empty(0)] * len(comps)
    while True:
        terms, held = zip(*(_component_terms(comp, hi, t, 3 * hi, room)
                            for comp, t in zip(comps, terms)))
        if all(h is not None for h in held):
            first, second = held if len(held) == 2 else (held[0], np.ones(1))
            # P(n > m) = sum_k first[k] P(second >= m + 1 - k): `rev` against
            # pad[m + 2:], which holds P(second >= j) from j = 1 - len(first)
            suffix = np.cumsum(second[::-1])[::-1]
            pad = np.concatenate((np.full(len(first), suffix[0]), suffix,
                                  np.zeros(hi + 2)))
            rev = first[::-1].copy()

            def within(m):  # P(n > m) <= room, monotone in m
                return rev @ pad[m + 2:m + 2 + len(rev)] <= room

            if within(hi):
                n_star = bisect.bisect_left(range(hi), True, key=within)
                return _window(src, n_star, held), terms
        if hi == top:
            return None, terms
        hi = min(2 * hi + 1, top)


def support_cutoff(src: SourceLaw, mass: float = TRUNCATION_MASS) -> int:
    """Smallest n* whose mass past it, P(n > n*), is at most 1 - mass
    (`_cutoff_window`), for bounded and unbounded supports alike.  Raises
    DomainError when no window up to TRUNCATION_CAP passes."""
    return len(_support_window(src, mass)) - 1


def _support_window(src: SourceLaw, mass: float = TRUNCATION_MASS):
    """W_0..W_n* for `support_cutoff`'s n*, with its checks and errors."""
    far = max(comp.mean_f2()[0] for comp in src._components)
    if far > 3 * TRUNCATION_CAP:  # no window reads terms past this mean
        raise DomainError(f"support cutoff: a component mean {far!r} lies "
                          f"past the {3 * TRUNCATION_CAP} terms read")
    window, terms = _cutoff_window(src, 1.0 - mass, TRUNCATION_CAP)
    if window is None:  # the weight up to the cap, from its terms if read
        n = np.arange(TRUNCATION_CAP + 1)
        first, *second = (t[:len(n)] if len(t) >= len(n)
                          else np.exp(comp.log_pmf(n))
                          for comp, t in zip(src._components, terms))
        below = np.cumsum(second[0])[::-1] if second else 1.0
        weight = float(np.sum(first * below))
        raise DomainError(f"support cutoff: the weight up to n = "
                          f"{TRUNCATION_CAP} is {weight!r}, short of {mass!r}")
    return window


def poisson_tv_distance(src: SourceLaw) -> float:
    """Total-variation distance between {W_n} and a Poisson law of equal
    mean; it goes to zero in the many-mode, low-occupancy limit."""
    mean = source_factorial_moments(src).mean
    poisson = SourceLaw("coherent", modes=1, nbar=mean)
    own = _support_window(src)
    cutoff = max(len(own) - 1, support_cutoff(poisson))
    if len(own) <= cutoff:
        own = _window(src, cutoff)
    return 0.5 * float(np.abs(own - _window(poisson, cutoff)).sum())
