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
draw gives to the table's most probable cell.  Each component's terms
are read once, until they hold its mass past them to _TAIL_EPS of the
room, and the window is built from them alone.  One component's n* is
the first count whose suffix sum over its terms is within the room (one
reverse cumsum and one searchsorted); two components' n* is bisected on
the pair sum of their terms, whose full array would take O(N**2), and
their window convolves those terms, each cut at n* + 1.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .elementary import _count, _xlogy
from .errors import DomainError

KINDS = ("coherent", "boson-polarized", "boson-partial", "boson-unpolarized",
         "fermion-polarized", "fermion-partial", "fermion-unpolarized")

TRUNCATION_MASS = 1.0 - 1e-10
TRUNCATION_CAP = 10 ** 6
# A component's terms are read until the mass past them is below this
# fraction of the room: within the rounding of a mass compared with it.  A
# Monte Carlo occupancy table leaves out at most this mass.
_TAIL_EPS = 2.0 ** -53
# A component's first chunk of terms ends this many past a first window of
# this many (or the cap), and the chunk that passes the cap this many past it.
# A window to a given count reads this many terms first.
_FIRST_WINDOW = 64


# -- primitive components --------------------------------------------------
# Each is evaluated from its defining parameters alone (a mean; an order and
# the occupation per mode, nbar or a), with no derived parameter stored or
# rounded.  Each owns log_pmf(n) over an integer array n (-inf outside the
# support), pgf(z), sample(rng, size), max_count (the largest n with nonzero
# weight, None when unbounded), and two moment members: the mean <n> and
# Mandel's Q = var n / <n> - 1, the wave part of the variance over <n> (0
# for Poisson, +nbar for bosons, -a for fermions).  A source's K = 1 + Q/<n>
# and F = 1 + Q follow from their sums.


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
    mandel_q = 0.0

    def log_pmf(self, n):
        return n * math.log(self.mean) - self.mean - _lgamma(n + 1)

    def pgf(self, z: float) -> float:
        return math.exp(self.mean * (z - 1.0))

    def sample(self, rng, size: int):
        return rng.poisson(self.mean, size)


class NegBinomial(NamedTuple):
    """Negative binomial law of order N, nbar a mode (bosons, K = 1 + 1/N)."""

    order: int
    nbar: float
    max_count = None

    @property
    def mean(self) -> float:
        return self.order * self.nbar

    @property
    def mandel_q(self) -> float:
        return self.nbar

    def log_pmf(self, n):
        order, nbar = self
        # the log binomial coefficient, 0 for one mode (a geometric law)
        coef = 0.0 if order == 1 else (
            _lgamma(order + n) - math.lgamma(order) - _lgamma(n + 1))
        # log(nbar / (1 + nbar)), without cancellation on either side of 1
        log_b = (math.log(nbar) - math.log1p(nbar) if nbar < 1.0
                 else -math.log1p(1.0 / nbar))
        return coef - order * math.log1p(nbar) + n * log_b

    def pgf(self, z: float) -> float:
        base = 1.0 - self.nbar * (z - 1.0)
        if not base > 0.0:
            raise DomainError("boson pgf requires nbar*(z - 1) < 1")
        return base ** -self.order

    def sample(self, rng, size: int):
        """One exact draw a gate (numpy's gamma-Poisson mixture)."""
        return rng.negative_binomial(self.order, 1.0 / (1.0 + self.nbar), size)


class Binomial(NamedTuple):
    """Binomial law of order N and occupancy a (fermions, K = 1 - 1/N)."""

    order: int
    a: float

    @property
    def max_count(self) -> int:
        return self.order

    @property
    def mean(self) -> float:
        return self.order * self.a

    @property
    def mandel_q(self) -> float:
        return -self.a

    def log_pmf(self, n):
        order, a = self
        rest = order - n
        out = (math.lgamma(order + 1) - _lgamma(n + 1)
               - _lgamma(np.maximum(rest, 0) + 1)
               + _xlogy(n, a) + _xlogy(rest, -a, math.log1p))
        return np.where(rest >= 0, out, -np.inf)

    def pgf(self, z: float) -> float:
        return (1.0 + self.a * (z - 1.0)) ** self.order

    def sample(self, rng, size: int):
        return rng.binomial(self.order, self.a, size)


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
        object.__setattr__(self, "modes", _count(self.modes, "modes", 1))
        if self.modes > sys.float_info.max:  # the component means are floats
            raise DomainError(f"too many modes: M = 10**"
                              f"{math.log10(self.modes):.1f} is past float "
                              f"range")
        if not 0.0 < self.nbar < math.inf:
            raise ValueError("nbar must be positive and finite")
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
        make = NegBinomial if family == "boson" else Binomial
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
        """Coincidence ratio K = <n(n-1)>/<n>^2 = 1 + Q/<n>, as sequence_k."""
        if self.mean < sys.float_info.min:  # 0, or subnormal with digits lost
            raise DomainError(f"occupancy too small: K = 1 + Q/<n> loses "
                              f"digits at subnormal mean <n> = {self.mean!r}")
        return 1.0 + self.mandel_q / self.mean


def _terms_to_zero(comp, hi: int):
    """comp's terms from n = 0 up to hi (or its support's end), read in
    chunks of doubling size until one ends in a 0.0 past the mean: these
    log-concave laws only fall from there, so every term left unread is
    0.0 too."""
    top = hi if comp.max_count is None else min(hi, comp.max_count)
    chunks, end = [], 0
    while end <= top and not (end > comp.mean + 1 and chunks[-1][-1] == 0.0):
        stop = min(2 * end + _FIRST_WINDOW, top + 1)
        chunks.append(np.exp(comp.log_pmf(np.arange(end, stop))))
        end = stop
    return np.concatenate(chunks)


def _window(src: SourceLaw, hi: int, terms=None):
    """W_0..W_hi: one component's terms, or one convolution of two; of the
    `terms` `_cutoff_window` read, which reach hi, or else of the terms to
    hi that `_terms_to_zero` reads, two cut after their last nonzero one (an
    exact zero adds nothing), with zeros after them."""
    if terms is None:
        terms = [_terms_to_zero(comp, hi) for comp in src._components]
        if len(terms) == 2:
            terms = [t[:np.flatnonzero(t).max(initial=0) + 1] for t in terms]
    if len(terms) == 2:
        terms = [np.convolve(terms[0][:hi + 1], terms[1][:hi + 1])]
    window = terms[0][:hi + 1]
    if len(window) > hi:
        return window
    return np.concatenate((window, np.zeros(hi + 1 - len(window))))


# -- public operations -----------------------------------------------------


def source_pmf(src: SourceLaw, n: int) -> float:
    """Weight W_n that exactly n quanta arrive in one gate: 0 past a bounded
    support's end; DomainError where n + order + 1 (order 1 for a Poisson
    law), which bounds the int64 counts of a `log_pmf`, passes int64, or a
    two-component sum takes more terms than any window reads."""
    n = _count(n, "n")
    comps = src._components
    if src.max_count is not None and n > src.max_count:
        return 0.0
    if n + max(getattr(comp, "order", 1) for comp in comps) >= 2 ** 63 - 1:
        raise DomainError(f"count too large: n = {n} wraps int64 in the pmf")
    if len(comps) == 1:
        return float(np.exp(comps[0].log_pmf(np.array([n])))[0])
    # the k that both supports allow, n for an unbounded one
    first, second = (comp.max_count or n for comp in comps)
    lo, hi = max(0, n - second), min(n, first)
    if hi - lo > 3 * TRUNCATION_CAP:
        raise DomainError(f"count too large: W_{n} sums {hi - lo + 1} terms, "
                          f"past the {3 * TRUNCATION_CAP + 1} of any window")
    k = np.arange(lo, hi + 1)
    return float(np.exp(comps[0].log_pmf(k)) @ np.exp(comps[1].log_pmf(n - k)))


def source_pgf(src: SourceLaw, z: float) -> float:
    """Probability generating function Phi(z) = sum W_n z^n; DomainError
    when it passes float range."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, not {z}")
    try:  # a component's ** or exp raises, a product of two goes to inf
        value = math.prod(comp.pgf(z) for comp in src._components)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"pgf overflows float range at z = {z!r}")
    return value


def source_factorial_moments(src: SourceLaw) -> FactorialMoments:
    """Analytic <n>, <n^2>, <n(n-1)>, Fano factor and Mandel Q: independent
    components add their means and variances, so Q is their Qs weighted by
    mean, F = 1 + Q and <n(n-1)> = <n>(<n> + Q)."""
    comps = src._components
    mean = sum(comp.mean for comp in comps)
    q = sum(comp.mean / mean * comp.mandel_q for comp in comps)
    f2 = mean * (mean + q)
    if not math.isfinite(f2 + mean):  # past a mean of about 1.3e154
        raise DomainError(f"occupancy too large: <n(n-1)> or <n^2> "
                          f"overflows at mean <n> = {mean!r}")
    return FactorialMoments(mean=mean, second=f2 + mean, factorial2=f2,
                            fano=1.0 + q, mandel_q=q)


def _component_terms(comp, top: int, room: float):
    """comp's terms from n = 0, read in chunks of about doubling size until
    they hold its mass past the last one within _TAIL_EPS of `room` (or
    reach the end of its support).  Returns them and whether they hold:
    not once comp's mass past `top`, which bounds the source's, exceeds
    room, or comp needs 3 top terms (its mean lies past them); without
    reading a term when Cantelli's bound on that mass does."""
    bound = math.inf if comp.max_count is None else comp.max_count
    mean = comp.mean
    variance = mean * (1.0 + comp.mandel_q)
    # P(n > top) >= gap**2 / (variance + gap**2) for gap > 0, so it exceeds
    # room when gap * (1 - room) > room * variance / gap: no term overflows
    gap = mean - top
    if gap > 0 and gap * (1.0 - room) > room * (variance / gap):
        return np.empty(0), False
    hi = min(_FIRST_WINDOW, top)
    terms, end = np.empty(0), hi + 1 + _FIRST_WINDOW
    while True:
        n = np.arange(len(terms), min(end, bound + 1))
        terms = np.append(terms, np.exp(comp.log_pmf(n)))
        if len(terms) > bound:
            return terms, True
        # Past the mean the ratio r = w_n / w_(n-1) of these log-concave laws
        # is below 1 and does not grow, so the mass past the last term w_L is
        # at most w_L r / (1 - r) = w_L**2 / (w_(L-1) - w_L).
        last, before = terms[-1], terms[-2]
        if (len(terms) > mean + 1
                and last * last <= _TAIL_EPS * room * (before - last)):
            return terms, True
        if (terms[top + 1:].sum() > room
                or max(len(terms), mean) >= 3 * top):
            return terms, False
        # the chunk that passes top ends _FIRST_WINDOW past it: a mass past
        # top is found before the chunks double again
        end = min(2 * len(terms) - hi, 3 * top if len(terms) > top
                  else top + 1 + _FIRST_WINDOW)


def _cutoff_window(src: SourceLaw, room: float, cap: int):
    """W_0..W_n* for the smallest n* whose mass past it, summed from the
    components' terms, is at most `room`.  Each component's terms are read
    once, until they hold its mass past them (`_component_terms`), and the
    window is built from them alone: those past carry at most _TAIL_EPS of
    the room.  For one component n* is found among all its terms by one
    suffix sum; for two, n* is bisected on their pair sum, and W_0..W_n*
    convolves them, each cut at n* + 1.  Returns that window, or None when
    n* lies past `cap` (or a bounded support's end), and the terms read."""
    comps = src._components
    top = cap if src.max_count is None else min(cap, src.max_count)
    terms, held = zip(*(_component_terms(comp, top, room) for comp in comps))
    if not all(held):
        return None, terms
    if len(terms) == 1:
        # suffix[j] = P(n > L - 1 - j), L the last term: the mass of the
        # terms L - j..L, which grows with j; P(n > L) is 0
        suffix = np.cumsum(terms[0][:0:-1])
        n_star = len(suffix) - int(np.searchsorted(suffix, room, "right"))
    else:
        first, second = terms
        hi = min(top, len(first) + len(second) - 2)  # P(n > hi) = 0; n* <= hi
        # P(n > m) = sum_k first[k] P(second >= m + 1 - k): `rev` against
        # pad[m + 2:], which holds P(second >= j) from j = 1 - len(first)
        suffix = np.cumsum(second[::-1])[::-1]
        pad = np.concatenate((np.full(len(first), suffix[0]), suffix,
                              np.zeros(hi + 2)))
        rev = first[::-1].copy()

        def within(m):  # P(n > m) <= room, monotone in m
            return rev @ pad[m + 2:m + 2 + len(rev)] <= room

        if not within(hi):
            return None, terms
        n_star = bisect.bisect_left(range(hi), True, key=within)
    if n_star > top:
        return None, terms
    return _window(src, n_star, terms), terms


def support_cutoff(src: SourceLaw, mass: float = TRUNCATION_MASS) -> int:
    """Smallest n* whose mass past it, P(n > n*), is at most 1 - mass
    (`_cutoff_window`), for bounded and unbounded supports alike.  Raises
    DomainError when no window up to TRUNCATION_CAP passes."""
    return len(_support_window(src, mass)) - 1


def _support_window(src: SourceLaw, mass: float = TRUNCATION_MASS):
    """W_0..W_n* for `support_cutoff`'s n*, with its checks and errors."""
    if not 0.0 <= mass < 1.0:
        raise ValueError(f"mass must lie in [0, 1), not {mass!r}")
    far = max(comp.mean for comp in src._components)
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
    laws = (src, SourceLaw("coherent", modes=1, nbar=mean))
    windows = [_support_window(law) for law in laws]
    hi = max(map(len, windows)) - 1
    own, poisson = (w if len(w) > hi else _window(law, hi)
                    for w, law in zip(windows, laws))
    return 0.5 * float(np.abs(own - poisson).sum())
