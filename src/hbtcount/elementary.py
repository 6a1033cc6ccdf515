"""Trinomial algebra of one gate containing a fixed number of detection acts.

Each elementary act has three mutually exclusive outcomes: detector A fires
(probability p), detector B fires (probability q), or neither fires
(probability r).  A gate of n independent acts yields the pair of counts
(xi, eta) whose joint law is trinomial.  This module provides the pmf, the
two-variable generating function, the coincidence ratio K_n and the
correlation coefficient R of that pair, and the one second-order algebra
of (xi, eta), `_pair_moments` and `_pair_r`: the (p, q) thinning of an
occupancy of mean <n> and Mandel Q = var n / <n> - 1, for a whole series
as for a gate of fixed n, which is <n> = n at Q = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SUM_ABS_TOL = 1e-12     # tolerance on p + q + r = 1 after renormalization
SUM_INPUT_TOL = 1e-9    # constructor renormalizes inputs within this of 1


@dataclass(frozen=True)
class TernaryLaw:
    """Probabilities (p, q, r) of the three outcomes of one elementary act.

    Inputs whose sum deviates from 1 by at most 1e-9 are renormalized;
    larger deviations are rejected.
    """

    p: float
    q: float
    r: float

    def __post_init__(self):
        p, q, r = float(self.p), float(self.q), float(self.r)
        if not all(0.0 <= x <= 1.0 for x in (p, q, r)):  # nan too
            raise ValueError("probabilities must lie in [0, 1]")
        total = p + q + r
        if abs(total - 1.0) > SUM_INPUT_TOL:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "p", p / total)
        object.__setattr__(self, "q", q / total)
        object.__setattr__(self, "r", r / total)
        assert abs(self.p + self.q + self.r - 1.0) <= SUM_ABS_TOL

    @property
    def s(self) -> float:
        """Probability that either detector fires, s = 1 - r."""
        return 1.0 - self.r

    @property
    def t_transmit(self) -> float:
        """Conditional share of detector A among firing acts, p / (p + q);
        p + q rather than s = 1 - r, which can round below p."""
        return self.p / self._firing()

    @property
    def t_reflect(self) -> float:
        """Conditional share of detector B among firing acts, q / (p + q)."""
        return self.q / self._firing()

    def _firing(self) -> float:
        if self.p + self.q <= 0.0:
            raise ValueError("splitting ratios undefined when p + q = 0")
        return self.p + self.q


@dataclass(frozen=True)
class SequenceMoments:
    """First and second moments of (xi, eta) for a gate of n acts."""

    n: int
    mean_xi: float
    mean_eta: float
    var_xi: float
    var_eta: float
    cross: float


def _count(value, name: str, least: int = 0, below: int | None = None) -> int:
    """The int of a whole number in [least, below), unbounded above when
    below is None: a Python or numpy integer, or a float with no fractional
    part.  Anything else, inf and nan among them, raises ValueError naming
    `name`, so no count is ever truncated."""
    if isinstance(value, (int, np.integer)) or isinstance(
            value, (float, np.floating)) and float(value).is_integer():
        count = int(value)
        if count >= least and (below is None or count < below):
            return count
    span = f">= {least}" if below is None else f"in [{least}, {below})"
    raise ValueError(f"{name} must be a whole number {span}, not {value}")


def _xlogy(x, y: float, log=math.log):
    """x * log(y) for a count or an array of counts x, with 0 * log(0) = 0:
    log is math.log or math.log1p, and y outside its domain gives -inf."""
    try:
        return x * log(y)
    except ValueError:
        return np.where(np.asarray(x) > 0, -np.inf, 0.0)


def trinomial_pmf(law: TernaryLaw, n: int, m: int, k: int) -> float:
    """P(xi = m, eta = k) in a gate of n acts, computed in log space."""
    n = _count(n, "n")
    m = _count(m, "m", 0, n + 1)
    k = _count(k, "k", 0, n - m + 1)  # m + k <= n
    try:  # a count past float range, or a log coefficient lost to rounding
        log_coef = (math.lgamma(n + 1) - math.lgamma(m + 1)
                    - math.lgamma(k + 1) - math.lgamma(n - m - k + 1))
        log_p = (_xlogy(m, law.p) + _xlogy(k, law.q)
                 + _xlogy(n - m - k, law.r))
        if log_p == -math.inf:
            return 0.0
        return min(1.0, math.exp(log_coef + log_p))
    except OverflowError:
        raise DomainError(f"trinomial pmf overflows float range at n = {n}"
                          ) from None


def sequence_gf(law: TernaryLaw, n: int, x, y):
    """Generating function (p x + q y + r)^n; |x| <= 1, |y| <= 1."""
    n = _count(n, "n")
    if not (abs(x) <= 1.0 + 1e-15 and abs(y) <= 1.0 + 1e-15):
        raise ValueError("subsidiary variables must lie in the unit disk")
    base = law.p * x + law.q * y + law.r
    try:
        return base ** n
    except OverflowError:  # the power, or an n past float range
        if abs(base) > 1.0:
            raise DomainError(f"generating function overflows float range "
                              f"at n = {n}") from None
        # an n past float range: 1 or 0, with base's sign for an odd n
        return math.copysign(float(abs(base) == 1.0), base if n % 2 else 1.0)


def _one_plus(p: float, mandel_q) -> float:
    """1 + pQ for a thinning probability p and Mandel Q >= -1.  For Q < 0
    it is (1 - p) + p(1 + Q), a sum of two non-negative terms, where 1 + pQ
    would cancel as p -> 1 and Q -> -1; at Q = -1 both forms are 1 - p."""
    if mandel_q < 0:
        return (1.0 - p) + p * (1.0 + mandel_q)
    return 1.0 + p * mandel_q


def _pair_moments(law: TernaryLaw, mean, mandel_q) -> dict:
    """mean_xi, var_xi, mean_eta, var_eta and cross = <xi eta> of the (p, q)
    thinning of an occupancy of mean <n> and Mandel Q: var xi = p<n>(1 + pQ)
    and cross = (p<n>)(q(<n> + Q)), so no p q product underflows before <n>
    scales it.  A gate of fixed n is (n, -1): the int keeps n - 1 exact past
    2**53, and max an empty gate's cross +0.0, not 0.0 * -1."""
    p, q = law.p, law.q
    mean_xi, mean_eta = p * mean, q * mean
    return dict(mean_xi=mean_xi, var_xi=mean_xi * _one_plus(p, mandel_q),
                mean_eta=mean_eta, var_eta=mean_eta * _one_plus(q, mandel_q),
                cross=mean_xi * (q * max(mean + mandel_q, 0)))


def _pair_r(law: TernaryLaw, mandel_q) -> float:
    """Correlation coefficient of (xi, eta) for an occupancy of Mandel Q,
    cov / (sigma_xi sigma_eta) = Q sqrt(p/(1 + pQ)) sqrt(q/(1 + qQ)), in
    which <n> cancels and no p q product underflows."""
    p, q = law.p, law.q
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("R requires 0 < p < 1 and 0 < q < 1")
    return (mandel_q * math.sqrt(p / _one_plus(p, mandel_q))
            * math.sqrt(q / _one_plus(q, mandel_q)))


def sequence_moments(law: TernaryLaw, n: int) -> SequenceMoments:
    """Exact moments of (xi, eta) for a gate of n acts."""
    n = _count(n, "n")
    try:
        moments = _pair_moments(law, n, -1)
    except OverflowError:  # an n past float range
        moments = {"cross": math.inf}
    if moments["cross"] == math.inf:
        raise DomainError(f"cross moment overflows float range at n = {n}")
    return SequenceMoments(n=n, **moments)


def sequence_k(n: int) -> float:
    """Coincidence ratio K_n = 1 - 1/n within a gate of n acts.

    Always below 1: within a gate the two detectors are anticorrelated,
    independent of (p, q, r).
    """
    # undefined for an empty gate; an int 1 / n is exact past float range
    return 1 - 1 / _count(n, "n", 1)


def sequence_r(law: TernaryLaw) -> float:
    """Correlation coefficient of (xi, eta), independent of n.

    R = -sqrt(pq / ((1-p)(1-q))), always in [-1, 0); it reaches -1 only
    in the binary limit r = 0, p = q = 1/2.
    """
    return _pair_r(law, -1)
