"""Series-level observables: moments of the counts accumulated over a whole
run, the coincidence ratio K, the correlation coefficient R, thermal closed
forms, energy fluctuations, the maximum-contrast condition, entropy change
and the dip-contrast ratio Z.

A series mixes gates of random occupancy n (drawn from a SourceLaw) with
the trinomial detection algebra of `elementary`: its moments and correlation
are that module's one pair algebra at the source's <n> and Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elementary import TernaryLaw, _pair_moments, _pair_r, sequence_r
from .errors import DomainError
from .sources import SourceLaw, source_factorial_moments


@dataclass(frozen=True)
class SeriesMoments:
    """Moments and normalized correlations of the per-gate counts (xi, eta).

    r_coeff is R = -R_seq Q = sqrt(pq / ((1-p)(1-q))) (F - 1), R_seq the
    fixed-n gate's R; `exact_correlation`, the covariance-based one, differs
    once the source variance enters the count variances.
    """

    mean_xi: float
    var_xi: float
    mean_eta: float
    var_eta: float
    cross: float
    k_ratio: float
    r_coeff: float
    fano: float
    mandel_q: float


def series_moments(law: TernaryLaw, src: SourceLaw) -> SeriesMoments:
    """Analytic series observables for a detection law and a source law."""
    fm = source_factorial_moments(src)
    nq = fm.mandel_q
    return SeriesMoments(**_pair_moments(law, fm.mean, nq),
                         k_ratio=fm.k_ratio, r_coeff=-sequence_r(law) * nq,
                         fano=fm.fano, mandel_q=nq)


def exact_correlation(law: TernaryLaw, src: SourceLaw) -> float:
    """Pearson correlation of (xi, eta), cov / (sigma_xi sigma_eta) with
    cov = pq<n>Q, or Q sqrt(p/(1 + pQ)) sqrt(q/(1 + qQ)), which a sample
    correlation coefficient estimates.  It is SeriesMoments.r_coeff only
    when the count variances reduce to their within-gate parts."""
    return _pair_r(law, source_factorial_moments(src).mandel_q)


def thermal_k(statistics: str, modes: float, polarized: bool) -> float:
    """Closed-form coincidence ratio for thermal sources.

    Bosons: 1 + 1/M (polarized) or 1 + 1/(2M); fermions: 1 - 1/M or
    1 - 1/(2M).  Real-valued M >= 1 (>= 1/2 for unpolarized bosons'
    formal domain) is accepted for plotting mode sweeps.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError("statistics must be 'boson' or 'fermion'")
    if not modes > 0.0:
        raise ValueError("mode count must be positive")
    order = modes if polarized else 2.0 * modes
    if statistics == "boson":
        if 1.0 / order == math.inf:
            raise DomainError(f"boson K overflows float range at M = "
                              f"{modes!r}")
        return 1.0 + 1.0 / order
    if order < 1.0:
        raise ValueError("fermion K would be negative for this mode count")
    return 1.0 - 1.0 / order


def energy_fluctuation(statistics: str, mean_energy: float, quantum: float,
                       modes: float) -> float:
    """Energy variance of one detector channel.

    Bosons: h*nu*E + E^2/M (particle plus wave-interference term);
    fermions: h*nu*E - E^2/M, valid while E/M <= h*nu.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError("statistics must be 'boson' or 'fermion'")
    if not all(0.0 < x < math.inf for x in (mean_energy, quantum, modes)):
        raise ValueError("mean energy, quantum and mode count must be "
                         "positive and finite")
    per_mode = mean_energy / modes
    if statistics == "boson":
        value = quantum * mean_energy + mean_energy * per_mode
    elif per_mode > quantum * (1.0 + 1e-12):
        raise ValueError("fermion occupancy bound violated: E/M exceeds h*nu")
    else:
        value = quantum * mean_energy - mean_energy * per_mode
    if not math.isfinite(value):
        raise DomainError(f"energy fluctuation overflows float range at "
                          f"E = {mean_energy!r}, h*nu = {quantum!r}, "
                          f"M = {modes!r}")
    return value


def max_contrast_pump(mean_detected: float) -> float:
    """No-loss fraction s = 2/(1 + <n>) at which R reaches 1 for T = 1/2."""
    if not mean_detected > 1.0:
        raise ValueError("maximum contrast requires a mean occupancy above 1")
    return 2.0 / (1.0 + mean_detected)


def entropy_change(mean: float) -> float:
    """Entropy change (1+<n>)ln(1+<n>) - <n>ln<n> in units of k_B."""
    if not 0.0 < mean < math.inf:
        raise ValueError("entropy change requires a positive finite mean")
    if mean < 1.0:  # -<n> ln <n> > 0: a sum of two positive terms
        return (1.0 + mean) * math.log1p(mean) - mean * math.log(mean)
    # ln(1 + n) + n ln(1 + 1/n): no difference of two large terms, which
    # loses digits from about n = 1e8 on and overflows near float range
    return math.log1p(mean) + mean * math.log1p(1.0 / mean)


def contrast_z(n_background: float, n_coincidence: float) -> float:
    """Relative dip size Z = N_bg / (N_bg - N_c); equals M (polarized) or 2M."""
    if not math.inf > n_background > n_coincidence >= 0.0:
        raise ValueError("requires finite N_bg > N_c >= 0")
    return n_background / (n_background - n_coincidence)
