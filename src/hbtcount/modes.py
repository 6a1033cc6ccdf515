"""Mode-count functions M(x): the number of relevant degrees of freedom
spanned by the detectors as a function of the dimensionless mismatch x,
plus generation of coincidence curves K(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .stats import thermal_k

# (1 - 1/M)/x = sum_j (-2x)^j 4/(j+3)! for the Lorentzian M, j = 21 down to 0:
# below x = 1 the first term left out is under a fiftieth of an ulp
_K_SERIES = tuple(4.0 / math.factorial(j + 3) for j in range(21, -1, -1))


def gaussian_mode_count(x: float) -> float:
    """Mode count for a Gaussian transverse profile and rectangular detector.

    M = [erf(sqrt(pi) x)/x - (1/pi x^2)(1 - exp(-pi x^2))]^(-1);
    tends to 1 as x -> 0 and to x as x -> infinity.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("overlap x must be finite and non-negative")
    if x < 1e-8:  # M = 1 + pi x^2/6 rounds to 1
        return 1.0
    inv = (math.erf(math.sqrt(math.pi) * x) / x
           + math.expm1(-math.pi * x * x) / (math.pi * x * x))
    return 1.0 / inv


def lorentzian_mode_count(x: float) -> float:
    """Mode count for exponential-decay emission and a rectangular gate.

    M = [1/x - (1/2 x^2)(1 - exp(-2x))]^(-1); tends to 1 as x -> 0 and to
    x as x -> infinity.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError("overlap x must be finite and non-negative")
    return 1.0 / _lorentzian(x)[0]


def _lorentzian(x: float) -> tuple[float, float, float]:
    """(1/M, K, K/x) for the Lorentzian M and K = 1 - 1/M: from the series of
    K/x below x = 1, then with K = (x - 1)/x + (1 - exp(-2x))/(2x^2)."""
    if x < 1.0:
        k_over_x = 0.0
        for c in _K_SERIES:
            k_over_x = k_over_x * (-2.0 * x) + c
        return 1.0 - x * k_over_x, x * k_over_x, k_over_x
    e = math.expm1(-2.0 * x) / (2.0 * x * x)
    k = (x - 1.0) / x - e
    return 1.0 / x + e, k, k / x


def linear_mode_count(x: float) -> float:
    """Simple upper approximation M = 1 + x to both closed forms."""
    if not 0.0 <= x < math.inf:
        raise ValueError("overlap x must be finite and non-negative")
    return 1.0 + x


_SHAPE_FUNCS = {
    "gaussian": gaussian_mode_count,
    "lorentzian": lorentzian_mode_count,
    "linear-approx": linear_mode_count,
}
PROFILE_SHAPES = tuple(_SHAPE_FUNCS)


@dataclass(frozen=True)
class ModeProfile:
    """A named mode-count function M(x).

    x is the dimensionless overlap: spatially (s_x/lambda_x)*delta_x,
    temporally (2 T_S/tau_c)*|delta_t|.  With integer_part set, M is
    floored to its integer part (a rendering option for step plots).
    """

    shape: str = "lorentzian"
    integer_part: bool = False

    def __post_init__(self):
        if self.shape not in PROFILE_SHAPES:
            raise ValueError(f"unknown profile shape: {self.shape!r}")

    def count(self, x: float) -> float:
        m = _SHAPE_FUNCS[self.shape](x)
        return float(max(1, math.floor(m))) if self.integer_part else m


def asymptotic_mode_count(gate: float, bandwidth: float) -> float:
    """Large-M asymptote for the longitudinal mode count, tau_D * delta_nu."""
    if not (math.inf > gate > 0.0 and math.inf > bandwidth > 0.0):
        raise ValueError("gate duration and bandwidth must be positive and "
                         "finite")
    value = gate * bandwidth
    if value == math.inf:
        raise DomainError(f"mode count overflows float range at tau_D = "
                          f"{gate!r}, delta_nu = {bandwidth!r}")
    return value


def cartesian_mode_count(m_x: float, m_y: float, m_t: float) -> float:
    """Factorized mode count M_x * M_y * M_t (valid under cross-spectral purity)."""
    if not all(1.0 <= m < math.inf for m in (m_x, m_y, m_t)):
        raise ValueError("each factor must be finite and at least 1")
    value = m_x * m_y * m_t
    if value == math.inf:
        raise DomainError(f"mode count overflows float range at M_x, M_y, "
                          f"M_t = {m_x!r}, {m_y!r}, {m_t!r}")
    return value


def coincidence_curve(statistics: str, polarized: bool, profile: ModeProfile,
                      sweep) -> list[tuple[float, float, float]]:
    """(x, M(x), K) triples along a mismatch sweep.

    The boson curve peaks at K = 2 at x = 0 (polarized), the fermion curve
    dips to K = 0, and both approach the accidental level 1 at large x.
    """
    out = []
    for x in sweep:
        m = profile.count(x)
        out.append((float(x), m, thermal_k(statistics, m, polarized)))
    return out
