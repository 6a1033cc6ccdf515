import math

import numpy as np
import pytest

from hbtcount import (
    ModeProfile,
    asymptotic_mode_count,
    cartesian_mode_count,
    coincidence_curve,
    gaussian_mode_count,
    k_anticorrelation,
    linear_mode_count,
    lorentzian_mode_count,
)
from hbtcount.modes import _lorentzian


def gaussian_overlap_quadrature(x, points=10 ** 6):
    """1/M via the triangular-window overlap integral of a Gaussian profile."""
    u = np.linspace(-x, x, points + 1)
    integrand = (1.0 - np.abs(u) / x) * np.exp(-math.pi * u ** 2)
    return np.trapezoid(integrand, u) / x


def lorentzian_overlap_quadrature(x, points=10 ** 6):
    """1/M via the triangular-window overlap of an exponential correlation."""
    u = np.linspace(-x, x, points + 1)
    integrand = (1.0 - np.abs(u) / x) * np.exp(-2.0 * np.abs(u))
    return np.trapezoid(integrand, u) / x


class TestGaussianModeCount:
    def test_zero_limit(self):
        assert gaussian_mode_count(0.0) == pytest.approx(1.0)
        assert gaussian_mode_count(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_large_x_asymptote(self):
        assert gaussian_mode_count(100.0) == pytest.approx(100.0, rel=0.01)

    def test_quadrature_oracle(self):
        for x in (0.3, 1.0, 2.7):
            oracle = 1.0 / gaussian_overlap_quadrature(x)
            assert gaussian_mode_count(x) == pytest.approx(oracle, rel=1e-6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_mode_count(-0.1)

    def test_erf_against_high_precision_references(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for i in range(25):
            z = 0.05 + 0.2 * i
            assert math.erf(z) == pytest.approx(float(mpmath.erf(z)),
                                                rel=1e-10)


class TestLorentzianModeCount:
    def test_zero_limit(self):
        assert lorentzian_mode_count(0.0) == pytest.approx(1.0)
        assert lorentzian_mode_count(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_large_x_asymptote(self):
        assert lorentzian_mode_count(100.0) == pytest.approx(100.0, rel=0.01)

    def test_anticorrelation_anchor_points(self):
        assert lorentzian_mode_count(3.6) == pytest.approx(4.1801, abs=5e-4)
        assert lorentzian_mode_count(0.216) == pytest.approx(1.1490, abs=5e-4)

    def test_quadrature_oracle(self):
        for x in (0.4, 1.3, 3.6):
            oracle = 1.0 / lorentzian_overlap_quadrature(x)
            assert lorentzian_mode_count(x) == pytest.approx(oracle, rel=1e-6)

    def test_series_crossover_continuity(self):
        threshold = 1e-4
        below = lorentzian_mode_count(threshold * (1 - 1e-9))
        above = lorentzian_mode_count(threshold * (1 + 1e-9))
        assert abs(below - above) < 1e-9
        below_g = gaussian_mode_count(threshold * (1 - 1e-9))
        above_g = gaussian_mode_count(threshold * (1 + 1e-9))
        assert abs(below_g - above_g) < 1e-9


class TestSharedProperties:
    @pytest.mark.parametrize("func", [gaussian_mode_count,
                                      lorentzian_mode_count])
    def test_monotone_and_bounded(self, func):
        xs = np.linspace(0.0, 50.0, 10 ** 4)
        values = np.array([func(x) for x in xs])
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(values >= 1.0 - 1e-12)
        assert np.all(values <= 1.0 + xs + 1e-12)
        rel = np.abs(values - (1.0 + xs)) / (1.0 + xs)
        assert rel.max() <= 0.35


class TestAsymptoticModeCount:
    def test_values(self):
        assert asymptotic_mode_count(10.0, 1.0) == pytest.approx(10.0)
        assert asymptotic_mode_count(1.0, 1.0) == pytest.approx(1.0)

    def test_matches_lorentzian_at_large_overlap(self):
        for x in (20.0, 35.0, 50.0):
            assert asymptotic_mode_count(x, 1.0) == pytest.approx(
                lorentzian_mode_count(x), rel=0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_mode_count(0.0, 1.0)


class TestCartesianModeCount:
    def test_identity(self):
        assert cartesian_mode_count(1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert cartesian_mode_count(1.5, 1.0, 1.0) == pytest.approx(1.5)

    def test_neutron_estimate(self):
        assert cartesian_mode_count(2.0, 7.0, 2.0) == pytest.approx(28.0)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            cartesian_mode_count(0.5, 2.0, 2.0)


class TestCoincidenceCurve:
    def test_boson_peak(self):
        for shape in ("gaussian", "lorentzian"):
            curve = coincidence_curve("boson", True, ModeProfile(shape),
                                      [0.0, 1.0, 1000.0])
            assert curve[0][2] == pytest.approx(2.0)
            assert curve[-1][2] == pytest.approx(1.0, abs=2e-3)

    def test_fermion_dip(self):
        curve = coincidence_curve("fermion", True, ModeProfile("lorentzian"),
                                  [0.0, 1000.0])
        assert curve[0][2] == pytest.approx(0.0, abs=1e-14)
        assert curve[-1][2] == pytest.approx(1.0, abs=2e-3)

    def test_contrast_identity(self):
        profile = ModeProfile("lorentzian")
        for x, m, k in coincidence_curve("boson", True, profile,
                                         np.linspace(0, 10, 21)):
            assert abs(k - 1.0) == pytest.approx(1.0 / m, rel=1e-12)

    def test_integer_part_rendering(self):
        profile = ModeProfile("lorentzian", integer_part=True)
        values = [m for _, m, _ in
                  coincidence_curve("boson", True, profile, [0.5, 2.3, 7.9])]
        assert all(v == int(v) for v in values)

    def test_linear_profile(self):
        assert linear_mode_count(3.0) == pytest.approx(4.0)
        profile = ModeProfile("linear-approx")
        assert profile.count(3.0) == pytest.approx(4.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            ModeProfile("triangular")


def ulps(value, exact):
    """|value - exact| in units of the last place of `exact` as a float."""
    return float(abs(value - exact) / math.ulp(float(exact)))


def lorentzian_reference(x):
    """(M, K, K/x) for the Lorentzian at x (a float, or an mpf of at most 40
    digits), K = 1 - 1/M, from the closed form in mpmath with 40 digits
    beyond the three cancellations of about -log10(x) digits each that it
    suffers as x -> 0."""
    mp = pytest.importorskip("mpmath")
    if x == 0.0:
        return mp.mpf(1), mp.mpf(0), mp.mpf(2) / 3
    with mp.workdps(40 + 3 * max(0, int(-math.log10(x)))):
        xm = mp.mpf(x)
        inv = 1 / xm - (1 - mp.exp(-2 * xm)) / (2 * xm * xm)
        return +(1 / inv), +(1 - inv), +((1 - inv) / xm)


class TestAccuracy:
    # x from 0 to 1e6, one a decade, and dense on both sides of the series
    # switch at x = 1
    LORENTZIAN_XS = [0.0, 5e-324, 1 - 2 ** -53, 1.0, 1 + 2 ** -52] + [
        float(x) for x in np.concatenate([np.geomspace(1e-300, 1e6, 307),
                                          np.linspace(0.5, 2.0, 61)])]

    @pytest.mark.parametrize("x", LORENTZIAN_XS)
    def test_lorentzian_against_mpmath(self, x):
        """M, K and K/x within 4 ulp.  Below x = 1 the series of K/x is
        summed in 22 Horner steps that each damp the rounding before them
        by 2x/(j + 4) < 1, and 1/M = 1 - xK/x adds two roundings; above it
        K is the sum of two positive terms of up to three roundings each, and
        1/M = 1/x + expm1(-2x)/(2x^2) loses under two bits to cancellation
        near x = 1.  The largest error over 26000 random x was 2.9 ulp, in M
        near x = 1.2."""
        m, k, k_over_x = lorentzian_reference(x)
        assert ulps(lorentzian_mode_count(x), m) <= 4
        if x > 0.0:  # K and K/x are 0 and 2/3 exactly at x = 0
            # 4 * pump * f is x exactly at f = 1/4
            assert ulps(k_anticorrelation(x, 0.25)[0], k) <= 4
            assert ulps(_lorentzian(x)[2], k_over_x) <= 4
        else:
            assert k_anticorrelation(0.0, 0.25)[0] == 0.0
            assert _lorentzian(0.0)[2] == 2.0 / 3.0

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-160, 1e-9, 1e-8,
                                   *np.geomspace(1e-7, 1e6, 27)])
    def test_gaussian_against_mpmath(self, x):
        """M within 6 ulp: the closed form adds erf(sqrt(pi) x)/x, near 2,
        to expm1(-pi x^2)/(pi x^2), near -1, which doubles their rounding;
        below x = 1e-8, M = 1 + pi x^2/6 rounds to 1.  The largest error
        over 200 x from 1e-7 to 1e6, 1e-160, 1e-9 and 1e-8 was 2.8 ulp."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40 + 2 * max(0, int(-math.log10(x or 1.0)))):
            xm = mp.mpf(float(x))
            exact = 1 / (mp.erf(mp.sqrt(mp.pi) * xm) / xm
                         - (1 - mp.exp(-mp.pi * xm * xm)) / (mp.pi * xm * xm)
                         ) if xm else mp.mpf(1)
            assert ulps(gaussian_mode_count(float(x)), exact) <= 6
