import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hbtcount import (
    SourceLaw,
    TernaryLaw,
    contrast_z,
    energy_fluctuation,
    entropy_change,
    exact_correlation,
    max_contrast_pump,
    sequence_moments,
    series_moments,
    source_factorial_moments,
    source_pmf,
    support_cutoff,
    thermal_k,
    trinomial_pmf,
)
from hbtcount import anticorrelation, elementary, modes
from hbtcount.errors import DomainError
from hbtcount.sources import KINDS, _window

LAW_A = TernaryLaw(0.3, 0.2, 0.5)
LAW_B = TernaryLaw(0.25, 0.25, 0.5)
LAW_C = TernaryLaw(0.1, 0.15, 0.75)

GRID = [
    (SourceLaw("coherent", modes=1, nbar=1.0), LAW_A),
    (SourceLaw("coherent", modes=3, nbar=0.4), LAW_B),
    (SourceLaw("boson-polarized", modes=1, nbar=1.0), LAW_C),
    (SourceLaw("boson-polarized", modes=5, nbar=0.5), LAW_A),
    (SourceLaw("boson-unpolarized", modes=2, nbar=1.0), LAW_B),
    (SourceLaw("boson-partial", modes=4, nbar=1.0, polarization=0.5), LAW_C),
    (SourceLaw("fermion-polarized", modes=1, nbar=1.0), LAW_A),
    (SourceLaw("fermion-polarized", modes=5, nbar=0.5), LAW_B),
    (SourceLaw("fermion-unpolarized", modes=3, nbar=0.8), LAW_C),
    (SourceLaw("fermion-partial", modes=4, nbar=0.6, polarization=0.5), LAW_A),
    (SourceLaw("boson-polarized", modes=20, nbar=0.1), LAW_B),
    (SourceLaw("fermion-polarized", modes=14, nbar=0.3), LAW_C),
]


def brute_force_k(src):
    """<n(n-1)> / <n>^2 by direct summation of the truncated pmf."""
    cutoff = support_cutoff(src) + 60
    mean = f2 = 0.0
    for n in range(cutoff + 1):
        w = source_pmf(src, n)
        mean += n * w
        f2 += n * (n - 1) * w
    return f2 / mean ** 2


def random_pairs(seed, count):
    """`count` seeded (law, source) pairs, the 7 kinds in turn: M = 1 or
    log-uniform up to 1000, a fermion's nbar uniform on (0, 1] and any
    other's log-uniform on [1e-3, 1e3], a partial kind's P uniform."""
    rng = random.Random(seed)
    for i in range(count):
        kind = KINDS[i % 7]
        modes = int(10 ** rng.uniform(0, 3)) if i % 2 else 1
        nbar = (1.0 - rng.random() if kind.startswith("fermion")
                else 10 ** rng.uniform(-3, 3))
        pol = rng.random() if kind.endswith("partial") else None
        p = rng.random()
        q = rng.random() * (1 - p)
        yield (TernaryLaw(p, q, max(0.0, 1 - p - q)),
               SourceLaw(kind, modes=modes, nbar=nbar, polarization=pol))


class TestSeriesMoments:
    def test_coherent_source(self):
        sm = series_moments(LAW_A, SourceLaw("coherent", modes=1, nbar=1.0))
        assert sm.k_ratio == pytest.approx(1.0)
        assert sm.r_coeff == pytest.approx(0.0, abs=1e-14)
        assert sm.fano == pytest.approx(1.0)

    def test_coherent_moments_are_exact(self):
        """F = 1, Q = 0, R = 0 and a zero covariance at every occupancy: no
        squared mean is subtracted from a raw second moment."""
        bad = []
        for modes in (1, 3, 7):
            for nbar in np.logspace(-3, 15, 1000).tolist():
                src = SourceLaw("coherent", modes=modes, nbar=nbar)
                sm = series_moments(LAW_A, src)
                got = (sm.fano, sm.mandel_q, sm.r_coeff,
                       exact_correlation(LAW_A, src))
                if got != (1.0, 0.0, 0.0, 0.0):
                    bad.append((modes, nbar, got))
        assert bad == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_weighted_sequence_moments(self, kind):
        """The series moments are the fixed-n gate's averaged over W_n: the
        means and the cross directly, the variances by the law of total
        variance, E[var | n] + var E[. | n]."""
        src = SourceLaw(kind, modes=3, nbar=0.7, polarization=0.4
                        if kind.endswith("partial") else None)
        weights = _window(src, 400)  # the mass past 400 is below 1e-100
        gates = [sequence_moments(LAW_A, n) for n in range(len(weights))]

        def average(moment):
            return math.fsum(w * moment(g) for w, g in zip(weights, gates))

        sm = series_moments(LAW_A, src)
        for mean, var, got_mean, got_var in (
                ("mean_xi", "var_xi", sm.mean_xi, sm.var_xi),
                ("mean_eta", "var_eta", sm.mean_eta, sm.var_eta)):
            first = average(lambda g: getattr(g, mean))
            second = average(lambda g: getattr(g, var) + getattr(g, mean) ** 2)
            assert got_mean == pytest.approx(first, rel=1e-10)
            assert got_var == pytest.approx(second - first ** 2, rel=1e-10)
        assert sm.cross == pytest.approx(average(lambda g: g.cross), rel=1e-10)

    def test_cross_within_4_ulp_of_exact(self):
        """cross = (p<n>)(q(<n> + Q)) within 4 ulp of pq<n>(<n> + Q) in
        exact arithmetic on the law's and the source's floats: four
        roundings of at most u = 2**-53 relative each, and an ulp exceeds
        u|cross|."""
        for law, src in random_pairs(3, 7 * 300):
            fm = source_factorial_moments(src)
            mean, nq = Fraction(fm.mean), Fraction(fm.mandel_q)
            exact = float(Fraction(law.p) * Fraction(law.q)
                          * mean * (mean + nq))
            cross = series_moments(law, src).cross
            assert abs(cross - exact) <= 4 * math.ulp(exact), (law, src)

    @pytest.mark.parametrize("p", [1e-200, 1e-160])
    def test_cross_does_not_underflow(self, p):
        # p q is 1e-400, past float range, or 1e-320, a subnormal of 4 digits
        law = TernaryLaw(p, p, 1 - 2 * p)
        exact = float(Fraction(law.p) * Fraction(law.q) * Fraction(1e150) ** 2)
        cross = series_moments(law, SourceLaw("coherent", nbar=1e150)).cross
        assert abs(cross - exact) <= 4 * math.ulp(exact)

    def test_k_ratio_against_mpmath(self):
        """K = 1 + Q/<n> against 1 + sum_i <n>_i Q_i / <n>**2 at 60 digits,
        from each component's float mean and Q.  With x = Q/<n>, |x| <= 1:
        one component's x is one rounding (its Q is Q_1 exactly), at most
        u|x| with u = 2**-53; two components' x takes six (their sum <n>,
        which enters twice, each weight <n>_i/<n>, each product with Q_i,
        the sum of two terms of one sign, and Q/<n>), at most 6u|x| to
        first order.  1 + x adds half an ulp of K.  On these draws the
        largest error is 1.45 * 2**-52 (2.23 for <n(n-1)> / <n>**2)."""
        mp = pytest.importorskip("mpmath")
        u, worst = 2.0 ** -53, 0.0
        with mp.workdps(60):
            for _, src in random_pairs(11, 7 * 400):
                comps = src._components
                mean = mp.fsum(mp.mpf(c.mean) for c in comps)
                x = mp.fsum(mp.mpf(c.mean) * c.mandel_q
                            for c in comps) / mean ** 2
                k = source_factorial_moments(src).k_ratio
                err = float(abs(k - (1 + x)))
                rounds = 1.0 if len(comps) == 1 else 6.001
                assert err <= rounds * u * abs(float(x)) + math.ulp(k) / 2, src
                worst = max(worst, err)
        assert worst <= 2 * 2.0 ** -52

    def test_coherent_count_variance_is_its_mean(self):
        sm = series_moments(LAW_A, SourceLaw("coherent", nbar=1e12))
        assert sm.var_xi == pytest.approx(3e11, rel=1e-15)
        assert sm.var_eta == pytest.approx(2e11, rel=1e-15)

    def test_single_mode_boson_bump(self):
        for nbar in (0.3, 1.0, 2.5):
            sm = series_moments(
                LAW_A, SourceLaw("boson-polarized", modes=1, nbar=nbar))
            assert sm.k_ratio == pytest.approx(2.0)

    def test_single_mode_fermion_dip(self):
        for nbar in (1.0, 0.864):
            sm = series_moments(
                LAW_A, SourceLaw("fermion-polarized", modes=1, nbar=nbar))
            assert sm.k_ratio == 0.0

    def test_partial_boson_closed_form(self):
        src = SourceLaw("boson-partial", modes=4, nbar=1.0, polarization=0.5)
        sm = series_moments(LAW_B, src)
        assert sm.k_ratio == pytest.approx(1.15625, rel=1e-10)
        assert sm.k_ratio == pytest.approx(brute_force_k(src), rel=1e-8)

    def test_mean_and_variance_forms(self):
        src = SourceLaw("boson-polarized", modes=2, nbar=0.7)
        sm = series_moments(LAW_A, src)
        assert sm.mean_xi == pytest.approx(0.3 * 1.4)
        assert sm.var_xi > 0.0
        assert sm.cross >= 0.0

    def test_rejects_degenerate_law(self):
        with pytest.raises(ValueError):
            series_moments(TernaryLaw(0.0, 0.4, 0.6),
                           SourceLaw("coherent", modes=1, nbar=1.0))

    @pytest.mark.parametrize("src,law", GRID)
    def test_unifying_identity(self, src, law):
        sm = series_moments(law, src)
        assert sm.k_ratio == pytest.approx(brute_force_k(src), rel=1e-8,
                                           abs=1e-10)

    @pytest.mark.parametrize("src,law", GRID)
    def test_k_independent_of_law(self, src, law):
        other = LAW_B if law is not LAW_B else LAW_A
        k1 = series_moments(law, src).k_ratio
        k2 = series_moments(other, src).k_ratio
        assert k1 == pytest.approx(k2, abs=1e-12)

    @pytest.mark.parametrize("src,law", GRID)
    def test_sign_law(self, src, law):
        sm = series_moments(law, src)
        signs = {math.copysign(1.0, v) if abs(v) > 1e-13 else 0.0
                 for v in (sm.k_ratio - 1.0, sm.fano - 1.0, sm.r_coeff)}
        assert len(signs) == 1

    def test_thermal_closed_forms_consistency(self):
        boson = SourceLaw("boson-polarized", modes=5, nbar=0.5)
        assert series_moments(LAW_A, boson).k_ratio == pytest.approx(
            thermal_k("boson", 5, polarized=True), rel=1e-12)
        fermion = SourceLaw("fermion-unpolarized", modes=3, nbar=0.8)
        assert series_moments(LAW_A, fermion).k_ratio == pytest.approx(
            thermal_k("fermion", 3, polarized=False), rel=1e-12)


class TestCoherentFactorization:
    def test_mixed_moments_factorize(self):
        src = SourceLaw("coherent", modes=1, nbar=1.0)
        law = LAW_A
        cutoff = support_cutoff(src) + 20
        # joint pmf of (xi, eta) over the truncated mixture
        joint = {}
        for n in range(cutoff + 1):
            w = source_pmf(src, n)
            for m in range(n + 1):
                for k in range(n + 1 - m):
                    joint[(m, k)] = joint.get((m, k), 0.0) + \
                        w * trinomial_pmf(law, n, m, k)

        def moment(a, b):
            return sum((m ** a) * (k ** b) * v for (m, k), v in joint.items())

        for a in (1, 2):
            for b in (1, 2):
                assert abs(moment(a, b) - moment(a, 0) * moment(0, b)) < 1e-8


class TestThermalK:
    def test_boson_single_mode(self):
        assert thermal_k("boson", 1, polarized=True) == 2.0

    def test_fermion_scintillator_modes(self):
        assert thermal_k("fermion", 14, polarized=False) == pytest.approx(
            1.0 - 1.0 / 28.0)

    def test_large_mode_limit(self):
        assert thermal_k("boson", 1e6, polarized=True) == pytest.approx(
            1.0 + 1e-6)

    def test_real_valued_modes(self):
        assert thermal_k("boson", 2.5, polarized=True) == pytest.approx(1.4)

    def test_rejects_nonpositive_modes(self):
        with pytest.raises(ValueError):
            thermal_k("boson", 0.0, polarized=True)

    def test_rejects_negative_fermion_k(self):
        with pytest.raises(ValueError):
            thermal_k("fermion", 0.4, polarized=False)

    @pytest.mark.parametrize("statistics", ["coherent", "Boson", ""])
    def test_rejects_other_statistics(self, statistics):
        with pytest.raises(ValueError, match="'boson' or 'fermion'"):
            thermal_k(statistics, 2.0, polarized=True)


class TestEnergyFluctuation:
    def test_boson_single_mode(self):
        assert energy_fluctuation("boson", 1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_fermion_degenerate(self):
        # fully occupied: E = h*nu*M, fluctuation vanishes
        assert energy_fluctuation("fermion", 5.0, 1.0, 5.0) == pytest.approx(0.0)

    def test_boson_many_modes(self):
        assert energy_fluctuation("boson", 100.0, 1.0, 1000.0) == \
            pytest.approx(110.0)

    def test_fermion_occupancy_bound(self):
        with pytest.raises(ValueError):
            energy_fluctuation("fermion", 10.0, 1.0, 5.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            energy_fluctuation("boson", -1.0, 1.0, 1.0)

    @pytest.mark.parametrize("statistics", ["coherent", "Fermion", ""])
    def test_rejects_other_statistics(self, statistics):
        with pytest.raises(ValueError, match="'boson' or 'fermion'"):
            energy_fluctuation(statistics, 1.0, 1.0, 1.0)

    def test_overflow_is_domain_error(self):
        # E**2 / M = 1e400 is past float range
        with pytest.raises(DomainError, match="overflows float range"):
            energy_fluctuation("boson", 1e200, 1.0, 1.0)

    def test_full_fermion_band_past_the_square_of_e(self):
        # E**2 would overflow, E * (E / M) does not: a full band, no noise
        assert energy_fluctuation("fermion", 1e200, 1.0, 1e200) == 0.0


class TestMaxContrast:
    def test_value(self):
        assert max_contrast_pump(3.0) == pytest.approx(0.5)

    def test_limit_from_above(self):
        assert max_contrast_pump(1.0 + 1e-9) < 1.0

    def test_rejects_low_occupancy(self):
        with pytest.raises(ValueError):
            max_contrast_pump(1.0)

    def test_round_trip_reaches_unit_correlation(self):
        mean = 3.0
        s = max_contrast_pump(mean)
        p = q = s / 2.0
        law = TernaryLaw(p, q, 1.0 - p - q)
        src = SourceLaw("boson-polarized", modes=1, nbar=mean)
        sm = series_moments(law, src)
        assert sm.r_coeff == pytest.approx(1.0, abs=1e-10)


class TestEntropyChange:
    def test_unit_occupancy(self):
        assert entropy_change(1.0) == pytest.approx(2.0 * math.log(2.0),
                                                    abs=1e-12)

    def test_small_occupancy_limit(self):
        assert entropy_change(1e-9) < 1e-7

    def test_three_quanta(self):
        assert entropy_change(3.0) == pytest.approx(
            4.0 * math.log(4.0) - 3.0 * math.log(3.0))

    def test_domain(self):
        # a mean that is not positive is an invalid argument
        with pytest.raises(ValueError) as info:
            entropy_change(0.0)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("decade", range(-300, 309, 7))
    def test_against_mpmath(self, decade):
        """Within 2.2e-16 relative from 1e-300 to 1e308: no difference of
        two terms that overflow or cancel at large means (1e16 gave 0.0,
        1e308 nan), with enough digits in mpmath to hold n ln n to the
        last bit."""
        mp = pytest.importorskip("mpmath")
        mean = 10.0 ** decade
        with mp.workdps(30 + abs(decade)):
            n = mp.mpf(mean)
            exact = (1 + n) * mp.log1p(n) - n * mp.log(n)
            assert abs(entropy_change(mean) - exact) <= 2.2e-16 * exact


class TestContrastZ:
    def test_scintillator_counts(self):
        assert contrast_z(994, 960) == pytest.approx(994.0 / 34.0)

    def test_gas_detector_counts(self):
        assert contrast_z(34720, 34480) == pytest.approx(34720.0 / 240.0)

    def test_no_dip(self):
        assert contrast_z(100, 0) == pytest.approx(1.0)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            contrast_z(100, 100)


class TestExactCorrelation:
    def test_coherent_uncorrelated(self):
        assert exact_correlation(
            LAW_A, SourceLaw("coherent", modes=1, nbar=1.0)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_fixed_occupancy_matches_sequence(self):
        # n pinned at M reduces the series to a single 20-act sequence
        from hbtcount import sequence_r
        src = SourceLaw("fermion-polarized", modes=20, nbar=1.0)
        assert exact_correlation(LAW_A, src) == pytest.approx(
            sequence_r(LAW_A), rel=1e-12)

    def test_against_mpmath(self):
        """Q sqrt(p/(1 + pQ)) sqrt(q/(1 + qQ)) against 60 digits, from the
        law's p and q and the source's float Q.  With u = 2**-53: pQ rounds
        once, and 1 + pQ once more, the first weighed by c = |pQ|/(1 + pQ);
        p/(1 + pQ) adds one, (c + 2)u; its square root halves that and adds
        one, (c/2 + 2)u, and likewise for q; the two products add 2u.  The
        relative error is (6 + (c_p + c_q)/2)u to first order, below as
        many ulp, since an ulp exceeds u|R|."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            for law, src in random_pairs(11, 7 * 400):
                nq = mp.mpf(source_factorial_moments(src).mandel_q)
                p, q = mp.mpf(law.p), mp.mpf(law.q)
                if nq == 0:
                    continue
                exact = nq * mp.sqrt(p * q / ((1 + p * nq) * (1 + q * nq)))
                ulps = 6.001 + float(abs(p * nq) / (1 + p * nq)
                                     + abs(q * nq) / (1 + q * nq)) / 2
                err = float(abs(exact_correlation(law, src) - exact))
                assert err <= ulps * math.ulp(float(exact)), (law, src)

    @pytest.mark.parametrize("nbar", [0.9, 0.999, 0.99999])
    def test_fermion_near_unit_occupancy_against_mpmath(self, nbar):
        """Fermion-polarized at nbar = p, where pQ tends to -1: 1 + pQ,
        formed as (1 - p) + p(1 + Q), sums two non-negative terms of at
        most 2u error each, 3u in all (u = 2**-53).  So var_xi = (p<n>)(1 +
        pQ) is within 5u, and R within 8u: each of p/(1 + pQ) and q/(1 + qQ)
        4u, each square root 3u, and two products.  An ulp exceeds u|x|.
        1 + pQ formed from a rounded p*Q would put R 64 ulp off at 0.999."""
        mp = pytest.importorskip("mpmath")
        src = SourceLaw("fermion-polarized", modes=1, nbar=nbar)
        fm = source_factorial_moments(src)
        for q in (0.5, 0.3, 1e-6):
            law = TernaryLaw(nbar, q * (1.0 - nbar), (1.0 - q) * (1.0 - nbar))
            with mp.workdps(60):
                nq, mean = mp.mpf(fm.mandel_q), mp.mpf(fm.mean)
                p, q = mp.mpf(law.p), mp.mpf(law.q)
                r = nq * mp.sqrt(p * q / ((1 + p * nq) * (1 + q * nq)))
                var_xi = p * mean * (1 + p * nq)
            for got, exact, ulps in (
                    (exact_correlation(law, src), r, 8),
                    (series_moments(law, src).var_xi, var_xi, 5)):
                err = float(abs(got - exact))
                assert err <= ulps * math.ulp(float(exact)), (law, got)

    def test_bounded_by_one(self):
        for src, law in GRID:
            assert abs(exact_correlation(law, src)) <= 1.0 + 1e-12


NAN = math.nan
CASCADE = (1e4, 1e-8, 5e-9, 0.5, 1e7)  # CascadeModel's fields in order
GATE_ROW = (2, 0.12, 4770.0, 900.0, 345600, 614700, 36)  # GateRecord's
NAN_CALLS = [
    (thermal_k, ("boson", NAN, True)),
    (energy_fluctuation, ("boson", NAN, 1.0, 1.0)),
    (energy_fluctuation, ("boson", 1.0, NAN, 1.0)),
    (energy_fluctuation, ("fermion", 1.0, 1.0, NAN)),
    (max_contrast_pump, (NAN,)),
    (entropy_change, (NAN,)),
    (contrast_z, (NAN, 0.0)),
    (contrast_z, (100.0, NAN)),
    (modes.asymptotic_mode_count, (NAN, 1.0)),
    (modes.asymptotic_mode_count, (1.0, NAN)),
    (modes.cartesian_mode_count, (NAN, 1.0, 1.0)),
    (modes.cartesian_mode_count, (1.0, 1.0, NAN)),
    (anticorrelation.alpha_qm, (NAN, 1.0)),
    (anticorrelation.alpha_qm, (1.0, NAN)),
    (anticorrelation.alpha_mode_form, (NAN, 1.0)),
    (anticorrelation.alpha_mode_form, (1.0, NAN)),
    (anticorrelation.k_anticorrelation, (1.0, NAN)),
    (anticorrelation.gate_overlap, (NAN, 1.0, 1.0)),
    (anticorrelation.gate_overlap, (1.0, 1.0, NAN)),
    (anticorrelation.cascade_population, (NAN, 1.0, 2.0)),
    (anticorrelation.cascade_population, (1.0, NAN, 2.0)),
    (anticorrelation.cascade_population, (1.0, 1.0, NAN)),
    *((anticorrelation.CascadeModel, CASCADE[:i] + (NAN,) + CASCADE[i + 1:])
      for i in range(len(CASCADE))),
    (elementary.sequence_gf, (LAW_A, 3, NAN, 0.5)),
    (elementary.sequence_gf, (LAW_A, 3, 0.5, NAN)),
    # the n-taking helpers, whose counts `elementary._count` checks
    (trinomial_pmf, (LAW_A, NAN, 0, 0)),
    (elementary.sequence_gf, (LAW_A, NAN, 0.5, 0.5)),
    (elementary.sequence_moments, (LAW_A, NAN)),
    (elementary.sequence_k, (NAN,)),
    (source_pmf, (SourceLaw("coherent"), NAN)),
    # a run-table row's rate and duration
    *((anticorrelation.GateRecord, GATE_ROW[:i] + (NAN,) + GATE_ROW[i + 1:])
      for i in (2, 3)),
]


@pytest.mark.parametrize("func,args", NAN_CALLS, ids=[
    f"{func.__name__}{i}" for i, (func, _) in enumerate(NAN_CALLS)])
def test_nan_is_refused(func, args):
    """A nan argument fails each helper's range test, as an invalid
    argument (ValueError, not DomainError), never a nan result."""
    with pytest.raises(ValueError) as info:
        func(*args)
    assert type(info.value) is ValueError


INF = math.inf
INF_CALLS = [
    (energy_fluctuation, ("boson", INF, 1.0, INF)),
    (energy_fluctuation, ("boson", INF, 1.0, 1.0)),
    (energy_fluctuation, ("boson", 1.0, INF, 1.0)),
    (energy_fluctuation, ("fermion", INF, 1.0, INF)),
    (energy_fluctuation, ("fermion", 1.0, 1.0, INF)),
    (entropy_change, (INF,)),
    (contrast_z, (INF, 0.0)),
    (contrast_z, (INF, 100.0)),
    (anticorrelation.alpha_qm, (INF, 1.0)),
    (anticorrelation.alpha_qm, (1.0, INF)),
    (anticorrelation.alpha_mode_form, (INF, INF)),
    (anticorrelation.alpha_mode_form, (INF, 1.0)),
    (anticorrelation.alpha_mode_form, (1.0, INF)),
    (anticorrelation.cascade_population, (1.0, INF, 2.0)),
    (anticorrelation.cascade_population, (INF, 1.0, 2.0)),
    (anticorrelation.CascadeModel, (INF,) + CASCADE[1:]),
    (anticorrelation.gate_overlap, (1.0, 1.0, INF)),
    (modes.cartesian_mode_count, (INF, 1.0, 1.0)),
    (modes.asymptotic_mode_count, (INF, 1.0)),
    # the n-taking helpers: a count is never truncated, nor inf an
    # OverflowError
    (trinomial_pmf, (LAW_A, INF, 0, 0)),
    (elementary.sequence_gf, (LAW_A, INF, 0.5, 0.5)),
    (elementary.sequence_moments, (LAW_A, INF)),
    (elementary.sequence_k, (INF,)),
    (source_pmf, (SourceLaw("coherent"), INF)),
    *((anticorrelation.GateRecord, GATE_ROW[:i] + (INF,) + GATE_ROW[i + 1:])
      for i in (2, 3)),
]


@pytest.mark.parametrize("func,args", INF_CALLS, ids=[
    f"{func.__name__}{i}" for i, (func, _) in enumerate(INF_CALLS)])
def test_inf_is_refused(func, args):
    """An inf argument fails each helper's range test as nan does: a
    ratio or difference of infinities would give nan."""
    with pytest.raises(ValueError) as info:
        func(*args)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("func,args", [
    (modes.cartesian_mode_count, (1e200, 1e200, 1.0)),
    (modes.asymptotic_mode_count, (1e200, 1e200)),
    (anticorrelation.CascadeModel, (1e200, 1e200, 1e-300, 1.0, 1.0)),
    (anticorrelation.GateRecord, (2, 0.12, 1e300, 1e10, 0, 0, 0)),
    (anticorrelation.k_anticorrelation, (1e308, 10.0)),
    (thermal_k, ("boson", 5e-324, True)),
    (thermal_k, ("boson", 5e-324, False)),
    # a gate of n acts: the cross moment, a power past 1 and lgamma(n + 1)
    (elementary.sequence_moments, (LAW_A, 10 ** 200)),
    (elementary.sequence_moments, (LAW_A, 10 ** 400)),
    (elementary.sequence_gf, (LAW_A, 10 ** 200, 1 + 1e-15, 1 + 1e-15)),
    (elementary.sequence_gf, (LAW_A, 10 ** 400, 1 + 1e-15, 1 + 1e-15)),
    (trinomial_pmf, (LAW_A, 10 ** 400, 0, 0)),
])
def test_overflow_of_finite_inputs_is_domain_error(func, args):
    """Finite inputs whose product passes float range raise DomainError,
    as `energy_fluctuation` does, never an inf result."""
    with pytest.raises(DomainError, match="overflows float range"):
        func(*args)


@pytest.mark.parametrize("args", [(5e-324, 1.0, 5e-324), (5e-324, 1.0, 0.4),
                                  (1e-300, 1e10, 1e-30)])
def test_underflow_of_positive_inputs_is_domain_error(args):
    """A gate overlap f of positive inputs whose product underflows to 0
    raises DomainError, not the invalid-argument error f = 0 meets later."""
    with pytest.raises(DomainError, match="underflows to 0"):
        anticorrelation.gate_overlap(*args)
