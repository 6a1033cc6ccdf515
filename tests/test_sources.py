import math
import re

import pytest

from hbtcount import (
    SourceLaw,
    poisson_tv_distance,
    source_factorial_moments,
    source_pgf,
    source_pmf,
    support_cutoff,
)
from hbtcount.errors import DomainError
from hbtcount.sources import (
    KINDS,
    TRUNCATION_CAP,
    TRUNCATION_MASS,
    NegBinomial,
    _cutoff_window,
    _window,
)

BOSON_GRID = [(m, nb) for m in (1, 2, 5, 20) for nb in (0.1, 0.5, 1.0, 2.0)]
FERMION_GRID = [(m, nb) for m in (1, 2, 5, 20) for nb in (0.1, 0.5, 1.0)]


def series_pgf(src, z, cutoff=None):
    cutoff = cutoff if cutoff is not None else support_cutoff(src) + 40
    return sum(source_pmf(src, n) * z ** n for n in range(cutoff + 1))


class TestConstruction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceLaw("squeezed")

    def test_rejects_fermion_overfull(self):
        with pytest.raises(ValueError):
            SourceLaw("fermion-polarized", modes=3, nbar=1.2)

    def test_rejects_nonpositive_nbar(self):
        with pytest.raises(ValueError):
            SourceLaw("boson-polarized", modes=1, nbar=0.0)

    def test_partial_requires_polarization(self):
        with pytest.raises(ValueError):
            SourceLaw("boson-partial", modes=2, nbar=1.0)

    def test_polarization_only_for_partial(self):
        with pytest.raises(ValueError):
            SourceLaw("boson-polarized", modes=2, nbar=1.0, polarization=0.3)

    def test_fermion_support_bounds(self):
        assert SourceLaw("fermion-polarized", modes=3, nbar=0.5).max_count == 3
        assert SourceLaw("fermion-unpolarized", modes=3, nbar=0.5).max_count == 6
        assert SourceLaw("boson-polarized", modes=3, nbar=0.5).max_count is None


class TestPmf:
    def test_coherent_vacuum(self):
        src = SourceLaw("coherent", modes=1, nbar=1.0)
        assert source_pmf(src, 0) == pytest.approx(math.exp(-1.0))

    def test_single_mode_boson_is_geometric(self):
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        for n in range(12):
            assert source_pmf(src, n) == pytest.approx(0.5 ** (n + 1))

    def test_unpolarized_equals_partial_at_zero_polarization(self):
        for m, nb in ((1, 0.5), (3, 1.0), (5, 2.0)):
            unpol = SourceLaw("boson-unpolarized", modes=m, nbar=nb)
            partial = SourceLaw("boson-partial", modes=m, nbar=nb,
                                polarization=0.0)
            for n in range(51):
                assert source_pmf(unpol, n) == pytest.approx(
                    source_pmf(partial, n), abs=1e-12)

    def test_fermion_unpolarized_equals_partial_at_zero(self):
        unpol = SourceLaw("fermion-unpolarized", modes=4, nbar=0.6)
        partial = SourceLaw("fermion-partial", modes=4, nbar=0.6,
                            polarization=0.0)
        for n in range(9):
            assert source_pmf(unpol, n) == pytest.approx(
                source_pmf(partial, n), abs=1e-12)

    def test_polarized_equals_partial_at_full_polarization(self):
        pol = SourceLaw("boson-polarized", modes=3, nbar=0.8)
        partial = SourceLaw("boson-partial", modes=3, nbar=0.8,
                            polarization=1.0)
        for n in range(30):
            assert source_pmf(pol, n) == pytest.approx(
                source_pmf(partial, n), abs=1e-12)
        pol_f = SourceLaw("fermion-polarized", modes=3, nbar=0.8)
        partial_f = SourceLaw("fermion-partial", modes=3, nbar=0.8,
                              polarization=1.0)
        for n in range(4):
            assert source_pmf(pol_f, n) == pytest.approx(
                source_pmf(partial_f, n), abs=1e-12)

    def test_fermion_degenerate_full(self):
        src = SourceLaw("fermion-polarized", modes=3, nbar=1.0)
        assert source_pmf(src, 3) == pytest.approx(1.0)
        assert source_pmf(src, 2) == 0.0

    def test_weight_is_zero_past_a_bounded_support(self):
        src = SourceLaw("fermion-partial", modes=2, nbar=0.5,
                        polarization=0.3)
        assert source_pmf(src, 5) == 0.0
        assert list(_window(src, 7)[5:]) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m,nb", BOSON_GRID)
    def test_boson_normalization(self, m, nb):
        for kind in ("coherent", "boson-polarized", "boson-unpolarized"):
            src = SourceLaw(kind, modes=m, nbar=nb)
            cutoff = support_cutoff(src)
            total = sum(source_pmf(src, n) for n in range(cutoff + 1))
            assert total >= 1.0 - 1e-10

    @pytest.mark.parametrize("m,nb", FERMION_GRID)
    def test_fermion_normalization(self, m, nb):
        for kind in ("fermion-polarized", "fermion-unpolarized"):
            src = SourceLaw(kind, modes=m, nbar=nb)
            total = sum(source_pmf(src, n)
                        for n in range(support_cutoff(src) + 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_partial_normalization(self):
        src = SourceLaw("boson-partial", modes=4, nbar=1.0, polarization=0.5)
        total = sum(source_pmf(src, n) for n in range(support_cutoff(src) + 1))
        assert total >= 1.0 - 1e-10

    @pytest.mark.parametrize("m,nb", BOSON_GRID)
    def test_cutoff_is_minimal(self, m, nb):
        for kind, pol in (("coherent", None), ("boson-polarized", None),
                          ("boson-unpolarized", None), ("boson-partial", 0.5)):
            src = SourceLaw(kind, modes=m, nbar=nb, polarization=pol)
            cutoff = support_cutoff(src)
            short = math.fsum(source_pmf(src, n) for n in range(cutoff))
            assert short < TRUNCATION_MASS

    def test_cutoff_raises_when_mass_lies_past_the_cap(self):
        # a Poisson law of mean 3e6 puts no weight below n = 1e6
        src = SourceLaw("coherent", modes=1, nbar=3e6)
        with pytest.raises(DomainError, match="is 0.0, short of"):
            support_cutoff(src)

    def test_two_component_cutoff_raises_without_convolving(self):
        # channel means 2.25e6 and 7.5e5 leave 0.17 of the weight below
        # n = 1e6; convolving two 1e6-term windows takes about 1e12 steps
        src = SourceLaw("boson-partial", modes=1, nbar=3e6, polarization=0.5)
        with pytest.raises(DomainError, match=r"is 0\.17\d*, short of"):
            support_cutoff(src)


def _mp_window(src, hi):
    """W_0..W_hi from the source's definition in mpmath: one law per
    polarization channel, convolved term by term, no merged components."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m, nb = src.modes, mp.mpf(src.nbar)
    if src.kind == "coherent":
        mu = nb * m
        return [mp.exp(-mu) * mu ** n / mp.factorial(n) for n in range(hi + 1)]
    family, suffix = src.kind.split("-")
    pol = {"polarized": 1, "unpolarized": 0}.get(suffix, src.polarization)
    channels = []
    for mean in (nb * (1 + mp.mpf(pol)) / 2, nb * (1 - mp.mpf(pol)) / 2):
        if mean == 0:
            continue
        if family == "boson":
            b = mean / (1 + mean)
            channels.append([mp.binomial(m + n - 1, n) * (1 - b) ** m * b ** n
                             for n in range(hi + 1)])
        else:
            channels.append([mp.binomial(m, n) * mean ** n
                             * (1 - mean) ** (m - n) if n <= m else mp.mpf(0)
                             for n in range(hi + 1)])
    if len(channels) == 1:
        return channels[0]
    first, second = channels
    return [mp.fsum(first[k] * second[n - k] for k in range(n + 1))
            for n in range(hi + 1)]


MP_SOURCES = [
    (SourceLaw("coherent", modes=100, nbar=0.5), 120),
    (SourceLaw("boson-polarized", modes=100, nbar=1.0), 300),
    (SourceLaw("boson-unpolarized", modes=5, nbar=4.0), 150),
    (SourceLaw("boson-partial", modes=100, nbar=1.0, polarization=0.5), 300),
    (SourceLaw("boson-partial", modes=3, nbar=10.0, polarization=0.0), 200),
    (SourceLaw("fermion-polarized", modes=100, nbar=0.7), 100),
    (SourceLaw("fermion-unpolarized", modes=20, nbar=0.3), 40),
    (SourceLaw("fermion-partial", modes=100, nbar=0.6, polarization=0.3), 200),
]


class TestAgainstMpmath:
    """W_n against an independent high-precision evaluation; values below
    the normal double range are held to an absolute 1e-300."""

    @pytest.mark.parametrize("src,hi", MP_SOURCES, ids=repr)
    def test_window(self, src, hi):
        expected = [float(w) for w in _mp_window(src, hi)]
        assert list(_window(src, hi)) == pytest.approx(expected, rel=1e-12,
                                                       abs=1e-300)

    @pytest.mark.parametrize("src,hi", MP_SOURCES, ids=repr)
    def test_source_pmf(self, src, hi):
        expected = _mp_window(src, hi)
        for n in range(0, hi + 1, 7):
            assert source_pmf(src, n) == pytest.approx(
                float(expected[n]), rel=1e-12, abs=1e-300)


def _mp_tail(src, n):
    """P(N > n) in mpmath at 40 digits: the regularized incomplete gamma
    function for a Poisson law, the incomplete beta function for a negative
    binomial of order M; unpolarized bosons are one of order 2M at nbar/2,
    and partial bosons the sum of two of order M, one per channel."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    m, nb = src.modes, mp.mpf(src.nbar)
    if src.kind == "coherent":
        return mp.gammainc(n + 1, 0, m * nb, regularized=True)
    if src.kind == "boson-unpolarized":
        m, nb = 2 * m, nb / 2
    if src.kind == "boson-partial":
        pol = mp.mpf(src.polarization)
        b1, b2 = (c / (1 + c) for c in (nb * (1 + pol) / 2,
                                        nb * (1 - pol) / 2))
        return 1 - mp.fsum(
            mp.binomial(m + k - 1, k) * (1 - b1) ** m * b1 ** k
            * (1 - mp.betainc(n - k + 1, m, 0, b2, regularized=True))
            for k in range(n + 1))
    return mp.betainc(n + 1, m, 0, nb / (1 + nb), regularized=True)


CUTOFF_CASES = [
    # a float running sum of W_n from n = 0 stopped at 10641 and 17757
    (SourceLaw("coherent", modes=100, nbar=100.0), TRUNCATION_MASS, 10643),
    (SourceLaw("boson-polarized", modes=100, nbar=100.0), TRUNCATION_MASS,
     17769),
    (SourceLaw("boson-polarized", modes=20, nbar=100.0), 1 - 1e-12, 6932),
    (SourceLaw("boson-polarized", modes=1, nbar=100.0), 1 - 1e-12, 2776),
    # P(n > 40) = 1.115e-16 against 1 - mass = 1.110e-16; that float sum
    # never reaches this mass
    (SourceLaw("boson-unpolarized", modes=2, nbar=1.0), 1 - 1e-16, 41),
    # float resolution, the Monte Carlo occupancy tables' truncation: one
    # component, and two convolved
    (SourceLaw("coherent", modes=3, nbar=0.7), 1 - 2 ** -53, 23),
    (SourceLaw("boson-polarized", modes=1, nbar=0.7), 1 - 2 ** -53, 41),
    (SourceLaw("boson-partial", modes=3, nbar=0.7, polarization=0.4),
     1 - 2 ** -53, 39),
]


class TestCutoffAgainstMpmath:
    """support_cutoff is the first n* with P(n > n*) <= 1 - mass, with
    P(n > n*) from mpmath's incomplete gamma and beta functions."""

    @pytest.mark.parametrize("src,mass,cutoff", CUTOFF_CASES, ids=repr)
    def test_cutoff_matches_mpmath_tails(self, src, mass, cutoff):
        room = 1 - pytest.importorskip("mpmath").mpf(mass)
        assert _mp_tail(src, cutoff) <= room < _mp_tail(src, cutoff - 1)
        assert support_cutoff(src, mass) == cutoff


class TestCutoffWork:
    def test_mass_past_the_cap_stops_each_tail_at_its_first_chunk(
            self, monkeypatch):
        """Each component's terms past a window stop once its own mass
        there exceeds 1 - mass, so the windows read about 1e6 terms a
        component, not the 3e6 that the last one may."""
        evaluated = []
        log_pmf = NegBinomial.log_pmf
        monkeypatch.setattr(NegBinomial, "log_pmf", lambda comp, n: (
            evaluated.append(len(n)), log_pmf(comp, n))[1])
        src = SourceLaw("boson-partial", modes=1, nbar=3e6, polarization=0.5)
        with pytest.raises(DomainError, match="short of"):
            support_cutoff(src)
        assert sum(evaluated) < 2.01 * TRUNCATION_CAP

    @pytest.mark.parametrize("nbar", [1e150, 1e300])
    def test_mean_past_the_cap_reads_no_term(self, nbar):
        """Cantelli's bound fails the window at once, also where the square
        of the Poisson mean overflows."""
        window, terms = _cutoff_window(SourceLaw("coherent", nbar=nbar),
                                       2.0 ** -53, 2 ** 17 - 1)
        assert window is None
        assert [len(t) for t in terms] == [0]


class TestFamilies:
    """Polarized kinds are P = 1 and unpolarized kinds P = 0 of the partial
    kinds, with two equal channels merged into one component."""

    @pytest.mark.parametrize("family", ["boson", "fermion"])
    @pytest.mark.parametrize("nb", [1e-9, 0.3, 0.7, 1.0])
    def test_kinds_are_partial_at_the_ends(self, family, nb):
        for suffix, pol in (("polarized", 1.0), ("unpolarized", 0.0)):
            kind = SourceLaw(f"{family}-{suffix}", modes=3, nbar=nb)
            partial = SourceLaw(f"{family}-partial", modes=3, nbar=nb,
                                polarization=pol)
            assert kind._components == partial._components
            assert len(kind._components) == 1

    def test_unpolarized_is_one_component_of_twice_the_order(self):
        src = SourceLaw("boson-unpolarized", modes=3, nbar=0.8)
        (comp,) = src._components
        assert comp.order == 6
        assert comp.b == 0.8 / 2.8


class TestCutoffWindow:
    """The truncation of support_cutoff and of the Monte Carlo occupancy
    tables, on bounded and unbounded supports alike: W_0..W_n* for the
    first n* whose mass past it is within the room, when n* is within the
    cap."""

    SOURCES = [SourceLaw(kind, modes=3, nbar=0.7,
                         polarization=0.4 if kind.endswith("partial") else None)
               for kind in KINDS] + [
        # a support of 2001 counts, cut off past about 66
        SourceLaw("fermion-partial", modes=1000, nbar=0.02, polarization=0.4)]

    @pytest.mark.parametrize("src", SOURCES, ids=repr)
    @pytest.mark.parametrize("room", [2.0 ** -53, 1e-12, 1e-6, 0.01, 0.3])
    def test_window_ends_at_the_first_count_within_room(self, src, room):
        window, _ = _cutoff_window(src, room, TRUNCATION_CAP)
        n_star = len(window) - 1
        assert list(window) == pytest.approx(
            [source_pmf(src, n) for n in range(n_star + 1)], rel=1e-12,
            abs=0.0)
        # the terms past n* + 200 underflow to 0
        end = min(n_star + 200, src.max_count or math.inf)

        def past(n):
            return math.fsum(source_pmf(src, k) for k in range(n + 1, end + 1))

        assert past(n_star) <= room < past(n_star - 1)
        assert len(_cutoff_window(src, room, n_star)[0]) == n_star + 1
        if n_star > 0:
            assert _cutoff_window(src, room, n_star - 1)[0] is None


class TestBosonOccupancyLimit:
    @pytest.mark.parametrize("kind", ["boson-polarized", "boson-unpolarized",
                                      "boson-partial"])
    def test_ratio_rounding_to_one_is_domain_error(self, kind):
        src = SourceLaw(kind, modes=1, nbar=1e17, polarization=0.5
                        if kind == "boson-partial" else None)
        with pytest.raises(DomainError, match="rounds to 1"):
            source_factorial_moments(src)

    def test_largest_resolved_occupancy_is_finite(self):
        src = SourceLaw("boson-polarized", modes=1, nbar=1e15)
        assert math.isfinite(source_factorial_moments(src).fano)


class TestChannelUnderflow:
    @pytest.mark.parametrize("kind,pol", [
        ("boson-unpolarized", None), ("fermion-unpolarized", None),
        ("boson-partial", 0.5), ("fermion-partial", 0.0)])
    def test_vanishing_channel_is_domain_error(self, kind, pol):
        # 0.5 * nbar rounds to 0 at the smallest subnormal nbar
        src = SourceLaw(kind, modes=2, nbar=5e-324, polarization=pol)
        with pytest.raises(DomainError, match="channel occupancy"):
            source_factorial_moments(src)

    def test_polarized_channel_is_kept(self):
        src = SourceLaw("boson-partial", modes=2, nbar=5e-324,
                        polarization=1.0)
        assert len(src._components) == 1


class TestPgf:
    def test_normalization_at_one(self):
        for src in (SourceLaw("coherent", modes=2, nbar=0.7),
                    SourceLaw("boson-unpolarized", modes=3, nbar=1.2),
                    SourceLaw("fermion-partial", modes=2, nbar=0.5,
                              polarization=0.4)):
            assert source_pgf(src, 1.0) == pytest.approx(1.0)

    def test_pgf_at_zero_is_vacuum_weight(self):
        src = SourceLaw("fermion-polarized", modes=2, nbar=0.5)
        assert source_pgf(src, 0.0) == pytest.approx(0.25)

    def test_matches_series_summation(self):
        src = SourceLaw("boson-polarized", modes=3, nbar=0.8)
        assert source_pgf(src, 0.7) == pytest.approx(
            series_pgf(src, 0.7), abs=1e-10)

    def test_domain_error_outside_radius(self):
        src = SourceLaw("boson-polarized", modes=1, nbar=3.0)
        with pytest.raises(DomainError):
            source_pgf(src, 1.5)

    @pytest.mark.parametrize("src", [
        SourceLaw("coherent", modes=2, nbar=0.7),
        SourceLaw("boson-polarized", modes=3, nbar=0.8),
        SourceLaw("boson-partial", modes=2, nbar=1.0, polarization=0.6),
        SourceLaw("fermion-unpolarized", modes=4, nbar=0.5),
    ])
    def test_derivatives_match_moments(self, src):
        h = 1e-5
        fm = source_factorial_moments(src)
        d1 = (source_pgf(src, 1.0 + h) - source_pgf(src, 1.0 - h)) / (2 * h)
        d2 = (source_pgf(src, 1.0 + h) - 2 * source_pgf(src, 1.0)
              + source_pgf(src, 1.0 - h)) / h ** 2
        assert d1 == pytest.approx(fm.mean, rel=1e-4)
        assert d2 == pytest.approx(fm.factorial2, rel=1e-4, abs=1e-6)


class TestFactorialMoments:
    @pytest.mark.parametrize("kind,nbar", [
        ("coherent", 1e-200), ("boson-polarized", 5e-324),
        # <n>**2 = 1e-320 is subnormal: K would keep 4 digits
        ("fermion-polarized", 1e-160)])
    def test_k_ratio_underflow_is_domain_error(self, kind, nbar):
        fm = source_factorial_moments(SourceLaw(kind, modes=1, nbar=nbar))
        with pytest.raises(DomainError, match=f"mean <n> = {nbar!r}"):
            fm.k_ratio

    @pytest.mark.parametrize("nbar", [1e155, 1e300])
    def test_second_moment_overflow_is_domain_error(self, nbar):
        # <n(n-1)> = mean**2 is inf, and the Fano factor inf - inf
        with pytest.raises(DomainError,
                           match=re.escape(f"mean <n> = {nbar!r}")):
            source_factorial_moments(SourceLaw("coherent", nbar=nbar))

    @pytest.mark.parametrize("kind", KINDS)
    def test_component_variance(self, kind):
        src = SourceLaw(kind, modes=3, nbar=0.7, polarization=0.4
                        if kind.endswith("partial") else None)
        for comp in src._components:
            mean, f2 = comp.mean_f2()
            assert comp.variance() == pytest.approx(f2 + mean - mean * mean,
                                                    rel=1e-12)

    def test_k_ratio_near_underflow_keeps_its_digits(self):
        # <n>**2 = 1e-300 is still a normal float
        fm = source_factorial_moments(
            SourceLaw("boson-polarized", modes=3, nbar=1e-150 / 3))
        assert fm.k_ratio == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_single_mode_boson(self):
        fm = source_factorial_moments(SourceLaw("boson-polarized", modes=1, nbar=2.0))
        assert fm.mean == pytest.approx(2.0)
        assert fm.fano == pytest.approx(3.0)

    def test_fermion_binomial(self):
        fm = source_factorial_moments(
            SourceLaw("fermion-polarized", modes=5, nbar=0.4))
        assert fm.mean == pytest.approx(2.0)
        assert fm.fano == pytest.approx(0.6)

    def test_coherent_is_poissonian(self):
        fm = source_factorial_moments(SourceLaw("coherent", modes=4, nbar=0.25))
        assert fm.mean == pytest.approx(1.0)
        assert fm.fano == pytest.approx(1.0)
        assert fm.mandel_q == pytest.approx(0.0)

    def test_partial_against_pmf_summation(self):
        src = SourceLaw("boson-partial", modes=4, nbar=1.0, polarization=0.5)
        cutoff = 200
        f2 = sum(n * (n - 1) * source_pmf(src, n) for n in range(cutoff + 1))
        fm = source_factorial_moments(src)
        assert fm.factorial2 == pytest.approx(f2, rel=1e-8)

    def test_factorial2_identity(self):
        for src in (SourceLaw("boson-unpolarized", modes=2, nbar=1.0),
                    SourceLaw("fermion-partial", modes=3, nbar=0.5,
                              polarization=0.2)):
            fm = source_factorial_moments(src)
            assert fm.factorial2 == pytest.approx(fm.second - fm.mean)
            assert fm.factorial2 >= 0.0


class TestPoissonLimit:
    def test_coherent_distance_is_zero(self):
        assert poisson_tv_distance(
            SourceLaw("coherent", modes=7, nbar=0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_boson_limit(self):
        distances = [poisson_tv_distance(
            SourceLaw("boson-polarized", modes=m, nbar=1.0 / m))
            for m in (10, 100, 1000, 10000)]
        assert distances[-1] < 1e-3
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_fermion_limit(self):
        distances = [poisson_tv_distance(
            SourceLaw("fermion-polarized", modes=m, nbar=1.0 / m))
            for m in (100, 10000)]
        assert distances[-1] < 1e-3
        assert distances[0] > distances[-1]
