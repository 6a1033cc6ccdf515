import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hbtcount import (
    SourceLaw,
    sources,
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
    Poisson,
    _cutoff_window,
    _lgamma,
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


FERMION_PARTIAL = SourceLaw("fermion-partial", modes=4, nbar=0.6,
                            polarization=0.5)
BOSON_PARTIAL = SourceLaw("boson-partial", modes=4, nbar=0.6,
                          polarization=0.5)


class TestPmfAtHugeCounts:
    """source_pmf gives a number or a DomainError at any count: 0 past a
    bounded support's end, built without an array, and DomainError where
    an int64 count in a component's log_pmf would wrap, or where two
    components' sum would take more terms than any window reads."""

    @pytest.mark.parametrize("src,n", [
        (SourceLaw("fermion-polarized", modes=4, nbar=0.6), 2 ** 70),
        (FERMION_PARTIAL, 10 ** 15), (FERMION_PARTIAL, 2 ** 63 - 1),
        (FERMION_PARTIAL, 2 ** 70)])
    def test_zero_past_a_bounded_support(self, src, n):
        assert source_pmf(src, n) == 0.0

    @pytest.mark.parametrize("src,n", [
        (SourceLaw("coherent"), 2 ** 63 - 1),
        (SourceLaw("coherent"), 2 ** 70),
        (SourceLaw("boson-polarized", modes=4), 2 ** 63 - 5),
        (SourceLaw("fermion-polarized", modes=2 ** 62, nbar=0.5), 2 ** 62),
        (BOSON_PARTIAL, 10 ** 15), (BOSON_PARTIAL, 2 ** 70)], ids=repr)
    def test_count_past_reach_is_domain_error(self, src, n):
        with pytest.raises(DomainError, match="count too large"):
            source_pmf(src, n)

    @pytest.mark.parametrize("src,n", [
        (SourceLaw("coherent"), 2 ** 63 - 3),
        (SourceLaw("boson-polarized", modes=4), 2 ** 63 - 6)], ids=repr)
    def test_largest_counts_in_reach_have_weights(self, src, n):
        assert source_pmf(src, n) == 0.0  # exp of a log weight near -4e20

    def test_two_component_sum_within_the_window_terms(self, monkeypatch):
        # at a cap of 10 any window reads 31 terms at most: W_30 sums 31
        monkeypatch.setattr(sources, "TRUNCATION_CAP", 10)
        assert 0.0 < source_pmf(BOSON_PARTIAL, 30) < 1.0
        with pytest.raises(DomainError, match="sums 32 terms, past the 31"):
            source_pmf(BOSON_PARTIAL, 31)

    def test_two_fermion_channels_sum_the_k_both_allow(self):
        # channel occupancies 0.45 and 0.15, four modes each
        channels = [(0.45, 4), (0.15, 4)]

        def binomial(k, a, m):
            return math.comb(m, k) * a ** k * (1 - a) ** (m - k)

        for n in range(9):
            expected = math.fsum(
                binomial(k, *channels[0]) * binomial(n - k, *channels[1])
                for k in range(max(0, n - 4), min(n, 4) + 1))
            assert source_pmf(FERMION_PARTIAL, n) == pytest.approx(
                expected, rel=1e-13)


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


class TestCutoffMass:
    @pytest.mark.parametrize("mass", [1.0, 2.0, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("src", [
        SourceLaw("coherent", nbar=2.0),
        SourceLaw("boson-partial", modes=3, nbar=1.0, polarization=0.5),
        SourceLaw("fermion-polarized", modes=4, nbar=0.5)], ids=repr)
    def test_mass_outside_the_unit_interval_is_refused(self, src, mass):
        with pytest.raises(ValueError, match=r"mass must lie in \[0, 1\)"):
            support_cutoff(src, mass)

    def test_zero_mass_is_the_vacuum(self):
        assert support_cutoff(SourceLaw("coherent", nbar=2.0), 0.0) == 0


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
        assert comp == NegBinomial(6, 0.4)


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


ONE_COMPONENT_KINDS = ["coherent", "boson-polarized", "boson-unpolarized",
                       "fermion-polarized", "fermion-unpolarized"]


@st.composite
def one_component_laws(draw):
    kind = draw(st.sampled_from(ONE_COMPONENT_KINDS))
    top = 0.0 if kind.startswith("fermion") else 3.0
    nbar = 10.0 ** draw(st.floats(-6.0, top))
    return SourceLaw(kind, modes=draw(st.integers(1, 10 ** 4)), nbar=nbar)


def _fsum_past(comp, m, end):
    """P(n > m) by math.fsum over comp's terms m + 1..end."""
    return math.fsum(np.exp(comp.log_pmf(np.arange(m + 1, end + 1))))


class TestOneComponentCutoff:
    """For one component, n* is the first count whose suffix sum over the
    terms read is within the room, found among all of them at once."""

    @pytest.mark.parametrize("src", [
        SourceLaw("coherent", nbar=1e6),
        SourceLaw("boson-polarized", modes=1, nbar=1e5)], ids=repr)
    def test_mass_past_the_cap_reads_under_two_caps(self, src, monkeypatch):
        """A law whose mass past the cap exceeds 1 - mass, and whose mean
        Cantelli's bound cannot rule out, reads its terms in doubling chunks
        to _FIRST_WINDOW past the cap, and the error's weight reuses them."""
        evaluated = []
        for law in (Poisson, NegBinomial):
            monkeypatch.setattr(law, "log_pmf", lambda comp, n,
                                f=law.log_pmf: (evaluated.append(len(n)),
                                                f(comp, n))[1])
        with pytest.raises(DomainError, match="short of"):
            support_cutoff(src)
        assert sum(evaluated) < 2.01 * TRUNCATION_CAP

    def test_window_past_the_first_chunk_is_read_in_one_pass(
            self, monkeypatch):
        """85 cells at float resolution: n* lies past the first window of
        64, so the mass past it exceeds the room, but n* is searched among
        all terms read.  The first chunk of 129 terms and one more of 65
        hold them; a second window of 129 would read a third chunk."""
        evaluated = []
        log_pmf = NegBinomial.log_pmf
        monkeypatch.setattr(NegBinomial, "log_pmf", lambda comp, n: (
            evaluated.append(len(n)), log_pmf(comp, n))[1])
        src = SourceLaw("boson-polarized", modes=3, nbar=1.5)
        window, terms = _cutoff_window(src, 2.0 ** -53, 2 ** 17 - 1)
        assert len(window) == 85
        assert evaluated == [129, 65]
        assert [len(t) for t in terms] == [194]

    @settings(max_examples=40, deadline=None)
    # n* = 36716 past the cap, found from terms read; a window of 1e4 cells
    @example(src=SourceLaw("boson-polarized", nbar=1000.0), room=2.0 ** -53,
             cap=1919)
    @example(src=SourceLaw("coherent", modes=10 ** 4, nbar=1.0), room=1e-10,
             cap=TRUNCATION_CAP)
    @given(src=one_component_laws(),
           room=st.sampled_from([2.0 ** -53, 1e-10]),
           cap=st.sampled_from([1919, 2 ** 17 - 1, TRUNCATION_CAP]))
    def test_window_ends_at_the_first_count_within_room(self, src, room, cap):
        (comp,) = src._components
        window, _ = _cutoff_window(src, room, cap)
        # the terms past 3 n* + 400 hold less than 1e-13 of room for these
        # laws; the suffix sums round, fsum does not
        slack = 1e-12
        if window is None:
            # Cantelli's bound, or the terms from the cap on, exceed room
            gap = comp.mean - cap
            var = comp.mean * (1.0 + comp.mandel_q)
            assert (gap > 0 and gap * gap / (var + gap * gap) > room
                    or _fsum_past(comp, cap, 3 * cap + 400)
                    > room * (1.0 - slack))
            return
        n_star = len(window) - 1
        assert n_star <= cap
        sample = np.unique(np.linspace(0, n_star, 20).astype(int))
        assert window[sample] == pytest.approx(
            [source_pmf(src, n) for n in sample], rel=1e-12, abs=0.0)
        end = min(3 * n_star + 400, src.max_count or math.inf)
        assert _fsum_past(comp, n_star, end) <= room * (1.0 + slack)
        if n_star > 0:
            assert _fsum_past(comp, n_star - 1, end) > room * (1.0 - slack)
            assert _cutoff_window(src, room, n_star - 1)[0] is None
        assert len(_cutoff_window(src, room, n_star)[0]) == n_star + 1


@st.composite
def two_component_laws(draw):
    kind = draw(st.sampled_from(["boson-partial", "fermion-partial"]))
    top = 0.0 if kind.startswith("fermion") else 1.5
    return SourceLaw(kind, modes=draw(st.integers(1, 100)),
                     nbar=10.0 ** draw(st.floats(-3.0, top)),
                     polarization=draw(st.floats(0.05, 0.95)))


class TestTwoComponentCutoff:
    """For two components, n* is bisected on the pair sum of the terms
    read, and W_0..W_n* is convolved from those terms, although n* may
    pass one component's held range: both against a direct window."""

    @settings(max_examples=25, deadline=None)
    # n* = 6700 and 17023 pass the 4224 terms read of the lesser channel
    @example(src=SourceLaw("boson-partial", modes=20, nbar=100.0,
                           polarization=0.5), room=2.0 ** -53, cap=2 ** 15 - 1)
    @example(src=SourceLaw("boson-partial", modes=100, nbar=100.0,
                           polarization=0.8), room=1e-10, cap=TRUNCATION_CAP)
    @given(src=two_component_laws(),
           room=st.sampled_from([2.0 ** -53, 1e-10]),
           cap=st.sampled_from([1919, 2 ** 15 - 1, TRUNCATION_CAP]))
    def test_window_ends_at_the_first_count_within_room(self, src, room, cap):
        """The reference is `_window(src, end)` at end = 2 n* + 400, by
        math.fsum.  Its sum past m only drops terms, so it bounds the mass
        past m from below.  W is log-concave, as a convolution of two
        log-concave laws, so past its mode the mass past `end` is at most
        W_end**2 / (W_(end-1) - W_end), 0 once W_end underflows; adding
        that bounds the mass from above.  n*'s pair sums and the reference
        both round each product once and sum in floats, within 1e-12 of
        room (`slack`); the terms left out of the window hold 2**-53 of
        it."""
        assert len(src._components) == 2
        window, _ = _cutoff_window(src, room, cap)
        slack = 1e-12
        if window is None:
            past = _window(src, 2 * cap + 400)[cap + 1:]
            assert math.fsum(past) > room * (1.0 - slack)
            return
        n_star = len(window) - 1
        assert n_star <= cap
        direct = _window(src, 2 * n_star + 400)
        last, before = direct[-1], direct[-2]
        assert last == 0.0 or last < before
        beyond = last * last / (before - last) if last else 0.0
        assert beyond <= 1e-13 * room
        sample = np.unique(np.linspace(0, n_star, 20).astype(int))
        assert window[sample] == pytest.approx(direct[sample], rel=1e-12,
                                               abs=0.0)
        assert math.fsum(direct[n_star + 1:]) + beyond <= room * (1.0 + slack)
        if n_star > 0:
            assert math.fsum(direct[n_star:]) > room * (1.0 - slack)
            assert _cutoff_window(src, room, n_star - 1)[0] is None
        assert len(_cutoff_window(src, room, n_star)[0]) == n_star + 1


class TestDirectWindow:
    """`_window(src, hi)` without terms convolves each component's terms to
    hi, cut after the last nonzero one, and pads with exact zeros."""

    @pytest.mark.parametrize("src,hi", [
        (SourceLaw("boson-partial", modes=2, nbar=1.0, polarization=0.5),
         20000),
        (SourceLaw("boson-partial", modes=3, nbar=0.7, polarization=0.4),
         3000),
        # past the supports' ends, 8 and 2000
        (SourceLaw("fermion-partial", modes=4, nbar=0.6, polarization=0.5),
         50),
        (SourceLaw("fermion-partial", modes=1000, nbar=0.02,
                   polarization=0.4), 2500),
    ], ids=repr)
    def test_window_is_the_untrimmed_convolution(self, src, hi):
        n = np.arange(hi + 1)
        terms = [np.exp(comp.log_pmf(n)) for comp in src._components]
        full = np.convolve(*terms)[:hi + 1]
        window = _window(src, hi)
        assert len(window) == hi + 1
        assert np.all(np.abs(window - full) <= 4 * np.spacing(full))

    def test_convolution_takes_the_nonzero_terms_only(self, monkeypatch):
        """Of 2 x 160001 terms, those past 886 and 466 underflow to 0."""
        sizes = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda a, v: (
            sizes.append(len(a) + len(v)), convolve(a, v))[1])
        src = SourceLaw("boson-partial", modes=2, nbar=1.0, polarization=0.5)
        window = _window(src, 160000)
        n = np.arange(160001)
        nonzero = sum(np.count_nonzero(np.exp(comp.log_pmf(n)))
                      for comp in src._components)
        assert sizes == [nonzero]
        assert len(window) == 160001
        assert not window[nonzero:].any()

    def test_each_component_is_read_to_its_first_zero_past_the_mean(
            self, monkeypatch):
        """Full evaluation takes 2 x 10**6 + 2 terms; each component's
        doubling chunks end once one ends in a 0.0 past its mean, within
        2 x its 887 or 467 nonzero terms + _FIRST_WINDOW."""
        read = {}
        log_pmf = NegBinomial.log_pmf

        def counted(comp, n):
            read[comp] = read.get(comp, 0) + len(n)
            return log_pmf(comp, n)

        monkeypatch.setattr(NegBinomial, "log_pmf", counted)
        src = SourceLaw("boson-partial", modes=2, nbar=1.0, polarization=0.5)
        window = _window(src, 10 ** 6)
        n = np.arange(2000)
        for comp in src._components:
            nonzero = np.count_nonzero(np.exp(log_pmf(comp, n)))
            assert nonzero < read[comp] <= 2 * nonzero + sources._FIRST_WINDOW
        assert sum(read.values()) < 2 * 10 ** 6 + 2
        assert len(window) == 10 ** 6 + 1

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("modes", [1, 2, 7, 100])
    def test_rows_are_those_of_full_evaluation(self, kind, modes):
        """Bit for bit the window of every term to hi: one component's
        terms, or two cut after their last nonzero one and convolved."""
        nbars = (0.05, 0.5, 1.0) if kind.startswith("fermion") else (
            0.05, 1.0, 40.0)
        pols = (0.0, 0.4, 1.0) if kind.endswith("partial") else (None,)
        for nbar in nbars:
            for pol in pols:
                src = SourceLaw(kind, modes=modes, nbar=nbar,
                                polarization=pol)
                for hi in (0, 1, 10, 100, 3000, 20000):
                    n = np.arange(hi + 1)
                    terms = [np.exp(comp.log_pmf(n))
                             for comp in src._components]
                    if len(terms) == 2:
                        terms = [t[:np.flatnonzero(t).max(initial=0) + 1]
                                 for t in terms]
                        full = np.zeros(hi + 1)
                        product = np.convolve(*terms)[:hi + 1]
                        full[:len(product)] = product
                    else:
                        full = terms[0]
                    assert _window(src, hi).tobytes() == full.tobytes(), (
                        src, hi)


class TestBosonOccupancyLimit:
    @pytest.mark.parametrize("nbar", [1e17, 1e100])
    @pytest.mark.parametrize("kind,channels", [
        ("boson-polarized", [(1, 1.0)]), ("boson-unpolarized", [(2, 0.5)]),
        ("boson-partial", [(1, 0.75), (1, 0.25)])])
    def test_occupancy_past_float_resolution_has_exact_moments(
            self, kind, channels, nbar):
        # (order, share of nbar) a component: mean sum(order * share) nbar
        # = nbar, Mandel Q sum(order * share**2) nbar
        src = SourceLaw(kind, modes=1, nbar=nbar, polarization=0.5
                        if kind == "boson-partial" else None)
        fm = source_factorial_moments(src)
        q = sum(order * share ** 2 for order, share in channels) * nbar
        assert fm.mean == nbar
        assert fm.mandel_q == pytest.approx(q, rel=1e-15)
        assert fm.fano == pytest.approx(1.0 + q, rel=1e-15)
        assert fm.factorial2 == pytest.approx(nbar * (nbar + q), rel=1e-15)
        assert fm.k_ratio == pytest.approx(1.0 + q / nbar, rel=1e-15)

    def test_largest_resolved_occupancy_is_finite(self):
        src = SourceLaw("boson-polarized", modes=1, nbar=1e15)
        assert math.isfinite(source_factorial_moments(src).fano)


NEG_BINOMIAL_NBARS = [5e-324, 1e-300, 1e-10, 1 / 3, 1.0, 7.0, 1e4, 2.0 ** 51,
                      1e15, 1e17, 1e100]


class TestNegBinomialFromNbar:
    """The boson component is evaluated from nbar alone: its pmf, pgf and
    draws follow the law whose mean is order * nbar, at every nbar."""

    @pytest.mark.parametrize("nbar", NEG_BINOMIAL_NBARS)
    @pytest.mark.parametrize("order", [1, 3, 1000])
    def test_log_pmf_against_mpmath(self, order, nbar):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        comp = NegBinomial(order, nbar)
        # counts 0..40 and 40 log-spaced ones up to 40 means past the mean,
        # within int64
        top = min(40 * comp.mean + 40, 2 ** 62)
        n = np.unique(np.concatenate((
            np.arange(41), np.geomspace(1, top, 40).astype(np.int64),
            [int(comp.mean)])))
        got = comp.log_pmf(n)
        # the log binomial coefficient as log_pmf forms it, an lgamma
        # difference whose rounding grows as n ln n ulps at large n
        coef = _lgamma(order + n) - math.lgamma(order) - _lgamma(n + 1)
        nb = mp.mpf(nbar)
        for k, value, c in zip(n.tolist(), got, coef):
            exact_coef = (mp.loggamma(order + k) - mp.loggamma(order)
                          - mp.loggamma(k + 1))
            exact = (exact_coef - k * mp.log1p(1 / nb)
                     - order * mp.log1p(nb))
            if exact < math.log(sys.float_info.min):
                continue  # W_n is not a normal float
            # the error of log W_n is W_n's relative error
            error = abs(float(value - exact))
            if order == 1:
                assert error <= 3e-13, k
            else:  # the coefficient's own error and a few ulps of the rest
                rest = abs(value - c) + abs(float(exact))
                assert error <= (abs(float(c - exact_coef))
                                 + 4 * 2.0 ** -53 * rest), k

    def test_pgf_from_nbar(self):
        # (1 + 1e15 * 0.5)**-3, 8e-45 to 6e-15
        value = NegBinomial(3, 1e15).pgf(0.5)
        exact = 1 / (1 + Fraction(10 ** 15) / 2) ** 3
        assert value == pytest.approx(float(exact), rel=1e-15, abs=0.0)
        assert value == pytest.approx(8e-45, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("nbar", [1e-20, 0.3, 7.0, 1e15, 1e100])
    def test_sample_draws_with_p_from_nbar(self, nbar):
        calls = []

        class Recorder:
            def negative_binomial(self, n, p, size):
                calls.append((n, p, size))
                return np.zeros(size, dtype=np.int64)

        NegBinomial(3, nbar).sample(Recorder(), 5)
        assert calls == [(3, 1.0 / (1.0 + nbar), 5)]


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

    @pytest.mark.parametrize("src,z", [
        # one component's ** or exp raises OverflowError
        (SourceLaw("boson-polarized", modes=100000, nbar=0.1), 1.5),
        (SourceLaw("coherent", modes=1, nbar=1000.0), 2.0),
        (SourceLaw("fermion-polarized", modes=100000, nbar=0.5), 1e10),
        # each component is finite (4.3e259 and 3.8e70), their product not
        (SourceLaw("boson-partial", modes=1000, nbar=0.5, polarization=0.5),
         2.2),
    ])
    def test_past_float_range_is_domain_error(self, src, z):
        with pytest.raises(DomainError, match="pgf overflows"):
            source_pgf(src, z)

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
        # <n>**2 = 1e-320 is subnormal, but Q/<n> = -1 is exact
        ("fermion-polarized", 1e-160)])
    def test_k_ratio_underflow_is_domain_error(self, kind, nbar):
        """K = 1 + Q/<n> holds wherever <n> is a normal float, <n>**2
        underflowing or not: only a subnormal <n> raises."""
        fm = source_factorial_moments(SourceLaw(kind, modes=1, nbar=nbar))
        if nbar < sys.float_info.min:
            with pytest.raises(DomainError, match=f"mean <n> = {nbar!r}"):
                fm.k_ratio
        else:
            exact = {"coherent": 1.0, "fermion-polarized": 0.0}[kind]
            assert fm.k_ratio == exact

    @pytest.mark.parametrize("nbar", [1e155, 1e300])
    def test_second_moment_overflow_is_domain_error(self, nbar):
        # <n(n-1)> = mean**2 is inf, and the Fano factor inf - inf
        with pytest.raises(DomainError,
                           match=re.escape(f"mean <n> = {nbar!r}")):
            source_factorial_moments(SourceLaw("coherent", nbar=nbar))

    @pytest.mark.parametrize("kind", KINDS)
    def test_component_mean_and_q_against_pmf_sums(self, kind):
        """Each component's mean and mean * (1 + Q) are its pmf's mean and
        variance."""
        src = SourceLaw(kind, modes=3, nbar=0.7, polarization=0.4
                        if kind.endswith("partial") else None)
        n = np.arange(400)
        for comp in src._components:
            w = np.exp(comp.log_pmf(n))
            mean = math.fsum(n * w)
            assert comp.mean == pytest.approx(mean, rel=1e-12)
            assert comp.mean * (1.0 + comp.mandel_q) == pytest.approx(
                math.fsum((n - mean) ** 2 * w), rel=1e-12)

    def test_many_mode_fermion_fano_is_exact(self):
        # <n^2> - <n>^2 at <n> = 5e14 kept about 2 digits of F
        fm = source_factorial_moments(
            SourceLaw("fermion-polarized", modes=10 ** 15, nbar=0.5))
        assert fm.fano == 0.5

    def test_boson_mean_is_exact(self):
        # nbar, not b / (1 - b) from the ratio b = nbar / (1 + nbar)
        fm = source_factorial_moments(
            SourceLaw("boson-polarized", modes=1, nbar=1e15))
        assert fm.mean == 1e15

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
