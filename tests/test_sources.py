import math

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
from hbtcount.sources import KINDS, occupancy_table

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

    def test_cutoff_raises_when_mass_lies_past_the_cap(self):
        # a Poisson law of mean 3e6 puts no weight below n = 1e6
        src = SourceLaw("coherent", modes=1, nbar=3e6)
        with pytest.raises(DomainError, match="is 0.0, short of"):
            support_cutoff(src)


class TestOccupancyTable:
    SOURCES = [SourceLaw(kind, modes=3, nbar=0.7,
                         polarization=0.4 if kind.endswith("partial") else None)
               for kind in KINDS]

    @pytest.mark.parametrize("src", SOURCES, ids=repr)
    @pytest.mark.parametrize("hi", [0, 2, 5, 6, 20])
    def test_window_and_tail_match_pmf(self, src, hi):
        if src.max_count is not None and hi > src.max_count:
            return
        table = occupancy_table(src, hi)
        expected = [source_pmf(src, n) for n in range(hi + 1)]
        assert table.hi == hi
        assert list(table.window) == pytest.approx(expected, rel=1e-12,
                                                   abs=0.0)
        end = src.max_count if src.max_count is not None else hi + 200
        direct = math.fsum(source_pmf(src, n) for n in range(hi + 1, end + 1))
        assert table.tail == pytest.approx(direct, rel=1e-12, abs=0.0)
        if src.max_count == hi:
            assert table.tail == 0.0

    def test_window_below_the_mode(self):
        # W_0 and W_1 underflow to 0, yet the tail holds all the mass
        table = occupancy_table(SourceLaw("coherent", modes=1, nbar=1000.0),
                                0)
        assert table.window[0] == 0.0
        assert table.tail == pytest.approx(1.0, rel=1e-10)

    def test_rejects_window_past_bounded_support(self):
        src = SourceLaw("fermion-polarized", modes=3, nbar=0.5)
        with pytest.raises(ValueError):
            occupancy_table(src, 4)


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
