import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hbtcount import (
    SimulationConfig,
    SourceLaw,
    TernaryLaw,
    sequence_gf,
    sequence_k,
    sequence_moments,
    sequence_r,
    simulate_series,
    trinomial_pmf,
)
from hbtcount.elementary import _count

LAW = TernaryLaw(0.3, 0.2, 0.5)


def laws():
    return st.tuples(
        st.floats(min_value=0.01, max_value=0.95),
        st.floats(min_value=0.01, max_value=0.95),
    ).filter(lambda pq: pq[0] + pq[1] <= 0.99).map(
        lambda pq: TernaryLaw(pq[0], pq[1], 1.0 - pq[0] - pq[1]))


class TestTernaryLaw:
    def test_renormalizes_small_deviation(self):
        law = TernaryLaw(0.3 + 2e-10, 0.2, 0.5)
        assert abs(law.p + law.q + law.r - 1.0) <= 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1e-9, 1e-9))
    def test_renormalized_sum_is_one_to_rounding(self, p, q, deviation):
        """Three correctly rounded quotients of their float total sum to 1
        within a few ulp, for any inputs the constructor accepts."""
        r = 1.0 - p - q + deviation
        assume(0.0 <= r <= 1.0 and abs(p + q + r - 1.0) <= 1e-9)
        law = TernaryLaw(p, q, r)
        assert abs(law.p + law.q + law.r - 1.0) <= 1e-15

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            TernaryLaw(0.3, 0.2, 0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TernaryLaw(-0.1, 0.6, 0.5)

    def test_split_ratios(self):
        assert LAW.s == pytest.approx(0.5)
        assert LAW.t_transmit + LAW.t_reflect == pytest.approx(1.0)

    def test_split_ratios_never_exceed_one(self):
        # 1 - r rounds below p here, so p / (1 - r) would be 1 + 2.2e-16
        assert TernaryLaw(0.1, 0.0, 0.9).t_transmit == 1.0
        assert TernaryLaw(0.1, 0.0, 0.9).t_reflect == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_split_ratios_sum_to_one(self, p, q):
        if p + q == 0.0:
            return
        law = TernaryLaw(p / (1.0 + p + q), q / (1.0 + p + q),
                         1.0 / (1.0 + p + q))
        t, u = law.t_transmit, law.t_reflect
        assert 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0
        assert t + u == pytest.approx(1.0, rel=2 ** -52, abs=0.0)

    def test_split_undefined_when_never_fires(self):
        degenerate = TernaryLaw(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            degenerate.t_transmit


class TestTrinomialPmf:
    def test_single_act(self):
        assert trinomial_pmf(LAW, 1, 1, 0) == pytest.approx(0.3)

    def test_two_acts_one_each(self):
        assert trinomial_pmf(LAW, 2, 1, 1) == pytest.approx(0.12)

    def test_normalization(self):
        total = sum(trinomial_pmf(LAW, 5, m, k)
                    for m in range(6) for k in range(6 - m))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            trinomial_pmf(LAW, 2, 2, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            trinomial_pmf(LAW, 2, -1, 1)

    def test_large_n_no_overflow(self):
        value = trinomial_pmf(LAW, 10 ** 6, 300000, 200000)
        assert 0.0 <= value <= 1.0

    def test_degenerate_law_zero_q(self):
        law = TernaryLaw(0.4, 0.0, 0.6)
        assert trinomial_pmf(law, 3, 1, 1) == 0.0
        assert trinomial_pmf(law, 3, 1, 0) == pytest.approx(3 * 0.4 * 0.36)


class TestGeneratingFunction:
    def test_unity_at_one_one(self):
        for n in (0, 1, 7, 200):
            assert sequence_gf(LAW, n, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_arguments(self):
        assert sequence_gf(LAW, 3, 0.0, 0.0) == pytest.approx(0.125)

    def test_empty_sequence(self):
        assert sequence_gf(LAW, 0, 0.3, -0.7) == 1.0

    def test_gate_past_float_range(self):
        n = 10 ** 400
        assert sequence_gf(LAW, n, 1.0, 1.0) == 1.0
        assert sequence_gf(LAW, n, 0.5, 0.5) == 0.0
        assert sequence_gf(TernaryLaw(1.0, 0.0, 0.0), n + 1, -1.0, 0.5) == -1.0
        assert math.copysign(1.0, sequence_gf(
            TernaryLaw(1.0, 0.0, 0.0), n + 1, -0.5, 0.5)) == -1.0

    def test_rejects_outside_unit_disk(self):
        with pytest.raises(ValueError):
            sequence_gf(LAW, 2, 1.5, 0.0)

    def test_derivative_matches_mean(self):
        n = 17
        h = 1e-6
        deriv = (sequence_gf(LAW, n, 1.0, 1.0)
                 - sequence_gf(LAW, n, 1.0 - h, 1.0)) / h
        mean = sequence_moments(LAW, n).mean_xi
        assert deriv == pytest.approx(mean, rel=1e-4)


class TestSequenceMoments:
    def test_closed_forms(self):
        sm = sequence_moments(LAW, 10)
        assert sm.mean_xi == pytest.approx(3.0)
        assert sm.var_xi == pytest.approx(2.1)
        assert sm.cross == pytest.approx(5.4)

    def test_empty_sequence(self):
        sm = sequence_moments(LAW, 0)
        assert sm.mean_xi == sm.var_xi == sm.cross == 0.0
        assert math.copysign(1.0, sm.cross) == 1.0

    def test_cross_within_4_ulp_of_exact(self):
        rng = random.Random(3)
        for _ in range(2000):
            p, q = rng.random(), rng.random()
            law = TernaryLaw(p, q * (1 - p), 1 - p - q * (1 - p))
            n = int(10 ** rng.uniform(0, 30))
            exact = float(Fraction(law.p) * Fraction(law.q) * n * (n - 1))
            cross = sequence_moments(law, n).cross
            assert abs(cross - exact) <= 4 * math.ulp(exact), (law, n)

    def test_cross_does_not_underflow(self):
        law = TernaryLaw(1e-200, 1e-200, 1 - 2e-200)
        assert sequence_moments(law, 10 ** 200).cross == pytest.approx(1.0)

    def test_against_exhaustive_summation(self):
        n = 50
        mean = var = cross = 0.0
        for m in range(n + 1):
            for k in range(n + 1 - m):
                w = trinomial_pmf(LAW, n, m, k)
                mean += m * w
                var += m * m * w
                cross += m * k * w
        var -= mean * mean
        sm = sequence_moments(LAW, n)
        assert sm.mean_xi == pytest.approx(mean, rel=1e-10)
        assert sm.var_xi == pytest.approx(var, rel=1e-10)
        assert sm.cross == pytest.approx(cross, rel=1e-10)

    @given(law=laws(), n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_moments_match_pmf_summation(self, law, n):
        mean = cross = 0.0
        for m in range(n + 1):
            for k in range(n + 1 - m):
                w = trinomial_pmf(law, n, m, k)
                mean += m * w
                cross += m * k * w
        sm = sequence_moments(law, n)
        assert sm.mean_xi == pytest.approx(mean, rel=1e-10, abs=1e-12)
        assert sm.cross == pytest.approx(cross, rel=1e-10, abs=1e-12)


class TestSequenceK:
    @pytest.mark.parametrize("n,expected", [(1, 0.0), (2, 0.5), (100, 0.99)])
    def test_values(self, n, expected):
        assert sequence_k(n) == pytest.approx(expected)

    def test_undefined_for_empty_gate(self):
        with pytest.raises(ValueError):
            sequence_k(0)

    def test_gate_past_float_range(self):
        assert sequence_k(10 ** 200) == sequence_k(10 ** 400) == 1.0

    @given(n=st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=30)
    def test_always_below_one(self, n):
        assert sequence_k(n) < 1.0


class TestSequenceR:
    def test_binary_limit(self):
        assert sequence_r(TernaryLaw(0.5, 0.5, 0.0)) == pytest.approx(-1.0)

    def test_closed_form(self):
        assert sequence_r(TernaryLaw(0.25, 0.25, 0.5)) == pytest.approx(-1.0 / 3.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            sequence_r(TernaryLaw(0.0, 0.4, 0.6))

    def test_against_mpmath(self):
        """-sqrt(p/(1-p)) sqrt(q/(1-q)) against 60 digits over seeded laws,
        p and q log-uniform down to 1e-150.  With u = 2**-53: pQ = -p is
        exact, and 1 - p rounds once; p/(1 - p) adds one, 2u; its square
        root halves that and adds one, 2u, and likewise for q; the one
        product adds u (-1 times the first root is exact).  The relative
        error is 5u to first order, below 5 ulp, since an ulp exceeds
        u|R|."""
        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        with mp.workdps(60):
            for i in range(4000):
                p = rng.random() if i % 2 else 10 ** rng.uniform(-150, 0)
                q = (rng.random() if i % 3 else 10 ** rng.uniform(-150, 0))
                law = TernaryLaw(p, q * (1 - p), max(0.0, 1 - p - q * (1 - p)))
                if not 0.0 < law.q:
                    continue
                lp, lq = mp.mpf(law.p), mp.mpf(law.q)
                exact = -mp.sqrt(lp * lq / ((1 - lp) * (1 - lq)))
                err = float(abs(sequence_r(law) - exact))
                assert err <= 5.001 * math.ulp(float(exact)), law

    @given(law=laws())
    @settings(max_examples=50)
    def test_range(self, law):
        r = sequence_r(law)
        assert -1.0 <= r < 0.0

    def test_monte_carlo_agreement(self):
        # a fully occupied polarized fermion source pins n = 20 per gate
        law = TernaryLaw(0.3, 0.2, 0.5)
        cfg = SimulationConfig(
            law=law, source=SourceLaw("fermion-polarized", modes=20, nbar=1.0),
            gates=10 ** 6, seed=7)
        report = simulate_series(cfg)
        target = sequence_r(law)
        z = report.r_hat.z_score(target)
        assert abs(z) <= 3.0


class TestCountRule:
    """`_count`, the one test of whether a value is a count."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3),
                                       3.0, np.float32(3.0)])
    def test_whole_numbers_give_their_int(self, value):
        count = _count(value, "n")
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("value", [2.5, math.inf, -math.inf, math.nan,
                                       "3", None, Fraction(3), np.array(3)])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValueError, match="^n must be a whole number >= 0"):
            _count(value, "n")

    def test_range_is_half_open(self):
        assert _count(2, "gates", 2, 4) == 2
        assert _count(2 ** 64 - 1, "seed", 0, 2 ** 64) == 2 ** 64 - 1
        for value in (1, 4, 2 ** 70):
            with pytest.raises(ValueError,
                               match=r"^gates must be a whole number in "
                                     rf"\[2, 4\), not {value}$"):
                _count(value, "gates", 2, 4)
        # a float past 2**63 is whole and compared exactly, not truncated
        with pytest.raises(ValueError):
            _count(2.0 ** 64, "seed", 0, 2 ** 64)
