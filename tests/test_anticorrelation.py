import math

import numpy as np
import pytest

from hbtcount import (
    CascadeModel,
    DomainError,
    GateRecord,
    accidental_coincidences,
    alpha_mode_form,
    alpha_qm,
    cascade_population,
    empirical_observables,
    gate_overlap,
    k_anticorrelation,
    load_table1,
    predicted_coincidences,
    table1_report,
)
from hbtcount.anticorrelation import (
    DEFAULT_F,
    DEFAULT_GATE_RATIO,
    DEFAULT_OMEGA_RATIO,
    REFERENCE_PUMP,
)
from test_modes import lorentzian_reference, ulps

PUMPS = [0.06, 0.12, 0.18, 0.30, 0.54, 0.75, 1.00]
ALPHA_EXPECTED = [0.1211, 0.2215, 0.3056, 0.4375, 0.6094, 0.7025, 0.7756]
K_EXPECTED = [0.1297, 0.2352, 0.3217, 0.4533, 0.6152, 0.6979, 0.7608]
EXPECTED_COUNTS = {1: 2, 2: 49, 3: 64, 4: 202, 5: 455, 6: 492, 7: 367}
CALCULATED_K = {2: 12, 3: 21, 4: 91, 5: (279, 280), 6: 343, 7: 280}


class TestCascadePopulation:
    def test_rises_from_zero(self):
        assert cascade_population(0.0, 1.0, 2.0) == 0.0

    def test_closed_form_value(self):
        g1, g2, t = 1.0, 3.0, 0.5
        expected = g1 / (g2 - g1) * (math.exp(-g1 * t) - math.exp(-g2 * t))
        assert cascade_population(t, g1, g2) == pytest.approx(expected)

    def test_degenerate_rates_limit(self):
        g, t = 2.0, 0.4
        almost = cascade_population(t, g, g * (1 + 1e-9))
        exact = cascade_population(t, g, g)
        assert exact == pytest.approx(g * t * math.exp(-g * t))
        assert almost == pytest.approx(exact, rel=1e-6)

    def test_short_time_linear_rise(self):
        # for t much shorter than both lifetimes, P2 ~ gamma1 * t
        tau_s = 4.7e-9
        g2 = 1.0 / tau_s
        g1 = 0.2 * g2
        t = 0.05 * tau_s
        assert cascade_population(t, g1, g2) == pytest.approx(g1 * t, rel=0.15)

    def test_rates_past_float_range(self):
        """gamma1 t passes float range: exp gives 0 before gamma1 multiplies
        it, so the population is 0, not inf * 0 = nan."""
        assert cascade_population(2.0, 1.7e308, 1.7e308) == 0.0
        # the upper level empties at once; the lower one decays at gamma2
        assert cascade_population(2.0, 1.7e308, 1.0) == pytest.approx(
            math.exp(-2.0), rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cascade_population(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            cascade_population(0.1, 0.0, 2.0)


class TestGateOverlap:
    def test_published_value(self):
        f = gate_overlap(9.0, 4.7, DEFAULT_OMEGA_RATIO)
        assert f == pytest.approx(0.9, abs=0.005)

    def test_short_gate_limit(self):
        assert gate_overlap(1e-9, 1.0, 1.0) == pytest.approx(1e-9, rel=1e-6)

    def test_long_gate_saturates(self):
        assert gate_overlap(1e3, 1.0, 1.06) == pytest.approx(1.06)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gate_overlap(0.0, 1.0, 1.0)


class TestCascadeModel:
    def test_pump_and_overlap(self):
        model = CascadeModel(pump_rate=1e7, gate=9e-9, lifetime=4.7e-9,
                             solid_angle_ratio=1.06, gamma1=1e7)
        assert model.pump == pytest.approx(0.09)
        assert model.gamma2 == pytest.approx(1.0 / 4.7e-9)
        assert model.overlap == pytest.approx(0.9, abs=0.005)

    def test_requires_faster_second_decay(self):
        with pytest.raises(ValueError):
            CascadeModel(pump_rate=1e7, gate=9e-9, lifetime=4.7e-9,
                         solid_angle_ratio=1.06, gamma1=1e9)


class TestAlphaAndK:
    def test_alpha_values(self):
        for pump, expected in zip(PUMPS, ALPHA_EXPECTED):
            assert alpha_qm(pump, DEFAULT_F) == pytest.approx(expected,
                                                              abs=5e-5)

    def test_k_values(self):
        for pump, expected in zip(PUMPS, K_EXPECTED):
            k, _ = k_anticorrelation(pump, DEFAULT_F)
            assert k == pytest.approx(expected, abs=5e-4)

    def test_alpha_forms_agree(self):
        for pump in np.linspace(0.0, 1.6, 1000):
            direct = alpha_qm(pump, DEFAULT_F)
            via_modes, m_bar = alpha_mode_form(pump, DEFAULT_F)
            assert direct == pytest.approx(via_modes, abs=1e-12)
            assert m_bar >= 1.0

    @pytest.mark.parametrize("pump,f", [(1e200, 1.0), (1e300, 1e-10)])
    def test_mode_form_overflow_is_domain_error(self, pump, f):
        """M = ((f + Nw) / f)**2 past float range raises, as alpha_qm does:
        not an OverflowError, and not alpha = 1 at M = inf."""
        with pytest.raises(DomainError, match="overflows"):
            alpha_mode_form(pump, f)

    def test_both_monotone_in_pump(self):
        pumps = np.linspace(0.0, 1.6, 500)
        alphas = [alpha_qm(x, DEFAULT_F) for x in pumps]
        ks = [k_anticorrelation(x, DEFAULT_F)[0] for x in pumps]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_vacuum_pump_gives_perfect_anticorrelation(self):
        assert alpha_qm(0.0, DEFAULT_F) == 0.0
        k, m = k_anticorrelation(0.0, DEFAULT_F)
        assert k == pytest.approx(0.0, abs=1e-14)
        assert m == pytest.approx(1.0)

    @pytest.mark.parametrize("pump", [0.0, 5e-324, 1e-20, 1e-16, 1e-12])
    def test_relative_difference_near_vacuum_pump(self, pump):
        """alpha ~ 2 Nw/f and K ~ 2x/3 = 8 Nw f/3, so the relative
        difference tends to 100 (3 - 4f^2)/(3 + 4f^2), not to a placeholder
        0 nor to cancellation noise."""
        f = DEFAULT_F
        limit = 100.0 * (3.0 - 4.0 * f * f) / (3.0 + 4.0 * f * f)
        rec = GateRecord(row=1, pump=pump, trigger_rate=4720.0,
                         duration=1200.0, singles_r=2940, singles_t=3876,
                         measured_coincidences=6)
        row, = table1_report([rec], f=f)
        assert row["relative_difference"] == pytest.approx(limit, rel=1e-6)
        k, _ = k_anticorrelation(pump, f)
        # (to within the spacing of subnormals at Nw = 5e-324)
        assert k == pytest.approx(8.0 * pump * f / 3.0, rel=1e-6, abs=1e-322)

    def test_alpha_edge_cases(self):
        """Each gave ZeroDivisionError or nan before alpha was formed from
        Nw, f over max(Nw, f); alpha is 1 once Nw/f passes float range."""
        assert alpha_qm(0.0, 5e-324) == 0.0
        assert alpha_qm(1e-200, 1e-200) == 0.75
        assert alpha_qm(1e307, 1.7e308) == pytest.approx(
            float(exact_alpha(1e307, 1.7e308)), rel=1e-15)
        assert alpha_qm(1.0, 5e-324) == alpha_qm(1e300, 1e-300) == 1.0

    def test_gate_ratio_anchor(self):
        # the stated gate ratio reproduces the f = 0.9 convention closely
        f = gate_overlap(DEFAULT_GATE_RATIO, 1.0, DEFAULT_OMEGA_RATIO)
        assert f == pytest.approx(DEFAULT_F, abs=0.005)

    def test_rejects_negative_pump(self):
        with pytest.raises(ValueError):
            alpha_qm(-0.1, DEFAULT_F)
        with pytest.raises(ValueError):
            k_anticorrelation(-0.1, DEFAULT_F)


class TestTable:
    def test_gate_counts_match_trigger_rate(self):
        for rec in load_table1():
            assert rec.gates == round(rec.trigger_rate * rec.duration)

    def test_expected_coincidences(self):
        for row in table1_report():
            assert row["expected"] == EXPECTED_COUNTS[row["row"]]

    def test_calculated_k_mode(self):
        for row in table1_report():
            if row["row"] == 1:
                continue
            target = CALCULATED_K[row["row"]]
            if isinstance(target, tuple):
                assert row["calculated_k"] in target
            else:
                assert abs(row["calculated_k"] - target) <= 1

    def test_measured_below_expected_except_row_one(self):
        for row in table1_report():
            if row["row"] == 1:
                assert row["anomalous"]
            else:
                assert not row["anomalous"]
                assert row["measured"] < row["expected"]

    def test_alpha_and_k_columns(self):
        for row, a, k in zip(table1_report(), ALPHA_EXPECTED, K_EXPECTED):
            assert row["alpha_qm"] == pytest.approx(a, abs=5e-5)
            assert row["k_mode"] == pytest.approx(k, abs=5e-4)

    def test_empirical_mode_count_scaling(self):
        # T_obs * R_obs / (Nw)_0 is nearly constant, so M_emp tracks Nw/0.06
        for row in table1_report():
            scale = row["M_emp"] / row["Nw"]
            assert scale == pytest.approx(4.0, rel=0.15)

    def test_relative_difference_small(self):
        for row in table1_report():
            assert abs(row["relative_difference"]) < 5.0

    def test_load_from_explicit_path(self, tmp_path):
        from importlib import resources
        src = (resources.files("hbtcount.data")
               / "aspect_grangier_table1.csv").read_text()
        target = tmp_path / "table.csv"
        target.write_text(src)
        assert load_table1(str(target)) == load_table1()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_any_line_end_gives_the_same_records(self, tmp_path, newline):
        from importlib import resources
        src = (resources.files("hbtcount.data")
               / "aspect_grangier_table1.csv").read_text()
        target = tmp_path / "table.csv"
        target.write_bytes(src.replace("\n", newline).encode())
        records = load_table1()
        assert len(records) == 7
        assert load_table1(str(target)) == records

    @pytest.mark.parametrize("text, missing", [
        ("", "row, Nw, N1_per_s, T_s, n_2r, n_2t, measured_coincidences"),
        ("row,Nw,T_s,n_2r,n_2t,measured_coincidences\n"
         "1,0.06,1200,2940,3876,6\n", "N1_per_s"),
    ])
    def test_missing_columns_are_named(self, tmp_path, text, missing):
        target = tmp_path / "table.csv"
        target.write_text(text)
        with pytest.raises(ValueError, match=f"lacks column\\(s\\) {missing}$"):
            load_table1(str(target))

    @pytest.mark.parametrize("text", [
        "row,Nw,N1_per_s,T_s,n_2r,n_2t,measured_coincidences\n",
        # a short row: its last field is missing
        "row,Nw,N1_per_s,T_s,n_2r,n_2t,measured_coincidences\n"
        "1,0.06,4720,1200,2940,3876\n",
    ])
    def test_table_without_complete_rows_is_value_error(self, tmp_path,
                                                          text):
        target = tmp_path / "table.csv"
        target.write_text(text)
        with pytest.raises(ValueError):
            load_table1(str(target))


class TestGateRecord:
    REC = GateRecord(row=2, pump=0.12, trigger_rate=4770.0, duration=900.0,
                     singles_r=345600, singles_t=614700,
                     measured_coincidences=36)

    def test_accidentals(self):
        acc = accidental_coincidences(self.REC)
        assert acc == pytest.approx(
            345600 * 614700 / round(4770.0 * 900.0))

    def test_predicted_models(self):
        via_alpha = predicted_coincidences(self.REC, model="alpha_qm")
        via_k = predicted_coincidences(self.REC, model="k_mode")
        assert 0 < via_alpha <= via_k

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            predicted_coincidences(self.REC, model="semiclassical")

    def test_empirical_observables(self):
        t_obs, r_obs, m_emp = empirical_observables(self.REC)
        assert t_obs + r_obs == pytest.approx(1.0)
        assert m_emp == pytest.approx(
            t_obs * r_obs * 0.12 / REFERENCE_PUMP)

    def test_m_emp_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="reference pump 5e-324"):
            empirical_observables(self.REC, reference_pump=5e-324)

    @pytest.mark.parametrize("field", ["row", "singles_r", "singles_t",
                                       "measured_coincidences"])
    def test_counts_follow_the_count_rule(self, field):
        """A whole float count is stored as its int, a fractional or
        negative one is refused."""
        fields = dict(row=2, pump=0.12, trigger_rate=4770.0, duration=900.0,
                      singles_r=345600, singles_t=614700,
                      measured_coincidences=36)
        whole = GateRecord(**{**fields, field: float(fields[field])})
        assert whole == self.REC and type(getattr(whole, field)) is int
        for bad in (fields[field] + 0.5, -1, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be a whole"):
                GateRecord(**{**fields, field: bad})

    @pytest.mark.parametrize("field", ["trigger_rate", "duration"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_rate_and_duration_are_positive_and_finite(self, field, bad):
        fields = dict(row=2, pump=0.12, trigger_rate=4770.0, duration=900.0,
                      singles_r=345600, singles_t=614700,
                      measured_coincidences=36)
        with pytest.raises(ValueError, match=f"^{field} must be positive and "
                                             f"finite, not {bad!r}$"):
            GateRecord(**{**fields, field: bad})

    @pytest.mark.parametrize("observable, message", [
        (accidental_coincidences, "no gates recorded"),
        (empirical_observables, "no singles recorded")])
    def test_empty_record_is_domain_error(self, observable, message):
        """N1 T = 0.4 rounds to no gate, and so to no single."""
        rec = GateRecord(row=1, pump=0.1, trigger_rate=0.4, duration=1.0,
                         singles_r=0, singles_t=0, measured_coincidences=0)
        assert rec.gates == 0
        with pytest.raises(DomainError, match=message):
            observable(rec)

    def test_rejects_excess_singles(self):
        with pytest.raises(ValueError):
            GateRecord(row=1, pump=0.1, trigger_rate=10.0, duration=1.0,
                       singles_r=50, singles_t=0, measured_coincidences=0)


def exact_alpha(pump, f):
    """alpha = r (2 + r)/(1 + r)^2 at the ratio r of the floats, in mpmath
    at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        r = mp.mpf(pump) / mp.mpf(f)
        return r * (2 + r) / (1 + r) ** 2


class TestAccuracy:
    # (Nw, f) at r = Nw/f = 0 and from 1e-300 to 1e300, Nw within float range
    ALPHA_ARGS = [(r * f, f) for f in (1.0, 0.9, 1e-200, 1e200)
                  for r in [0.0, *map(float,
                                      np.geomspace(1e-300, 1e300, 121))]
                  if r == 0.0 or 0.0 < r * f < math.inf]

    @pytest.mark.parametrize("pump, f", ALPHA_ARGS)
    def test_alpha_against_mpmath(self, pump, f):
        """alpha within 6 ulp from both functions: a (a + 2b)/(a + b)^2
        takes six roundings of half an ulp, the square doubling one, after
        a or b = Nw, f over max(Nw, f) took one; they seldom add up, and the
        largest error here is 2.1 ulp."""
        mp = pytest.importorskip("mpmath")
        exact = exact_alpha(pump, f)
        if exact == 0:
            assert alpha_qm(pump, f) == 0.0
            assert alpha_mode_form(pump, f) == (0.0, 1.0)
            return
        assert ulps(alpha_qm(pump, f), exact) <= 6
        if (1 + mp.mpf(pump) / f) ** 2 < 2 ** 1024:
            assert ulps(alpha_mode_form(pump, f)[0], exact) <= 6

    @pytest.mark.parametrize("gap", [0.0, -1.0, -1e-8, -1e-16, 1e-16, 1e-12,
                                     1e-8, 1e-4, 0.1, 1.0])
    @pytest.mark.parametrize("gamma1", [1.0, 1e7, 2e8])
    def test_cascade_population_against_mpmath(self, gap, gamma1):
        """P2(t) within 1e-14 relative for gamma t <= 10 and relative gaps
        0 and 1e-16 to 1 on either side: exp(-gamma t) and expm1 carry the
        rounding of their argument times gamma t <= 10, so 10 ulp.  The
        largest error here is 7e-16."""
        mp = pytest.importorskip("mpmath")
        gamma2 = gamma1 * (1.0 + gap) if gap >= 0 else gamma1 / (1.0 - gap)
        g1, g2 = mp.mpf(gamma1), mp.mpf(gamma2)
        for gt in (1e-12, 1e-6, 0.01, 0.5, 1.0, 3.0, 10.0):
            t = gt / max(gamma1, gamma2)
            tm = mp.mpf(t)
            with mp.workdps(50):  # 16 digits cancel at a gap of 1e-16
                exact = (g1 * tm * mp.exp(-g1 * tm) if g1 == g2 else
                         g1 / (g2 - g1)
                         * (mp.exp(-g1 * tm) - mp.exp(-g2 * tm)))
            assert cascade_population(t, gamma1, gamma2) == pytest.approx(
                float(exact), rel=1e-14, abs=0.0)
        assert cascade_population(0.0, gamma1, gamma2) == 0.0

    PUMPS = [0.0, 5e-324] + [float(n) for n in np.geomspace(1e-12, 1e3, 46)]

    @pytest.mark.parametrize("f", [0.9, 0.3, 2.0])
    def test_relative_difference_against_mpmath(self, f):
        """relative_difference within 1e-12 of mpmath: rho = K/alpha carries
        the errors of K/x and alpha/a, a few ulp each, and three roundings;
        100 (2/(1 + rho) - 1) turns a relative error d of rho into at most
        50 d and adds up to 100 ulp(1) = 2.2e-14, some 1e-13 in all.  The
        largest error here is 3e-14.  At Nw = 0 and 5e-324 the exact value
        is the limit 100 (3 - 4f^2)/(3 + 4f^2) to within 1e-300."""
        mp = pytest.importorskip("mpmath")
        records = [GateRecord(row=1, pump=pump, trigger_rate=4720.0,
                              duration=1200.0, singles_r=2940,
                              singles_t=3876, measured_coincidences=6)
                   for pump in self.PUMPS]
        for pump, row in zip(self.PUMPS, table1_report(records, f=f)):
            with mp.workdps(40):
                if pump < 1e-300:
                    f2 = mp.mpf(f) ** 2
                    exact = 100 * (3 - 4 * f2) / (3 + 4 * f2)
                else:
                    alpha = exact_alpha(pump, f)
                    _, k, _ = lorentzian_reference(4 * mp.mpf(pump) * f)
                    exact = 100 * (alpha - k) / (alpha + k)
            assert abs(row["relative_difference"] - exact) <= 1e-12, pump
