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

    def test_rejects_excess_singles(self):
        with pytest.raises(ValueError):
            GateRecord(row=1, pump=0.1, trigger_rate=10.0, duration=1.0,
                       singles_r=50, singles_t=0, measured_coincidences=0)
