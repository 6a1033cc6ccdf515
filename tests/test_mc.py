import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbtcount import (
    DomainError,
    Estimate,
    SimulationConfig,
    SourceLaw,
    TernaryLaw,
    exact_correlation,
    reduce_blocks,
    sample_occupancy,
    series_moments,
    simulate_series,
    source_pmf,
    trinomial_pmf,
    verify,
)
from hbtcount.mc import _block_rng, _simulate_block

LAW = TernaryLaw(0.3, 0.2, 0.5)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("boson-polarized", modes=1, nbar=1.0),
            gates=20000, seed=11)
        a = simulate_series(cfg).as_dict()
        b = simulate_series(cfg).as_dict()
        assert a == b

    def test_seed_changes_output(self):
        base = dict(law=LAW,
                    source=SourceLaw("boson-polarized", modes=1, nbar=1.0),
                    gates=20000)
        a = simulate_series(SimulationConfig(seed=1, **base)).as_dict()
        b = simulate_series(SimulationConfig(seed=2, **base)).as_dict()
        assert a != b

    def test_reduction_independent_of_block_order(self):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=2, nbar=0.8),
            gates=12800, seed=3)
        blocks = [_simulate_block(cfg, i) for i in range(cfg.n_blocks)]
        forward = reduce_blocks(cfg, blocks)
        backward = reduce_blocks(cfg, list(reversed(blocks)))
        assert forward.k_hat.value == backward.k_hat.value
        assert forward.r_hat.value == backward.r_hat.value

    def test_block_streams_are_distinct(self):
        a = _block_rng(5, 0).integers(0, 2 ** 32, 8)
        b = _block_rng(5, 1).integers(0, 2 ** 32, 8)
        assert not np.array_equal(a, b)


class TestSampleOccupancy:
    def test_degenerate_fermion_is_constant(self):
        src = SourceLaw("fermion-polarized", modes=4, nbar=1.0)
        draws = sample_occupancy(src, _block_rng(0, 0), size=1000)
        assert np.all(draws == 4)

    def test_scalar_draw(self):
        src = SourceLaw("coherent", modes=1, nbar=1.0)
        value = sample_occupancy(src, _block_rng(1, 0))
        assert isinstance(value, int)
        assert value >= 0

    def test_single_mode_boson_matches_geometric_pmf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        draws = sample_occupancy(src, _block_rng(42, 0), size=10 ** 6)
        top = 12
        observed = np.bincount(np.minimum(draws, top), minlength=top + 1)
        probs = np.array([source_pmf(src, n) for n in range(top)])
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = ((observed - len(draws) * probs) ** 2
                / (len(draws) * probs)).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=top)
        assert p_value > 0.001

    def test_coherent_mean_within_error(self):
        src = SourceLaw("coherent", modes=3, nbar=0.5)
        draws = sample_occupancy(src, _block_rng(7, 0), size=10 ** 6)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - 1.5) < 4 * se


def _reference_components(src):
    """Tag-based component parameters that the component classes reproduce."""
    m, nb, pol = src.modes, src.nbar, src.polarization
    if src.kind == "coherent":
        return [("poisson", nb * m)]
    if src.kind == "boson-polarized":
        return [("nb", m, nb / (1.0 + nb))]
    if src.kind == "boson-unpolarized":
        return [("nb", 2 * m, nb / (2.0 + nb))]
    if src.kind == "fermion-polarized":
        return [("binom", m, nb)]
    if src.kind == "fermion-unpolarized":
        return [("binom", 2 * m, 0.5 * nb)]
    n1, n2 = 0.5 * nb * (1.0 + pol), 0.5 * nb * (1.0 - pol)
    if src.kind == "boson-partial":
        return [("nb", m, n / (1.0 + n)) for n in (n1, n2) if n > 0.0]
    return [("binom", m, n) for n in (n1, n2) if n > 0.0]


def _reference_sample(src, rng, size):
    """Poisson, geometric-matrix sum and binomial, in component order."""
    total = np.zeros(size, dtype=np.int64)
    for comp in _reference_components(src):
        if comp[0] == "poisson":
            total += rng.poisson(comp[1], size)
        elif comp[0] == "nb":
            draws = rng.geometric(1.0 - comp[2], size=(size, comp[1])) - 1
            total += draws.sum(axis=1)
        else:
            total += rng.binomial(comp[1], comp[2], size)
    return total


PINNED_SOURCES = [
    SourceLaw("coherent", modes=3, nbar=0.7),
    SourceLaw("boson-polarized", modes=3, nbar=0.7),
    SourceLaw("boson-unpolarized", modes=3, nbar=0.7),
    SourceLaw("fermion-polarized", modes=3, nbar=0.7),
    SourceLaw("fermion-unpolarized", modes=3, nbar=0.7),
] + [SourceLaw(kind, modes=3, nbar=0.7, polarization=pol)
     for kind in ("boson-partial", "fermion-partial")
     for pol in (0.0, 0.5, 1.0)]


class TestSamplerStream:
    """The occupancy stream is pinned draw for draw, not by golden numbers."""

    @pytest.mark.parametrize("src", PINNED_SOURCES, ids=repr)
    def test_matches_reference_sampler(self, src):
        draws = sample_occupancy(src, _block_rng(19, 2), size=4000)
        expected = _reference_sample(src, _block_rng(19, 2), 4000)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expected)


class TestWithinGateStructure:
    def test_counts_never_exceed_occupancy(self):
        cfg = SimulationConfig(
            law=TernaryLaw(0.45, 0.45, 0.1),
            source=SourceLaw("boson-polarized", modes=2, nbar=2.0),
            gates=5000, seed=9)
        rng = _block_rng(cfg.seed, 0)
        n = sample_occupancy(cfg.source, rng, size=cfg.gates)
        xi = rng.binomial(n, cfg.law.p)
        eta = rng.binomial(n - xi, cfg.law.q / (cfg.law.q + cfg.law.r))
        assert np.all(xi + eta <= n)
        assert np.all(xi >= 0) and np.all(eta >= 0)

    def test_joint_counts_match_mixture_pmf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        src = SourceLaw("fermion-polarized", modes=3, nbar=0.6)
        rng = _block_rng(13, 0)
        gates = 200000
        n = sample_occupancy(src, rng, size=gates)
        xi = rng.binomial(n, LAW.p)
        eta = rng.binomial(n - xi, LAW.q / (LAW.q + LAW.r))

        cells = {}
        for m in range(4):
            for k in range(4 - m):
                prob = sum(source_pmf(src, nn) * trinomial_pmf(LAW, nn, m, k)
                           for nn in range(m + k, 4))
                cells[(m, k)] = prob
        observed = np.array([np.count_nonzero((xi == m) & (eta == k))
                             for (m, k) in cells])
        expected = gates * np.array(list(cells.values()))
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=len(cells) - 1)
        assert p_value > 0.001


class TestEstimates:
    @pytest.mark.parametrize("source,target_k", [
        (SourceLaw("boson-polarized", modes=1, nbar=1.0), 2.0),
        (SourceLaw("fermion-unpolarized", modes=5, nbar=0.6), 0.9),
        (SourceLaw("coherent", modes=2, nbar=0.7), 1.0),
    ])
    def test_k_estimate_matches_analytic(self, source, target_k):
        cfg = SimulationConfig(law=LAW, source=source, gates=10 ** 6, seed=21)
        report = simulate_series(cfg)
        assert abs(report.k_hat.z_score(target_k)) <= 4.0

    def test_r_estimate_matches_exact_correlation(self):
        src = SourceLaw("boson-polarized", modes=2, nbar=1.0)
        cfg = SimulationConfig(law=LAW, source=src, gates=10 ** 6, seed=5)
        report = simulate_series(cfg)
        target = exact_correlation(LAW, src)
        assert abs(report.r_hat.z_score(target)) <= 4.0

    def test_fano_estimate(self):
        src = SourceLaw("fermion-polarized", modes=5, nbar=0.4)
        cfg = SimulationConfig(law=LAW, source=src, gates=5 * 10 ** 5, seed=2)
        report = simulate_series(cfg)
        assert abs(report.f_hat.z_score(0.6)) <= 4.0

    def test_mean_counts(self):
        src = SourceLaw("coherent", modes=1, nbar=2.0)
        cfg = SimulationConfig(law=LAW, source=src, gates=2 * 10 ** 5, seed=8)
        report = simulate_series(cfg)
        sm = series_moments(LAW, src)
        assert abs(report.mean_xi_hat.z_score(sm.mean_xi)) <= 4.0
        assert abs(report.mean_eta_hat.z_score(sm.mean_eta)) <= 4.0


class TestVerify:
    def _report(self):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("boson-polarized", modes=1, nbar=1.0),
            gates=10 ** 5, seed=4)
        return simulate_series(cfg)

    def test_passes_at_analytic_value(self):
        out = verify(self._report(), {"k": 2.0, "f": 2.0})
        assert all(entry["pass"] for entry in out.values())

    def test_fails_far_from_analytic_value(self):
        out = verify(self._report(), {"k": 3.0})
        assert not out["k"]["pass"]
        assert abs(out["k"]["z"]) > 4.0

    def test_rejects_unknown_statistic(self):
        with pytest.raises(ValueError):
            verify(self._report(), {"g2": 2.0})

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            verify(self._report(), {})

    def test_zero_stderr_scores(self):
        est = Estimate(value=1.0, stderr=0.0)
        assert est.z_score(1.0) == 0.0
        assert est.z_score(1.5) == float("inf")


class TestConfig:
    def test_rejects_too_few_gates(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
                gates=1)

    @pytest.mark.parametrize("gates", [2, 63, 64, 65, 1000, 10000, 100000])
    def test_block_partition_covers_all_gates(self, gates):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=gates)
        counts = [_simulate_block(cfg, i)[0] for i in range(cfg.n_blocks)]
        assert len(counts) == min(64, gates)
        assert sum(counts) == gates
        assert max(counts) - min(counts) <= 1
        report = simulate_series(cfg)
        assert (report.gates, report.blocks) == (gates, min(64, gates))


class TestUndefinedStatistics:
    def test_r_is_nan_without_second_detector(self):
        cfg = SimulationConfig(
            law=TernaryLaw(0.5, 0.0, 0.5),
            source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=6400, seed=1)
        report = simulate_series(cfg)
        assert math.isnan(report.r_hat.value)
        assert report.mean_eta_hat.value == 0.0

    def test_degenerate_block_fails_verify(self):
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        cfg = SimulationConfig(law=LAW, source=src, gates=6400, seed=2)
        blocks = [_simulate_block(cfg, i) for i in range(cfg.n_blocks)]
        count, s_xi, _, s_n, s_xi2, _, s_n2, _ = blocks[5]
        blocks[5] = (count, s_xi, 0, s_n, s_xi2, 0, s_n2, 0)
        report = reduce_blocks(cfg, blocks)
        assert math.isfinite(report.k_hat.value)
        assert math.isnan(report.k_hat.stderr)
        assert not verify(report, {"k": 2.0})["k"]["pass"]


KINDS = ("coherent", "boson-polarized", "boson-unpolarized", "boson-partial",
         "fermion-polarized", "fermion-unpolarized", "fermion-partial")


class TestValidDomain:
    """Anywhere in the valid domain: an honest report or a DomainError."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           log_nbar=st.floats(-3.0, 10.0),
           modes=st.integers(1, 10 ** 4),
           polarization=st.floats(0.0, 1.0),
           gates=st.integers(2, 1000),
           seed=st.integers(0, 2 ** 32))
    def test_report_is_finite_or_raises(self, kind, log_nbar, modes,
                                        polarization, gates, seed):
        nbar = 10.0 ** log_nbar
        if kind.startswith("fermion"):
            nbar = min(nbar, 1.0)
        src = SourceLaw(kind, modes=modes, nbar=nbar,
                        polarization=polarization
                        if kind.endswith("partial") else None)
        cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=seed)
        try:
            report = simulate_series(cfg)
        except DomainError:
            return
        means = (report.mean_xi_hat.value, report.mean_eta_hat.value)
        assert all(math.isfinite(m) and m >= 0.0 for m in means)
        f = report.f_hat.value
        if math.isnan(f):
            assert means == (0.0, 0.0)
        else:
            assert math.isfinite(f) and f >= 0.0
