import math
import tracemalloc
import warnings
from fractions import Fraction

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
from hbtcount import mc
from hbtcount.mc import (
    _occupancy_histograms,
    _occupancy_table,
    _row_split,
    _simulate_blocks,
    _thin_per_gate,
    _thinned_sums,
    _trinomial_table,
)

LAW = TernaryLaw(0.3, 0.2, 0.5)
ZERO_PROBABILITY_LAWS = [TernaryLaw(0.5, 0.0, 0.5), TernaryLaw(0.5, 0.5, 0.0),
                         TernaryLaw(1.0, 0.0, 0.0)]


def _rng(seed, word=0):
    """A Philox generator keyed (seed, word); a run's stream is word 0."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, word], dtype=np.uint64)))


def _block_sizes(cfg):
    g, b = cfg.gates, cfg.n_blocks
    return np.array([(i + 1) * g // b - i * g // b for i in range(b)])


def _run_occupancy(cfg):
    """The run's stream after its occupancy draw, and the gates per block
    and occupancy it drew."""
    rng = _rng(cfg.seed)
    return rng, _occupancy_histograms(rng, _occupancy_table(cfg),
                                      _block_sizes(cfg))


def _gate_sums(rng, law, n, split):
    """(xi, eta, xi**2, eta**2, xi*eta) of each gate, drawn by
    `_thinned_sums` with one block per gate of occupancy n."""
    occupancy = np.eye(int(n.max()) + 1, dtype=np.int64)[n]
    return _thinned_sums(rng, law, occupancy, split)


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
        blocks = _simulate_blocks(cfg)
        forward = reduce_blocks(cfg, blocks)
        backward = reduce_blocks(cfg, list(reversed(blocks)))
        assert forward.k_hat.value == backward.k_hat.value
        assert forward.r_hat.value == backward.r_hat.value

    @pytest.mark.parametrize("kind,modes,nbar,gates,path", [
        ("fermion-polarized", 2, 0.5, 12800, "table"),
        ("boson-polarized", 1, 1.0, 64000, "split"),
        ("coherent", 1, 1e7, 6400, "per-gate"),
    ])
    def test_repeat_is_byte_identical(self, kind, modes, nbar, gates, path):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw(kind, modes=modes, nbar=nbar),
            gates=gates, seed=11)
        if path == "per-gate":
            assert _occupancy_table(cfg) is None
        else:
            _, occupancy = _run_occupancy(cfg)
            top = occupancy.shape[1] - 1
            assert (_row_split(occupancy) == top) == (path == "table")
        first = repr(simulate_series(cfg).as_dict())
        assert repr(simulate_series(cfg).as_dict()) == first
        assert repr(reduce_blocks(cfg, _simulate_blocks(cfg)).as_dict()) \
            == first


class TestSampleOccupancy:
    def test_degenerate_fermion_is_constant(self):
        src = SourceLaw("fermion-polarized", modes=4, nbar=1.0)
        draws = sample_occupancy(src, _rng(0, 0), size=1000)
        assert np.all(draws == 4)

    def test_scalar_draw(self):
        src = SourceLaw("coherent", modes=1, nbar=1.0)
        value = sample_occupancy(src, _rng(1, 0))
        assert isinstance(value, int)
        assert value >= 0

    def test_single_mode_boson_matches_geometric_pmf(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        draws = sample_occupancy(src, _rng(42, 0), size=10 ** 6)
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
        draws = sample_occupancy(src, _rng(7, 0), size=10 ** 6)
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
        draws = sample_occupancy(src, _rng(19, 2), size=4000)
        expected = _reference_sample(src, _rng(19, 2), 4000)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expected)


class TestOccupancyHistogram:
    @pytest.mark.parametrize("src", PINNED_SOURCES, ids=repr)
    def test_coarse_window_matches_pmf(self, src, monkeypatch):
        scipy_stats = pytest.importorskip("scipy.stats")
        # a window ending at the mean puts a large share in the tail cell
        monkeypatch.setattr(mc, "_WINDOW_SIGMAS", 0.0)
        gates = 200000
        cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=23)
        table = _occupancy_table(cfg)
        hi = table.hi
        assert hi == 3  # the mean is 2.1
        _, per_block = _run_occupancy(cfg)
        # every tail gate is booked to the block that drew it
        assert np.array_equal(per_block.sum(axis=1), _block_sizes(cfg))
        occupancy = per_block.sum(axis=0)
        assert occupancy[-1] > 0
        assert (occupancy[hi + 1:].sum() > 0) == (table.tail > 0)

        pmf = [source_pmf(src, n) for n in range(len(occupancy))]
        # cells from `last` on are pooled, keeping 5 expected gates or more
        last = next(n for n in range(len(pmf))
                    if gates * (1.0 - sum(pmf[:n + 1])) < 5.0)
        expected = gates * np.append(pmf[:last], 1.0 - sum(pmf[:last]))
        observed = np.append(occupancy[:last], occupancy[last:].sum())
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=len(expected) - 1)
        assert p_value > 0.001

    @pytest.mark.parametrize("seed", [5, 2 ** 64 - 1])
    def test_wide_window_draws_per_gate(self, seed):
        """Block after block, sample_occupancy then the per-gate thinning,
        on one Philox stream keyed by the whole 64-bit seed."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1e7),
            gates=6400, seed=seed)
        assert _occupancy_table(cfg) is None
        rng = _rng(seed)
        expected = []
        for _ in range(64):
            n = sample_occupancy(cfg.source, rng, 100)
            xi, eta = _thin_per_gate(rng, LAW, n)
            sums = (xi.sum(), eta.sum(), n.sum(), xi @ xi, eta @ eta, n @ n,
                    xi @ eta)
            expected.append((100, *map(int, sums)))
        assert _simulate_blocks(cfg) == expected


class TestWithinGateStructure:
    """The thinning draws, run on the same occupancies."""

    def test_counts_never_exceed_occupancy(self, monkeypatch):
        # one gate per block, thinned in many groups of blocks
        monkeypatch.setattr(mc, "_GROUP_COST", 1000)
        law = TernaryLaw(0.45, 0.45, 0.1)
        src = SourceLaw("boson-polarized", modes=2, nbar=2.0)
        n = sample_occupancy(src, _rng(9, 0), size=5000)
        xi, eta = _thin_per_gate(_rng(9, 1), law, n)
        assert np.all(xi + eta <= n)
        assert np.all(xi >= 0) and np.all(eta >= 0)
        top = int(n.max())
        for split in (0, top // 2, top):
            sums = _gate_sums(_rng(9, 2), law, n, split)
            xi, eta = sums[:, 0], sums[:, 1]
            assert np.all(xi + eta <= n)
            assert np.all(xi >= 0) and np.all(eta >= 0)
            # one gate per block: the moment sums are the gate's moments
            assert np.array_equal(sums[:, 2:], np.stack(
                [xi * xi, eta * eta, xi * eta], axis=1))

    @pytest.mark.parametrize("split", [None, 0, 1, 3])
    def test_joint_counts_match_mixture_pmf(self, split):
        """The (xi, eta) cells of per-gate thinning (split None), and of
        `_thinned_sums` with rows 0..split drawn as histograms: with split
        1, the gates with n = 0, 1 go one way and n = 2, 3 the other."""
        scipy_stats = pytest.importorskip("scipy.stats")
        src = SourceLaw("fermion-polarized", modes=3, nbar=0.6)
        rng = _rng(13, 0)
        gates = 200000
        n = sample_occupancy(src, rng, size=gates)
        if split is None:
            xi, eta = _thin_per_gate(rng, LAW, n)
        else:
            sums = _gate_sums(rng, LAW, n, split)
            xi, eta = sums[:, 0], sums[:, 1]

        cells = {}
        for m in range(4):
            for k in range(4 - m):
                prob = sum(source_pmf(src, nn) * trinomial_pmf(LAW, nn, m, k)
                           for nn in range(m + k, 4))
                cells[(m, k)] = prob
        expected = gates * np.array(list(cells.values()))
        observed = np.array([np.count_nonzero((xi == m) & (eta == k))
                             for (m, k) in cells])
        assert observed.sum() == gates
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=len(cells) - 1)
        assert p_value > 0.001

    def test_paths_agree_on_block_sums(self):
        src = SourceLaw("boson-polarized", modes=2, nbar=1.0)
        n = sample_occupancy(src, _rng(17, 0), size=200000)
        xi, eta = _thin_per_gate(_rng(17, 1), LAW, n)
        top = int(n.max())
        histogram = _thinned_sums(_rng(17, 2), LAW, np.bincount(n)[None, :],
                                  top)[0]
        for column, per_gate in enumerate(
                (xi, eta, xi * xi, eta * eta, xi * eta)):
            # Given n, each path's sum has variance sum_k c_k Var(term | k)
            var = sum(per_gate[n == k].var() * np.count_nonzero(n == k)
                      for k in np.unique(n))
            diff = int(per_gate.sum()) - int(histogram[column])
            assert abs(diff) <= 5.0 * math.sqrt(2.0 * var)

    @pytest.mark.parametrize("kind,gates,split", [
        # occupancies up to 7, thinned as histograms up to 2 and 4
        ("coherent", 3200, 2),
        ("coherent", 64000, 4),
        # at most 2 quanta: every gate goes through the histogram
        ("fermion-polarized", 12800, 2),
    ])
    def test_block_sums_come_from_the_chosen_split(self, kind, gates, split):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw(kind, modes=2, nbar=0.5),
            gates=gates, seed=3)
        rng, occupancy = _run_occupancy(cfg)
        assert _row_split(occupancy) == split
        s_xi, s_eta, s_xi2, s_eta2, s_cross = _thinned_sums(
            rng, LAW, occupancy, split).T
        k = np.arange(occupancy.shape[1])
        expected = zip(_block_sizes(cfg), s_xi, s_eta, occupancy @ k,
                       s_xi2, s_eta2, occupancy @ (k * k), s_cross)
        assert _simulate_blocks(cfg) == [tuple(map(int, block))
                                         for block in expected]


class TestMemoryBound:
    def test_peak_does_not_grow_with_gates(self, monkeypatch):
        """Gates thinned one by one go in groups of blocks of about
        _GROUP_COST, so 8 times the gates do not double the peak memory
        (drawn all at once, they would raise it about 8 times)."""
        monkeypatch.setattr(mc, "_GROUP_COST", 2 ** 16)
        src = SourceLaw("coherent", modes=1, nbar=100.0)
        peaks = []
        for gates in (100000, 800000):
            cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=1)
            tracemalloc.start()
            try:
                simulate_series(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]


class TestTrinomialTable:
    @pytest.mark.parametrize("law", [LAW, *ZERO_PROBABILITY_LAWS], ids=repr)
    @pytest.mark.parametrize("top", [0, 1, 7, 24])
    def test_rows_match_trinomial_pmf(self, law, top):
        a, b, table = _trinomial_table(law, top)
        assert table.shape == (top + 1, (top + 1) * (top + 2) // 2)
        assert not np.isnan(table).any()
        for k in range(top + 1):
            valid = a + b <= k
            expected = [trinomial_pmf(law, k, m, j)
                        for m, j in zip(a[valid], b[valid])]
            assert table[k, valid] == pytest.approx(expected, rel=1e-12,
                                                    abs=0.0)
            assert np.all(table[k, ~valid] == 0.0)

    @pytest.mark.parametrize("split", [None, 2])
    @pytest.mark.parametrize("law", [LAW, *ZERO_PROBABILITY_LAWS], ids=repr)
    def test_block_identities_on_split_run(self, law, split, monkeypatch):
        """Occupancies reach 7; the run thins 0..4 as histograms, or 0..2
        when the split is forced there."""
        cfg = SimulationConfig(
            law=law, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=64000, seed=6)
        _, occupancy = _run_occupancy(cfg)
        assert occupancy.shape[1] - 1 == 7
        assert _row_split(occupancy) == 4
        if split is not None:
            monkeypatch.setattr(mc, "_row_split", lambda occupancy: split)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = _simulate_blocks(cfg)
            report = reduce_blocks(cfg, blocks)
        for _, s_xi, s_eta, s_n, s_xi2, s_eta2, s_n2, s_cross in blocks:
            assert s_xi + s_eta <= s_n
            assert s_xi2 + 2 * s_cross + s_eta2 <= s_n2
            if law.q == 0.0:
                assert s_eta == s_eta2 == s_cross == 0
            if law.r == 0.0:
                assert s_xi + s_eta == s_n
                assert s_xi2 + 2 * s_cross + s_eta2 == s_n2
        for name in ("mean_xi", "mean_eta", "f"):
            assert math.isfinite(report.estimate(name).value)
        assert math.isnan(report.r_hat.value) == (law.q == 0.0)


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

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(
                law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
                seed=seed)

    def test_extreme_seeds_give_distinct_runs(self):
        base = dict(law=LAW,
                    source=SourceLaw("coherent", modes=1, nbar=1.0),
                    gates=6400)
        reports = [simulate_series(SimulationConfig(seed=seed, **base))
                   for seed in (0, 2 ** 63, 2 ** 64 - 1)]
        assert len({repr(r.as_dict()) for r in reports}) == 3

    @pytest.mark.parametrize("gates", [2, 63, 64, 65, 1000, 10000, 100000])
    def test_block_partition_covers_all_gates(self, gates):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=gates)
        counts = [block[0] for block in _simulate_blocks(cfg)]
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

    def test_degenerate_block_has_finite_stderr(self):
        """A block with no eta count leaves K's jackknife error finite, so
        verify scores it; a pooled 0/0 stays nan (test above)."""
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        cfg = SimulationConfig(law=LAW, source=src, gates=6400, seed=2)
        blocks = _simulate_blocks(cfg)
        count, s_xi, _, s_n, s_xi2, _, s_n2, _ = blocks[5]
        blocks[5] = (count, s_xi, 0, s_n, s_xi2, 0, s_n2, 0)
        report = reduce_blocks(cfg, blocks)
        assert math.isfinite(report.k_hat.value)
        assert math.isfinite(report.k_hat.stderr)
        assert report.k_hat.stderr > 0.0
        assert math.isfinite(verify(report, {"k": 2.0})["k"]["z"])


class TestJackknife:
    def test_stderr_is_leave_one_block_out(self):
        """sqrt((B - 1) * var0) of the estimates without each block, here
        for the mean xi count and K, formed independently in fractions."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=6400, seed=4)
        blocks = _simulate_blocks(cfg)
        report = reduce_blocks(cfg, blocks)
        pooled = [sum(column) for column in zip(*blocks)]

        def stderr(statistic):
            values = [statistic(*(total - part for total, part
                                   in zip(pooled, block)))
                      for block in blocks]
            mean = sum(values) / len(values)
            var0 = sum((v - mean) ** 2 for v in values) / len(values)
            return math.sqrt((len(blocks) - 1) * var0)

        def k_ratio(count, s_xi, s_eta, s_n, s_xi2, s_eta2, s_n2, s_cross):
            return Fraction(s_cross * count, s_xi * s_eta)

        mean_xi = stderr(lambda count, s_xi, *_: Fraction(s_xi, count))
        assert report.mean_xi_hat.stderr == pytest.approx(mean_xi, rel=1e-9)
        assert report.k_hat.stderr == pytest.approx(stderr(k_ratio),
                                                    rel=1e-9)


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
