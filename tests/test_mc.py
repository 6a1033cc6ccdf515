import math
import tracemalloc
import warnings
from collections import Counter
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
    sample_occupancy,
    series_moments,
    simulate_series,
    source_pmf,
    trinomial_pmf,
    verify,
)
from hbtcount import mc
from hbtcount.mc import (
    _Moments,
    _binomial_table,
    _count_features,
    _detected,
    _estimates,
    _occupancy_features,
    _occupancy_histogram,
    _row_split,
    _pooled,
    _simulate,
    _thin,
    _thin_counts,
)
from test_acceptance import GRID

LAW = TernaryLaw(0.3, 0.2, 0.5)
ZERO_PROBABILITY_LAWS = [TernaryLaw(0.5, 0.0, 0.5), TernaryLaw(0.5, 0.5, 0.0),
                         TernaryLaw(1.0, 0.0, 0.0)]
# nothing is detected: the second stage has no detected quantum to split
NOTHING_DETECTED = TernaryLaw(0.0, 0.0, 1.0)


def _rng(seed, word=0):
    """A Philox generator keyed (seed, word); a run's stream is word 0."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, word], dtype=np.uint64)))


def _two_binomials(rng, law, n):
    """Reference per-gate counts: d ~ Binomial(n, s) detected, then xi ~
    Binomial(d, p/(p + q)) at detector A, and eta = d - xi."""
    d = rng.binomial(n, law.s)
    xi = rng.binomial(d, law.t_transmit)
    return xi, d - xi


def _run_occupancy(cfg):
    """The run's stream after its occupancy draw, and the gates per
    occupancy it drew."""
    rng = _rng(cfg.seed)
    return rng, _occupancy_histogram(rng, cfg)


def _per_gate(cfg):
    """Whether the run draws its gates one by one, without a table."""
    return _run_occupancy(cfg)[1] is None


class _Recorder(_Moments):
    """Moments that also keep each batch of feature rows, with the gates
    of each row."""

    def __init__(self, width):
        super().__init__(width)
        self.rows, self.gates = [], []

    def add(self, features, gates):
        super().add(features, gates)
        self.rows.append(features.T)
        self.gates.append(gates)

    def cells(self) -> dict:
        """The gates per distinct feature row, keyed by the row's tuple."""
        out = {}
        for rows, gates in zip(self.rows, self.gates):
            for row, count in zip(map(tuple, rows.tolist()), gates.tolist()):
                out[row] = out.get(row, 0) + count
        return out


def _recorded_run(cfg, monkeypatch):
    """The run's report, and recorders of its count and occupancy
    features."""
    monkeypatch.setattr(mc, "_Moments", _Recorder)
    counts, occupancy = _simulate(cfg)
    return _estimates(cfg.gates, counts, occupancy), counts, occupancy


def _gate_cells(rng, law, n):
    """The gates per (xi, eta) that `_thin_counts` draws for the gates of
    occupancy n, thinned as one histogram."""
    counts = _Recorder(5)
    _thin_counts(rng, law, np.bincount(n), counts)
    cells = {}
    for row, gates in counts.cells().items():
        cells[row[:2]] = cells.get(row[:2], 0) + gates
    return cells, counts


def _ones(features):
    """One gate for each column of features."""
    return np.ones(features.shape[1], dtype=np.int64)


def _assert_comoments_close(actual, expected, tol):
    """Each entry within tol of the product of the two features' spreads."""
    spread = np.sqrt(np.diag(expected))
    assert np.all(np.abs(actual - expected)
                  <= tol * np.outer(spread, spread))


def _force_split(monkeypatch, split):
    """Make both thinning stages thin counts 0..split as histograms (0..top
    when a histogram's largest count top is below split)."""
    monkeypatch.setattr(mc, "_row_split",
                        lambda histogram: min(split, len(histogram) - 1))


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

    def test_pooling_independent_of_batch_order(self):
        """Exact sums, so equal point estimates in either order; the
        merged co-moments agree to rounding."""
        rng = np.random.default_rng(3)
        batches = [_count_features(*rng.integers(0, 9, (2, size)))
                   for size in (5, 1000, 37)]
        forward, backward = _Moments(5), _Moments(5)
        for batch in batches:
            forward.add(batch, _ones(batch))
        for batch in reversed(batches):
            backward.add(batch, _ones(batch))
        assert forward.sums == backward.sums
        _assert_comoments_close(forward.comoment, backward.comoment, 1e-12)
        occupancy = _Moments(2)
        occupancy.add(_occupancy_features(np.arange(4)), np.arange(1, 5))
        a = _estimates(1042, forward, occupancy)
        b = _estimates(1042, backward, occupancy)
        assert (a.k_hat.value, a.r_hat.value) == (b.k_hat.value,
                                                  b.r_hat.value)

    @pytest.mark.parametrize("kind,modes,nbar,gates,path", [
        ("fermion-polarized", 2, 0.5, 12800, "table"),
        ("boson-polarized", 1, 5.0, 6400, "split"),
        ("coherent", 1, 1e7, 6400, "per-gate"),
    ])
    def test_repeat_is_byte_identical(self, kind, modes, nbar, gates, path):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw(kind, modes=modes, nbar=nbar),
            gates=gates, seed=11)
        if path == "per-gate":
            assert _per_gate(cfg)
        else:
            _, occupancy = _run_occupancy(cfg)
            top = len(occupancy) - 1
            assert (_row_split(occupancy) == top) == (path == "table")
        first = repr(simulate_series(cfg).as_dict())
        assert repr(simulate_series(cfg).as_dict()) == first
        assert repr(_estimates(cfg.gates, *_simulate(cfg)).as_dict()) \
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

    @pytest.mark.parametrize("src", [
        SourceLaw("boson-polarized", modes=5, nbar=1.0),
        SourceLaw("boson-partial", modes=3, nbar=2.0, polarization=0.5)],
        ids=repr)
    def test_multi_mode_boson_matches_pmf(self, src):
        scipy_stats = pytest.importorskip("scipy.stats")
        draws = sample_occupancy(src, _rng(43, 0), size=2 * 10 ** 5)
        # the top cell pools n >= 20; every cell expects 100 draws or more
        top = 20
        observed = np.bincount(np.minimum(draws, top), minlength=top + 1)
        probs = np.array([source_pmf(src, n) for n in range(top)])
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = ((observed - len(draws) * probs) ** 2
                / (len(draws) * probs)).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=top)
        assert p_value > 0.001

    @pytest.mark.parametrize("src", [
        # means of 1e19 per gate are past what numpy's samplers can draw
        SourceLaw("boson-polarized", modes=10 ** 4, nbar=1e15),
        SourceLaw("coherent", modes=1, nbar=1e19),
        # an order past int64
        SourceLaw("fermion-polarized", modes=10 ** 29, nbar=0.5)], ids=repr)
    def test_boson_draw_past_numpy_range_is_domain_error(self, src):
        with pytest.raises(DomainError, match="too large to draw"):
            sample_occupancy(src, _rng(3, 0), size=10)

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
    # at P = 0 the two equal channels are one component of order 2M
    if pol == 0.0 and src.kind == "boson-partial":
        return [("nb", 2 * m, n1 / (1.0 + n1))]
    if pol == 0.0:
        return [("binom", 2 * m, n1)]
    if src.kind == "boson-partial":
        return [("nb", m, n / (1.0 + n)) for n in (n1, n2) if n > 0.0]
    return [("binom", m, n) for n in (n1, n2) if n > 0.0]


def _reference_sample(src, rng, size):
    """Poisson, negative binomial and binomial, in component order."""
    total = np.zeros(size, dtype=np.int64)
    for comp in _reference_components(src):
        if comp[0] == "poisson":
            total += rng.poisson(comp[1], size)
        elif comp[0] == "nb":
            total += rng.negative_binomial(comp[1], 1.0 - comp[2], size)
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
    def test_coarse_window_matches_pmf(self, src):
        scipy_stats = pytest.importorskip("scipy.stats")
        gates = 200000
        cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=23)
        _, occupancy = _run_occupancy(cfg)
        # every gate is booked
        assert occupancy.sum() == gates
        assert occupancy[-1] > 0

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
        """Chunk after chunk, sample_occupancy then the per-gate thinning,
        on one Philox stream keyed by the whole 64-bit seed, each chunk
        added to the run's moments."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1e7),
            gates=6400, seed=seed)
        assert _per_gate(cfg)
        rng = _rng(seed)
        xi, eta, n = [], [], []
        for _ in range(64):
            n.append(sample_occupancy(cfg.source, rng, 100))
            for values, drawn in zip((xi, eta), _two_binomials(rng, LAW,
                                                               n[-1])):
                values.append(drawn)
        xi, eta, n = map(np.concatenate, (xi, eta, n))
        counts, occupancy = _simulate(cfg)
        assert counts.sums == [int(xi.sum()), int(eta.sum()), int(xi @ xi),
                               int(eta @ eta), int(xi @ eta)]
        assert occupancy.sums == [int(n.sum()), int(n @ n)]
        features = _count_features(xi, eta)
        deviation = features - features.mean(axis=1)[:, None]
        _assert_comoments_close(counts.comoment, deviation @ deviation.T,
                                1e-9)


class TestWithinGateStructure:
    """The thinning draws, run on the same occupancies."""

    def test_counts_never_exceed_occupancy(self, monkeypatch):
        # the thinning stages draw in many batches of 15 gates or cells
        monkeypatch.setattr(mc, "_GROUP_COST", 1000)
        law = TernaryLaw(0.45, 0.45, 0.1)
        src = SourceLaw("boson-polarized", modes=2, nbar=2.0)
        n = sample_occupancy(src, _rng(9, 0), size=5000)
        xi, eta = _two_binomials(_rng(9, 1), law, n)
        assert np.all(xi + eta <= n)
        assert np.all(xi >= 0) and np.all(eta >= 0)
        histogram = np.bincount(n)
        top = len(histogram) - 1
        for split in (0, top // 2, top):
            _force_split(monkeypatch, split)
            batches = list(_thin(_rng(9, 2), histogram, law.s))
            # every gate comes once, and none keeps more than its count
            k, a, gates = (np.concatenate([batch[i] for batch in batches])
                           for i in (0, 1, 2))
            assert np.array_equal(np.bincount(k, weights=gates,
                                              minlength=top + 1), histogram)
            assert np.all((a >= 0) & (a <= k)) and np.all(gates > 0)
            # counts 0..split from the table first, then the rest in order
            table = [np.all(k <= split) for k, _, _ in batches]
            assert table == sorted(table, reverse=True)
            assert all(np.all(k > split) for (k, _, _), drawn
                       in zip(batches, table) if not drawn)
            assert np.all(np.diff(k[k > split]) >= 0)
            assert all(len(batch[0]) <= max(1000 // 64, split + 1)
                       for batch in batches)
            # both stages: each row's moment columns are its xi and eta's
            cells, counts = _gate_cells(_rng(9, 3), law, n)
            assert sum(cells.values()) == len(n)
            for xi, eta, xi2, eta2, cross in counts.cells():
                assert min(xi, eta) >= 0 and xi + eta <= top
                assert (xi2, eta2, cross) == (xi * xi, eta * eta, xi * eta)

    @pytest.mark.parametrize("split", [None, 0, 1, 3])
    def test_joint_counts_match_mixture_pmf(self, split, monkeypatch):
        """The (xi, eta) cells of per-gate thinning (split None), and of
        `_thin_counts` with counts 0..split thinned as histograms in both
        stages: with split 1, the gates with n = 0, 1 go one way and
        n = 2, 3 the other, and so do the detected counts."""
        scipy_stats = pytest.importorskip("scipy.stats")
        src = SourceLaw("fermion-polarized", modes=3, nbar=0.6)
        rng = _rng(13, 0)
        gates = 200000
        n = sample_occupancy(src, rng, size=gates)
        if split is None:
            xi, eta = _two_binomials(rng, LAW, n)
            drawn = {(m, k): np.count_nonzero((xi == m) & (eta == k))
                     for m in range(4) for k in range(4)}
        else:
            _force_split(monkeypatch, split)
            drawn = _gate_cells(rng, LAW, n)[0]

        cells = {}
        for m in range(4):
            for k in range(4 - m):
                prob = sum(source_pmf(src, nn) * trinomial_pmf(LAW, nn, m, k)
                           for nn in range(m + k, 4))
                cells[(m, k)] = prob
        expected = gates * np.array(list(cells.values()))
        observed = np.array([drawn.get(cell, 0) for cell in cells])
        assert observed.sum() == gates
        chi2 = ((observed - expected) ** 2 / expected).sum()
        p_value = scipy_stats.chi2.sf(chi2, df=len(cells) - 1)
        assert p_value > 0.001

    def test_paths_agree_on_sums(self):
        src = SourceLaw("boson-polarized", modes=2, nbar=1.0)
        n = sample_occupancy(src, _rng(17, 0), size=200000)
        xi, eta = _two_binomials(_rng(17, 1), LAW, n)
        counts = _Moments(5)
        _thin_counts(_rng(17, 2), LAW, np.bincount(n), counts)
        for column, per_gate in enumerate(
                (xi, eta, xi * xi, eta * eta, xi * eta)):
            # Given n, each path's sum has variance sum_k c_k Var(term | k)
            var = sum(per_gate[n == k].var() * np.count_nonzero(n == k)
                      for k in np.unique(n))
            diff = int(per_gate.sum()) - counts.sums[column]
            assert abs(diff) <= 5.0 * math.sqrt(2.0 * var)

    @pytest.mark.parametrize("kind,nbar,gates,split", [
        # occupancies up to 50, thinned as a histogram up to 42, the 46
        # gates above one by one
        ("coherent", 15.0, 3200, 42),
        # up to 35 of 59 as a histogram, the 48 gates above one by one
        ("boson-polarized", 5.0, 6400, 35),
        # at most 2 quanta: every gate goes through the histogram
        ("fermion-polarized", 0.5, 12800, 2),
    ])
    def test_sums_come_from_the_chosen_split(self, kind, nbar, gates, split):
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw(kind, modes=2, nbar=nbar),
            gates=gates, seed=3)
        rng, occupancy = _run_occupancy(cfg)
        assert _row_split(occupancy) == split
        counts = _Moments(5)
        _thin_counts(rng, LAW, occupancy, counts)
        k = np.arange(len(occupancy))
        run_counts, run_occupancy = _simulate(cfg)
        assert run_counts.sums == counts.sums
        assert run_occupancy.sums == [int(occupancy @ k),
                                      int(occupancy @ (k * k))]
        assert run_counts.count == run_occupancy.count == gates

    def test_grid_thins_every_gate_in_tables(self):
        """At 10**6 gates, the few gates in a grid source's tail cost less
        in table rows than the start of thinning them one by one, so
        neither stage leaves a gate above its row split (at this seed; over
        seeds 0-29, one stage of 720 does)."""
        for src, law in GRID:
            cfg = SimulationConfig(law=law, source=src, gates=10 ** 6, seed=1)
            rng, occupancy = _run_occupancy(cfg)
            for stage in (occupancy, _detected(rng, occupancy, law.s)):
                assert _row_split(stage) == len(stage) - 1, src


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


class TestFallbackChunks:
    """Gates drawn one by one come in chunks of at most _GROUP_COST // 64
    gates, however many gates the run has."""

    def test_chunk_check_does_not_grow_with_gates(self, monkeypatch):
        # 16-gate chunks: n**2 is about 2.5e17, so 16 gates keep their sums
        # of squares below 2**63, and the 64 gates of an equal 64-chunk
        # split of 4096 gates would not
        monkeypatch.setattr(mc, "_GROUP_COST", 2 ** 10)
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=5e8),
            gates=4096, seed=2)
        assert _per_gate(cfg)
        report, counts, occupancy = _recorded_run(cfg, monkeypatch)
        assert [len(rows) for rows in occupancy.rows] == [16] * 256
        assert report.gates == counts.count == 4096
        assert abs(report.mean_xi_hat.z_score(1.5e8)) < 5.0

    def test_peak_does_not_grow_with_gates(self, monkeypatch):
        """Chunks of 1024 gates: 8 times the gates raise the peak by less
        than half (in 64 equal chunks, the chunks would grow 8 times)."""
        monkeypatch.setattr(mc, "_GROUP_COST", 2 ** 16)
        src = SourceLaw("coherent", modes=1, nbar=1e7)
        # a first run takes the one-time allocations out of the peaks
        simulate_series(SimulationConfig(law=LAW, source=src, gates=64))
        peaks = []
        for gates in (2 ** 16, 2 ** 19):
            cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=1)
            assert _per_gate(cfg)
            tracemalloc.start()
            try:
                simulate_series(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestTableMemory:
    def test_peak_does_not_grow_with_gates(self):
        """A table run draws each layer for the whole run at once, as
        counts per cell, so a thousand times the gates leave its peak
        memory within half as much again."""
        src = SourceLaw("boson-polarized", modes=1, nbar=1.0)
        # a first run takes the one-time allocations out of the peaks
        simulate_series(SimulationConfig(law=LAW, source=src, gates=64))
        peaks = []
        for gates in (10 ** 9, 10 ** 12):
            cfg = SimulationConfig(law=LAW, source=src, gates=gates, seed=1)
            assert not _per_gate(cfg)
            tracemalloc.start()
            try:
                simulate_series(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


class TestBinomialTable:
    @pytest.mark.parametrize("pi", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("top", [0, 1, 7, 24])
    def test_rows_match_binomial_pmf(self, pi, top):
        table = _binomial_table(np.arange(top + 1), top, pi)
        assert table.shape == (top + 1, top + 1)
        assert not np.isnan(table).any()
        for k in range(top + 1):
            expected = [math.comb(k, a) * pi ** a * (1.0 - pi) ** (k - a)
                        for a in range(k + 1)]
            assert table[k, :k + 1] == pytest.approx(expected, rel=1e-12,
                                                     abs=0.0)
            assert np.all(table[k, k + 1:] == 0.0)

    @pytest.mark.parametrize("split", [None, 2])
    @pytest.mark.parametrize("law", [
        LAW, *ZERO_PROBABILITY_LAWS, NOTHING_DETECTED,
        # 1 - r rounds below p, so p / (1 - r) would exceed 1
        TernaryLaw(0.1, 0.0, 0.9)], ids=repr)
    def test_sum_identities_on_split_run(self, law, split, monkeypatch):
        """Occupancies reach 7; the run thins 0..7 as one histogram in the
        first stage, or both stages thin 0..2 when the split is forced."""
        cfg = SimulationConfig(
            law=law, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=64000, seed=6)
        _, occupancy = _run_occupancy(cfg)
        assert len(occupancy) - 1 == 7
        assert _row_split(occupancy) == 7
        if split is not None:
            _force_split(monkeypatch, split)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, moments = _simulate(cfg)
            report = _estimates(cfg.gates, counts, moments)
        s_xi, s_eta, s_xi2, s_eta2, s_cross = counts.sums
        s_n, s_n2 = moments.sums
        assert s_xi + s_eta <= s_n
        assert s_xi2 + 2 * s_cross + s_eta2 <= s_n2
        if law.p == 0.0:
            assert s_xi == s_xi2 == s_cross == 0
        if law.q == 0.0:
            assert s_eta == s_eta2 == s_cross == 0
        if law.r == 0.0:
            assert s_xi + s_eta == s_n
            assert s_xi2 + 2 * s_cross + s_eta2 == s_n2
        for name in ("mean_xi", "mean_eta", "f"):
            assert math.isfinite(report.estimate(name).value)
            assert math.isfinite(report.estimate(name).stderr)
        assert math.isnan(report.r_hat.value) == (law.q == 0.0)

    def test_first_stage_covers_a_wide_law(self):
        """Coherent mean 100 at 1e7 gates: occupancies span about 60..145,
        and the first stage thins at least 99% of the gates as
        histograms, not one by one."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=100.0),
            gates=10 ** 7, seed=1)
        _, occupancy = _run_occupancy(cfg)
        split = _row_split(occupancy)
        assert occupancy[:split + 1].sum() >= 0.99 * cfg.gates


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
    def test_every_gate_is_counted(self, gates, monkeypatch):
        """Mean 1 takes the table from 288 gates on (its 18 cells times
        _CELL_GATES); mean 1e7 always goes per gate, in chunks."""
        for nbar in (1.0, 1e7):
            cfg = SimulationConfig(
                law=LAW, source=SourceLaw("coherent", modes=1, nbar=nbar),
                gates=gates)
            per_gate = _per_gate(cfg)
            assert per_gate == (nbar > 1.0 or gates < 288)
            report, counts, occupancy = _recorded_run(cfg, monkeypatch)
            assert counts.count == occupancy.count == gates
            assert sum(counts.cells().values()) == gates
            assert report.gates == gates
            # the per-gate chunks differ in size by one gate at most
            sizes = [len(rows) for rows in occupancy.rows]
            if per_gate:
                assert len(sizes) == min(64, gates)
                assert max(sizes) - min(sizes) <= 1


class TestUndefinedStatistics:
    def test_r_is_nan_without_second_detector(self):
        cfg = SimulationConfig(
            law=TernaryLaw(0.5, 0.0, 0.5),
            source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=6400, seed=1)
        report = simulate_series(cfg)
        assert math.isnan(report.r_hat.value)
        assert report.mean_eta_hat.value == 0.0

    def test_undefined_ratio_has_nan_stderr(self):
        """Without B counts, K is 0/0 and its error nan, while the mean
        counts keep theirs; verify names K instead of reporting a miss."""
        cfg = SimulationConfig(
            law=TernaryLaw(0.5, 0.0, 0.5),
            source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=6400, seed=1)
        report = simulate_series(cfg)
        assert math.isnan(report.k_hat.value)
        assert math.isnan(report.k_hat.stderr)
        assert report.mean_eta_hat.stderr == 0.0
        assert report.mean_xi_hat.stderr > 0.0
        with pytest.raises(DomainError, match="k undefined"):
            verify(report, {"k": 1.0})

    def test_run_without_quanta_is_domain_error(self):
        """No gate of a 200-gate run at mean 1e-20 holds a quantum, so K, R
        and F are 0/0: verify names them instead of reporting a miss."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1e-20),
            gates=200, seed=1)
        report = simulate_series(cfg)
        assert all(math.isnan(report.estimate(name).value)
                   for name in ("k", "r", "f"))
        with pytest.raises(DomainError, match="k, f undefined"):
            verify(report, {"k": 1.0, "mean_xi": 0.0, "f": 1.0})
        assert verify(report, {"mean_xi": 0.0})["mean_xi"]["pass"]

    def test_constant_statistic_has_zero_stderr(self):
        """One polarized fermion mode: at most one quantum a gate, so xi*eta
        is 0 in every gate, K is exactly 0 and so is its error."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("fermion-polarized", modes=1, nbar=0.7),
            gates=6400, seed=1)
        report = simulate_series(cfg)
        assert (report.k_hat.value, report.k_hat.stderr) == (0.0, 0.0)
        assert report.r_hat.stderr > 0.0


class TestMoments:
    def test_weighted_columns_equal_repeated_columns(self):
        rng = np.random.default_rng(5)
        features = _count_features(*rng.integers(0, 30, (2, 40)))
        gates = rng.integers(1, 9, 40)
        weighted, repeated = _Moments(5), _Moments(5)
        weighted.add(features, gates)
        columns = np.repeat(features, gates, axis=1)
        repeated.add(columns, _ones(columns))
        assert (weighted.count, weighted.sums) == (repeated.count,
                                                   repeated.sums)
        _assert_comoments_close(weighted.comoment, repeated.comoment, 1e-12)

    def test_pooled_pools_only_compact_cells(self):
        """Counts d, in any order, and their kept xi pool into their
        distinct (d, xi) cells when those span no more cells than there are
        gates, and stay one cell a gate otherwise."""
        for d, t, pooled in (
                # 2 x at most 6 cells for 100 gates, unsorted
                (np.tile([5, 4], 50), 0.4, True),
                # 1000 x 1 cells for 3 gates, two of them in one cell
                (np.array([999, 0, 999]), 0.0, False)):
            xi = _rng(31, 1).binomial(d, t)
            k, a, gates = _pooled(d, xi)
            cells = Counter(zip(d.tolist(), xi.tolist()))
            if pooled:
                assert dict(zip(zip(k.tolist(), a.tolist()),
                                gates.tolist())) == cells
            else:
                assert np.array_equal(k, d) and np.array_equal(a, xi)
            assert len(k) == (len(cells) if pooled else len(d))
            assert gates.dtype == np.int64 and gates.sum() == len(d)

    @pytest.mark.parametrize("n,gates", [
        # a wide occupancy histogram over many gates
        (np.array([3 * 10 ** 6, 3 * 10 ** 6 + 1]), np.array([10 ** 7, 3])),
        # gates one by one, each n**2 within int64 and their sum not
        (np.full(4, 2 * 10 ** 9), np.ones(4, dtype=np.int64)),
    ], ids=["histogram", "per-gate"])
    def test_sums_stay_exact_past_int64(self, n, gates):
        """sum gates * n**2 passes 2**63 and is summed in Python ints."""
        moments = _Moments(2)
        moments.add(_occupancy_features(n), gates)
        expected = [sum(g * v ** p for g, v in zip(gates.tolist(), n.tolist()))
                    for p in (1, 2)]
        assert expected[1] >= 2 ** 63
        assert moments.sums == expected


def _fraction_moments(moments):
    """The exact means and co-moment sum of a recorder's features."""
    cells = moments.cells()
    count = sum(cells.values())
    width = len(next(iter(cells)))
    mean = [Fraction(sum(row[i] * gates for row, gates in cells.items()),
                     count) for i in range(width)]
    comoment = [[sum((row[i] - mean[i]) * (row[j] - mean[j]) * gates
                     for row, gates in cells.items())
                 for j in range(width)] for i in range(width)]
    return count, mean, comoment


def _fraction_stderr(count, comoment, gradient):
    quadratic = sum(gradient[i] * comoment[i][j] * gradient[j]
                    for i in range(len(gradient))
                    for j in range(len(gradient)))
    return math.sqrt(quadratic / (count * (count - 1)))


class TestDeltaMethod:
    def test_stderr_matches_fraction_reference(self, monkeypatch):
        """sqrt(g' S g / (N - 1)) for the mean xi count, K and F, formed
        independently in fractions from the gates the run drew."""
        cfg = SimulationConfig(
            law=LAW, source=SourceLaw("coherent", modes=1, nbar=1.0),
            gates=6400, seed=4)
        report, counts, occupancy = _recorded_run(cfg, monkeypatch)
        count, (xi, eta, _, _, cross), comoment = _fraction_moments(counts)
        k = cross / (xi * eta)
        assert report.k_hat.value == pytest.approx(float(k), rel=1e-15)
        assert report.mean_xi_hat.stderr == pytest.approx(
            _fraction_stderr(count, comoment, [1, 0, 0, 0, 0]), rel=1e-9)
        assert report.k_hat.stderr == pytest.approx(_fraction_stderr(
            count, comoment, [-k / xi, -k / eta, 0, 0, 1 / (xi * eta)]),
            rel=1e-9)
        count, (n, n2), comoment = _fraction_moments(occupancy)
        assert report.f_hat.stderr == pytest.approx(_fraction_stderr(
            count, comoment, [-n2 / (n * n) - 1, 1 / n]), rel=1e-9)

    @pytest.mark.parametrize("src", [
        SourceLaw("boson-polarized", modes=1, nbar=2.0),
        SourceLaw("coherent", modes=1, nbar=1e7)], ids=repr)
    def test_stderr_agrees_with_gate_jackknife(self, src, monkeypatch):
        """For iid gates the delta method is the infinitesimal jackknife;
        the delete-one-gate jackknife, over the gates the run drew, agrees
        with it to O(1/N), on the table and on the per-gate chunks."""
        cfg = SimulationConfig(law=LAW, source=src, gates=6400, seed=8)
        report, counts, occupancy = _recorded_run(cfg, monkeypatch)
        count_cells, occupancy_cells = counts.cells(), occupancy.cells()
        gates = cfg.gates

        def statistics(count_sums, occupancy_sums):
            """K, R, F, the means, from sums over gates - 1 gates."""
            xi, eta, xi2, eta2, cross = (s / (gates - 1) for s in count_sums)
            n, n2 = (s / (gates - 1) for s in occupancy_sums)
            var = (xi2 - xi * xi) * (eta2 - eta * eta)
            return np.array([cross / (xi * eta),
                             (cross - xi * eta) / math.sqrt(var),
                             (n2 - n * n) / n, xi, eta])

        # each gate left out: its count row, its occupancy row held fixed
        leave_out, weights = [], []
        for cells, sums, other in (
                (count_cells, counts.sums, occupancy.sums),
                (occupancy_cells, occupancy.sums, counts.sums)):
            for row, cell_gates in cells.items():
                less = [total - part for total, part in zip(sums, row)]
                pair = (less, [s * (gates - 1) / gates for s in other])
                if cells is occupancy_cells:
                    pair = pair[::-1]
                leave_out.append(statistics(*pair))
                weights.append(cell_gates)
        leave_out, weights = np.array(leave_out), np.array(weights)
        jackknife = []
        for half in (slice(0, len(count_cells)),
                     slice(len(count_cells), None)):
            values, w = leave_out[half], weights[half]
            mean = w @ values / gates
            jackknife.append(np.sqrt((gates - 1) / gates
                                     * (w @ (values - mean) ** 2)))
        # K, R and the means vary with the count row, F with the occupancy
        expected = np.append(jackknife[0][[0, 1]], jackknife[1][2])
        expected = np.append(expected, jackknife[0][[3, 4]])
        got = [report.estimate(name).stderr for name in report.STATISTICS]
        assert got == pytest.approx(expected, rel=0.01)


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
