import contextlib
import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hbtcount import (cli, exact_correlation, gaussian_mode_count, sources,
                      thermal_k)


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _refuse(constant):
    """A `parse_constant` that refuses NaN and Infinity, as RFC 8259 does."""
    raise ValueError(f"non-finite JSON constant {constant}")


class TestMoments:
    def test_binary_limit(self, capsys):
        code, out = run(["moments", "--p", "0.5", "--q", "0.5", "--r", "0",
                         "--n", "1"], capsys)
        row = read_csv(out)[0]
        assert code == cli.EXIT_OK
        assert float(row["r_coeff"]) == pytest.approx(-1.0)
        assert float(row["k_n"]) == pytest.approx(0.0)

    def test_gate_ratio(self, capsys):
        code, out = run(["moments", "--p", "0.3", "--q", "0.2", "--r", "0.5",
                         "--n", "2"], capsys)
        row = read_csv(out)[0]
        assert float(row["k_n"]) == pytest.approx(0.5)
        assert float(row["mean_xi"]) == pytest.approx(0.6)

    def test_tiny_law_keeps_r(self, capsys):
        # R = -sqrt(p/(1-p)) sqrt(q/(1-q)): no p q = 1e-400 to underflow
        code, out = run(["moments", "--p", "1e-200", "--q", "1e-200",
                         "--r", "1", "--n", "3"], capsys)
        assert code == cli.EXIT_OK
        assert read_csv(out)[0]["r_coeff"] == "-1e-200"

    def test_bad_sum_is_validation_error(self, capsys):
        code, _ = run(["moments", "--p", "0.5", "--q", "0.5", "--r", "0.5"],
                      capsys)
        assert code == cli.EXIT_VALIDATION


class TestK:
    def test_single_mode_boson(self, capsys):
        code, out = run(["k", "--kind", "thermal-boson", "--modes", "1",
                         "--nbar", "1.0"], capsys)
        assert code == cli.EXIT_OK
        assert float(read_csv(out)[0]["K"]) == pytest.approx(2.0)

    def test_many_mode_fermion(self, capsys):
        code, out = run(["k", "--kind", "thermal-fermion", "--modes", "14",
                         "--unpolarized", "--nbar", "0.5"], capsys)
        assert float(read_csv(out)[0]["K"]) == pytest.approx(
            thermal_k("fermion", 14, polarized=False), rel=1e-5)

    def test_coherent_reports_zero_r(self, capsys):
        code, out = run(["k", "--kind", "coherent", "--mean", "1.0"], capsys)
        row = read_csv(out)[0]
        assert float(row["K"]) == pytest.approx(1.0)
        assert float(row["R"]) == pytest.approx(0.0)
        # F = 1 + Q with Q = 0, not a rounded (<n^2> - <n>^2) / <n>
        code, out = run(["k", "--kind", "coherent", "--nbar", "3.3"], capsys)
        row = read_csv(out)[0]
        assert (row["fano"], row["K"], row["R"]) == ("1", "1", "0")

    def test_tiny_law_keeps_r(self, capsys):
        # R = sqrt(pq / ((1-p)(1-q))) Q with no p q product to underflow
        code, out = run(["k", "--kind", "thermal-boson", "--modes", "1",
                         "--nbar", "1", "--p", "1e-200", "--q", "1e-200",
                         "--r", "1"], capsys)
        assert code == cli.EXIT_OK
        assert read_csv(out)[0]["R"] == "1e-200"

    def test_law_flags_add_r_column(self, capsys):
        code, out = run(["k", "--kind", "thermal-boson", "--modes", "2",
                         "--nbar", "0.5", "--p", "0.25", "--q", "0.25",
                         "--r", "0.5"], capsys)
        row = read_csv(out)[0]
        assert float(row["R"]) > 0.0

    @pytest.mark.parametrize("flags", [
        ["--kind", "thermal-boson", "--mean", "5"],
        ["--kind", "thermal-fermion", "--mean", "0.5"],
        ["--kind", "coherent", "--polarization", "0.5"],
        ["--kind", "coherent", "--unpolarized"],
        ["--kind", "thermal-boson", "--polarization", "0.5",
         "--unpolarized"],
        ["--kind", "thermal-boson", "--polarized", "--polarization", "0.5"],
        ["--kind", "coherent", "--polarized"],
        ["--kind", "coherent", "--mean", "2", "--nbar", "5", "--modes", "3"],
        ["--kind", "coherent", "--mean", "2", "--modes", "3"],
    ])
    @pytest.mark.parametrize("command", [["k"], ["source"]])
    def test_ignored_source_flag_is_validation_error(self, command, flags,
                                                     capsys):
        code = cli.main(command + flags)
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestCurveAndModes:
    def test_curve_endpoints(self, capsys):
        code, out = run(["curve", "--statistics", "boson",
                         "--sweep", "0:1000:2"], capsys)
        rows = read_csv(out)
        assert float(rows[0]["K"]) == pytest.approx(2.0)
        assert float(rows[-1]["K"]) == pytest.approx(1.0, abs=2e-3)

    def test_fermion_curve_starts_at_zero(self, capsys):
        code, out = run(["curve", "--statistics", "fermion",
                         "--sweep", "0:10:3"], capsys)
        assert float(read_csv(out)[0]["K"]) == pytest.approx(0.0, abs=1e-12)

    def test_modes_gaussian_large_x(self, capsys):
        code, out = run(["modes", "--profile", "gaussian", "--x", "100"],
                        capsys)
        value = float(read_csv(out)[0]["M"])
        assert value == pytest.approx(gaussian_mode_count(100.0), rel=1e-5)
        assert value == pytest.approx(100.0, rel=0.01)

    def test_modes_requires_points(self, capsys):
        code, _ = run(["modes"], capsys)
        assert code == cli.EXIT_VALIDATION

    def test_bad_sweep_spec(self, capsys):
        code, _ = run(["curve", "--statistics", "boson", "--sweep", "0..1"],
                      capsys)
        assert code == cli.EXIT_VALIDATION

    def test_curve_without_polarity_flag_is_polarized(self, capsys):
        line = ["curve", "--statistics", "boson", "--sweep", "0:8:5"]
        default, polarized, unpolarized = [
            run(line + flag, capsys)
            for flag in ([], ["--polarized"], ["--unpolarized"])]
        assert default == polarized != unpolarized
        assert default[0] == unpolarized[0] == cli.EXIT_OK


# Valid tokens for the flags of an `_EXCLUSIVE` line, by name, else by type.
VALID = {"--p": "0.3", "--q": "0.2", "--r": "0.5", "--gates": "1000",
         "--x": "0.5", "--sweep": "0:1:3", "--pgf": "0.5", int: "3",
         float: "0.5"}


def valid_tokens(name, spec):
    """`name` and a valid value: by name, else its first choice, else by
    its type; a store_true flag alone."""
    _, convert, choices, const = spec
    if const:
        return [name]
    return [name, VALID.get(name) or (choices[0] if choices
                                      else VALID[convert])]


def exclusive_cases():
    """Each command with each `_EXCLUSIVE` pair it takes both flags of, as
    a valid line without the pair and the pair's two flags with values."""
    cases = []
    for command, (specs, _, required) in cli._tables().items():
        names = {spec[0]: name for name, spec in specs.items()}
        for pair in cli._EXCLUSIVE:
            if command is None or not names.keys() >= set(pair):
                continue
            line = [command]
            for name, spec in specs.items():
                if name == "--kind":
                    line += [name, "coherent" if "mean" in pair
                             else "thermal-boson"]
                elif spec[0] in required or name in ("--p", "--q", "--r",
                                                     "--gates"):
                    line += valid_tokens(name, spec)
            a, b = (valid_tokens(names[dest], specs[names[dest]])
                    for dest in pair)
            cases.append(pytest.param(line, a, b,
                                      id=" ".join([command, *pair])))
    return cases


class TestFlagRule:
    """A given flag the source kind or the command would ignore, and two
    given flags that contradict each other, exit 2 with an error line that
    names the flags."""

    @pytest.mark.parametrize("line, message", [
        ("source --kind coherent --unpolarized",
         "--unpolarized does not apply to --kind coherent"),
        ("verify --kind thermal-fermion --mean 0.5 --p .3 --q .2 --r .5",
         "--mean does not apply to --kind thermal-fermion"),
    ])
    def test_refused_flags_are_named(self, line, message, capsys):
        code = cli.main(shlex.split(line))
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line, a, b", exclusive_cases())
    def test_every_exclusive_pair_is_refused(self, line, a, b, capsys):
        for flag in (a, b):
            assert call(line + flag, capsys)[0] in (cli.EXIT_OK,
                                                    cli.EXIT_CHECK_FAILED)
        assert call(line + a + b, capsys) == (
            cli.EXIT_VALIDATION, "",
            f"error: {a[0]} and {b[0]} exclude each other\n")

    def test_every_pair_has_a_case(self):
        """Written out apart from `_EXCLUSIVE`, so that a pair dropped from
        the table fails here rather than losing its case."""
        per_kind = {"mean modes", "mean nbar", "polarized unpolarized",
                    "polarized polarization", "unpolarized polarization"}
        expected = {f"{command} {pair}" for command in ("k", "simulate",
                                                        "verify", "source")
                    for pair in per_kind}
        expected |= {"source pgf max_n", "curve polarized unpolarized",
                     "modes x sweep", "aspect-grangier f_override gate_ratio",
                     "aspect-grangier f_override omega_ratio"}
        assert {case.id for case in exclusive_cases()} == expected

    def test_tables_name_dests_that_default_to_none(self):
        """A misspelled dest in a table would turn its check off."""
        parsers = cli._parsers()[1].values()
        dests = [{action.dest for action in p._actions} for p in parsers]
        named = {dest for flags in cli._KIND_FLAGS.values() for dest in flags}
        assert named == set(cli._SOURCE_FLAGS)
        for pair in cli._EXCLUSIVE:
            named.update(pair)
            assert any(d.issuperset(pair) for d in dests), pair
        for dest in named:
            assert any(dest in d for d in dests), dest
            for p, d in zip(parsers, dests):
                assert dest not in d or p.get_default(dest) is None, dest


class TestAspectGrangier:
    def test_default_table_columns(self, capsys):
        code, out = run(["aspect-grangier"], capsys)
        rows = read_csv(out)
        assert code == cli.EXIT_OK
        assert len(rows) == 7
        assert {"row", "expected", "alpha_qm", "k_mode", "calculated_k",
                "measured", "anomalous"} <= set(rows[0].keys())
        assert [int(r["expected"]) for r in rows] == \
            [2, 49, 64, 202, 455, 492, 367]

    def test_json_format_includes_empirical_columns(self, capsys):
        code, out = run(["--format", "json", "aspect-grangier"], capsys)
        rows = json.loads(out)
        for row in rows:
            assert row["T_obs"] + row["R_obs"] == pytest.approx(1.0, abs=1e-5)
            assert row["M_emp"] > 0.0

    @pytest.mark.parametrize("text, message", [
        (None, "error: cannot read --data "),
        ("row,Nw,T_s,n_2r,n_2t,measured_coincidences\n"
         "1,0.06,1200,2940,3876,6\n", "error: run table lacks column(s) "
         "N1_per_s\n"),
        ("", "error: run table lacks column(s) row, "),
    ], ids=["missing file", "missing column", "empty file"])
    def test_bad_data_is_validation_error(self, text, message, tmp_path,
                                          capsys):
        target = tmp_path / "table.csv"
        if text is not None:
            target.write_text(text)
        code = cli.main(["aspect-grangier", "--data", str(target)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err.startswith(message)
        assert captured.out == ""

    @pytest.mark.parametrize("f, difference", [("1e300", -100.0),
                                               ("5e-324", 100.0)])
    def test_extreme_overlap_factor(self, f, difference, capsys):
        """alpha is about 2 Nw/f at f = 1e300 and 1 at f = 5e-324, where
        Nw/f passes float range, while K is about 1 and 0: every value is
        finite and the relative difference is -100 and 100."""
        code, out = run(["aspect-grangier", "--f-override", f], capsys)
        rows = read_csv(out)
        assert code == cli.EXIT_OK and len(rows) == 7
        assert all(math.isfinite(float(value)) for row in rows
                   for key, value in row.items() if key != "anomalous")
        assert {float(row["relative_difference"]) for row in rows} == {
            difference}

    @pytest.mark.parametrize("rate, duration, code, message", [
        ("inf", "1200", cli.EXIT_VALIDATION,
         "error: trigger_rate must be positive and finite, not inf\n"),
        ("nan", "1200", cli.EXIT_VALIDATION,
         "error: trigger_rate must be positive and finite, not nan\n"),
        ("4720", "-inf", cli.EXIT_VALIDATION,
         "error: duration must be positive and finite, not -inf\n"),
        ("1e300", "1e10", cli.EXIT_DOMAIN,
         "error: gate count N1*T overflows float range at N1 = 1e+300, "
         "T = 10000000000.0\n"),
    ])
    def test_non_finite_rate_or_duration(self, rate, duration, code, message,
                                         tmp_path, capsys):
        """A row's N1 and T are positive and finite, and N1*T past float
        range is a DomainError: not an OverflowError traceback, nor a
        message that names no column."""
        target = tmp_path / "table.csv"
        target.write_text("row,Nw,N1_per_s,T_s,n_2r,n_2t,measured_coincidences"
                          f"\n1,0.06,{rate},{duration},2940,3876,6\n")
        assert call(["aspect-grangier", "--data", str(target)], capsys) == (
            code, "", message)

    def test_f_override_changes_predictions(self, capsys):
        _, default = run(["aspect-grangier"], capsys)
        _, overridden = run(["aspect-grangier", "--f-override", "0.7"],
                            capsys)
        assert default != overridden


class TestSimulateAndVerify:
    SIM = ["simulate", "--kind", "thermal-boson", "--modes", "1",
           "--nbar", "1.0", "--p", "0.3", "--q", "0.2", "--r", "0.5",
           "--gates", "20000", "--seed", "11"]

    def test_simulate_deterministic(self, capsys):
        _, first = run(self.SIM, capsys)
        _, second = run(self.SIM, capsys)
        assert first == second

    def test_simulate_reports_statistics(self, capsys):
        code, out = run(self.SIM + ["--analytic"], capsys)
        rows = read_csv(out)
        stats = {r["statistic"]: r for r in rows}
        assert code == cli.EXIT_OK
        assert {"k", "r", "f", "mean_xi", "mean_eta", "gates"} <= stats.keys()
        assert float(stats["k"]["analytic"]) == pytest.approx(2.0)

    @pytest.mark.parametrize("flags", [
        ["--kind", "coherent", "--nbar", "2.5"],
        ["--kind", "thermal-boson", "--modes", "4", "--nbar", "1.5",
         "--polarization", "0.4"],
        ["--kind", "thermal-fermion", "--modes", "3", "--nbar", "0.6",
         "--unpolarized"],
    ])
    def test_analytic_r_is_exact_correlation(self, flags):
        args = cli._parsers()[0].parse_args(
            ["simulate"] + flags + ["--p", "0.3", "--q", "0.2", "--r", "0.5"])
        cfg = cli._simulation_config(args)
        assert cli._analytic_values(cfg)["r"] == exact_correlation(
            cfg.law, cfg.source)

    def test_global_seed_flag(self, capsys):
        base = ["--kind", "coherent", "--mean", "1.0", "--p", "0.3",
                "--q", "0.2", "--r", "0.5", "--gates", "10000"]
        _, a = run(["--seed", "5", "simulate"] + base, capsys)
        _, b = run(["simulate"] + base + ["--seed", "5"], capsys)
        assert a == b

    def test_seed_defaults_to_zero(self, capsys):
        base = ["simulate", "--kind", "coherent", "--mean", "1.0", "--p", "0.3",
                "--q", "0.2", "--r", "0.5", "--gates", "10000"]
        _, a = run(base, capsys)
        _, b = run(base + ["--seed", "0"], capsys)
        assert a == b

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_validation_error(self, capsys, seed):
        code = cli.main(["simulate", "--kind", "coherent", "--mean", "1.0",
                         "--p", "0.3", "--q", "0.2", "--r", "0.5",
                         "--gates", "6400", "--seed", seed])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_simulate_requires_law(self, capsys):
        code, _ = run(["simulate", "--kind", "coherent", "--mean", "1.0"],
                      capsys)
        assert code == cli.EXIT_VALIDATION

    def test_too_few_gates(self, capsys):
        code, _ = run(["simulate", "--kind", "coherent", "--mean", "1.0",
                       "--p", "0.3", "--q", "0.2", "--r", "0.5",
                       "--gates", "1"], capsys)
        assert code == cli.EXIT_VALIDATION

    def test_verify_passes(self, capsys):
        code, out = run(["verify", "--kind", "thermal-boson", "--modes", "1",
                         "--nbar", "1.0", "--p", "0.3", "--q", "0.2",
                         "--r", "0.5", "--gates", "100000", "--seed", "4"],
                        capsys)
        assert code == cli.EXIT_OK
        assert all(r["pass"] == "True" for r in read_csv(out))

    def test_verify_single_fermion_mode_passes(self, capsys):
        # K is exactly 0 for one polarized fermion mode, in the estimate
        # and in the analytic value, so the zero stderr gives z = 0.
        code, _ = run(["verify", "--kind", "thermal-fermion", "--modes", "1",
                       "--nbar", "0.864", "--p", "0.2", "--q", "0.35",
                       "--r", "0.45", "--gates", "10000", "--seed", "1"],
                      capsys)
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_verify_ten_gate_blocks_pass(self, capsys, seed):
        # some 10-gate block has no eta count; its jackknife error is finite
        code, out = run(["verify", "--kind", "coherent", "--mean", "1",
                         "--p", ".3", "--q", ".2", "--r", ".5",
                         "--gates", "640", "--seed", seed], capsys)
        assert code == cli.EXIT_OK
        assert all(r["pass"] == "True" for r in read_csv(out))

    def test_verify_uneven_gate_count_passes(self, capsys):
        # 10000 gates are not a multiple of 64; no block may be left so
        # short that a ratio in it is undefined.
        code, _ = run(["verify", "--kind", "thermal-fermion", "--modes", "1",
                       "--nbar", "0.71", "--polarization", "0.258",
                       "--p", "0.3", "--q", "0.2", "--r", "0.5",
                       "--gates", "10000", "--seed", "1126723668"], capsys)
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("mean,expected", [
        ("1e7", cli.EXIT_OK), ("1e8", cli.EXIT_DOMAIN)])
    def test_verify_large_mean_passes_or_raises(self, capsys, mean,
                                                expected):
        code = cli.main(["verify", "--kind", "coherent", "--mean", mean,
                         "--p", ".3", "--q", ".2", "--r", ".5",
                         "--gates", "100000", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error:") == (expected == cli.EXIT_DOMAIN)

    @pytest.mark.parametrize("command", ["k", "verify"])
    def test_boson_occupancy_past_float_resolution(self, capsys, command):
        # the law is evaluated from nbar, past nbar = 2**53 too; a run's
        # occupancies of about 1e17 have squares past int64, which the
        # gate-by-gate chunks refuse
        argv = [command, "--kind", "thermal-boson", "--modes", "3",
                "--nbar", "1e17"]
        if command == "verify":
            argv += ["--p", ".3", "--q", ".2", "--r", ".5", "--gates", "1000"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        if command == "k":
            assert code == cli.EXIT_OK
            assert captured.out.splitlines()[1] == (
                "thermal-boson,3e+17,1e+17,1.33333")
        else:
            assert code == cli.EXIT_DOMAIN
            assert captured.err.startswith("error: occupancy too large: "
                                           "chunk sums of squares")
            assert captured.out == ""

    def test_channel_occupancy_underflow_is_domain_error(self, capsys):
        code = cli.main(["k", "--kind", "thermal-boson", "--unpolarized",
                         "--nbar", "5e-324"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error:")
        assert "channel occupancy" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["k", "verify"])
    def test_mean_square_underflow_is_domain_error(self, capsys, command):
        """<n>**2 underflows at <n> = 1e-200, but K = 1 + Q/<n> does not:
        `k` prints K = 1, and `verify`, whose run holds no quantum, names
        the statistics it cannot define."""
        argv = [command, "--kind", "coherent", "--nbar", "1e-200"]
        if command == "verify":
            argv += ["--p", ".3", "--q", ".2", "--r", ".5", "--gates", "200"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        if command == "k":
            assert code == cli.EXIT_OK
            assert read_csv(captured.out)[0]["K"] == "1"
        else:
            assert code == cli.EXIT_DOMAIN
            assert captured.err == "error: k, r, f undefined in 200 gates\n"
            assert captured.out == ""

    TINY = ["--kind", "thermal-boson", "--modes", "1", "--nbar", "1",
            "--p", "1e-200", "--q", "1e-200", "--r", "1", "--gates", "200"]

    def test_tiny_law_verify_names_undefined_statistics(self, capsys):
        # p q = 1e-400 underflows, but the analytic R = 1e-200 does not
        code = cli.main(["verify"] + self.TINY)
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err == "error: k, r undefined in 200 gates\n"
        assert captured.out == ""

    def test_tiny_law_simulate_prints_analytic_r(self, capsys):
        code, out = run(["simulate", "--analytic"] + self.TINY, capsys)
        analytic = {row["statistic"]: row["analytic"] for row in read_csv(out)}
        assert code == cli.EXIT_OK
        assert analytic["r"] == "1e-200"
        assert (analytic["k"], analytic["f"]) == ("2", "2")

    def test_verify_without_quanta_is_domain_error(self, capsys):
        # no gate holds a quantum, so K, R and F are 0/0, not missed
        code = cli.main(["verify", "--kind", "coherent", "--nbar", "1e-20",
                         "--p", ".3", "--q", ".2", "--r", ".5",
                         "--gates", "200"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error:")
        assert "k, r, f undefined" in captured.err
        assert captured.out == ""

    def test_verify_fails_with_tight_threshold(self, capsys):
        code, _ = run(["verify", "--kind", "thermal-boson", "--modes", "1",
                       "--nbar", "1.0", "--p", "0.3", "--q", "0.2",
                       "--r", "0.5", "--gates", "10000", "--seed", "4",
                       "--z-max", "0.001"], capsys)
        assert code == cli.EXIT_CHECK_FAILED

    @pytest.mark.parametrize("z_max", ["0", "-0.5", "-1"])
    def test_non_positive_z_max_is_validation_error(self, z_max, capsys):
        code = cli.main(["verify", "--kind", "coherent", "--nbar", "1",
                         "--p", "0.3", "--q", "0.2", "--r", "0.5",
                         "--gates", "1000", "--z-max", z_max])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err == (f"error: z_max must be positive and finite, "
                                f"not {float(z_max)}\n")
        assert captured.out == ""


class TestOutputHandling:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out = run(["--out", str(target), "k", "--kind", "thermal-boson",
                         "--modes", "1", "--nbar", "1.0"], capsys)
        assert code == cli.EXIT_OK
        assert out == ""
        assert float(read_csv(target.read_text())[0]["K"]) == \
            pytest.approx(2.0)

    @pytest.mark.parametrize("target", ["missing/table.csv", "."])
    def test_unwritable_out_is_validation_error(self, target, tmp_path,
                                                capsys):
        path = str(tmp_path / target)
        code = cli.main(["--out", path, "k", "--kind", "coherent"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err.startswith(f"error: cannot write --out {path}: ")
        assert captured.out == ""

    def test_precision_flag(self, capsys):
        _, out = run(["--precision", "3", "modes", "--x", "3.6"], capsys)
        value = read_csv(out)[0]["M"]
        assert value == "4.18"

    def test_precision_out_of_range(self, capsys):
        code, _ = run(["--precision", "0", "modes", "--x", "1.0"], capsys)
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        # no quanta: K, R and F are undefined
        ["simulate", "--kind", "coherent", "--nbar", "1e-20", "--p", ".3",
         "--q", ".2", "--r", ".5", "--gates", "200", "--analytic"],
    ])
    def test_json_writes_null_for_non_finite(self, argv, capsys):
        code, out = run(["--format", "json"] + argv, capsys)
        assert code == cli.EXIT_OK
        rows = json.loads(out, parse_constant=_refuse)
        assert None in (value for row in rows for value in row.values())

    def test_csv_round_trip(self, capsys):
        _, out = run(["--precision", "12", "curve", "--statistics", "boson",
                      "--sweep", "0:5:6"], capsys)
        for row in read_csv(out):
            m = float(row["M"])
            k = float(row["K"])
            assert k == pytest.approx(1.0 + 1.0 / m, rel=1e-9)

    def test_source_pmf_table(self, capsys):
        code, out = run(["source", "--kind", "thermal-fermion", "--modes",
                         "2", "--nbar", "1.0", "--max-n", "2"], capsys)
        rows = read_csv(out)
        assert [float(r["pmf"]) for r in rows] == pytest.approx([0, 0, 1])

    @pytest.mark.parametrize("flags", [
        ["--kind", "coherent", "--modes", "3", "--nbar", "2.5"],
        ["--kind", "thermal-boson", "--modes", "4", "--nbar", "1.5",
         "--polarization", "0.4"],
        ["--kind", "thermal-boson", "--modes", "2", "--nbar", "3.0",
         "--unpolarized"],
        ["--kind", "thermal-fermion", "--modes", "5", "--nbar", "0.6",
         "--polarization", "0.7", "--max-n", "12"],
    ])
    def test_source_rows_match_source_pmf(self, flags, capsys):
        code, out = run(["--precision", "15", "source"] + flags, capsys)
        assert code == cli.EXIT_OK
        rows = read_csv(out)
        src = cli._source_from_args(
            cli._parsers()[0].parse_args(["source"] + flags))
        assert [int(r["n"]) for r in rows] == list(range(len(rows)))
        assert [float(r["pmf"]) for r in rows] == pytest.approx(
            [sources.source_pmf(src, n) for n in range(len(rows))],
            rel=1e-12, abs=0.0)

    def test_source_negative_max_n_is_validation_error(self, capsys):
        code = cli.main(["source", "--kind", "coherent", "--max-n", "-1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_source_beyond_truncation_cap_is_domain_error(self, capsys):
        code = cli.main(["source", "--kind", "coherent", "--nbar", "3e6"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_source_pgf_table(self, capsys):
        code, out = run(["source", "--kind", "coherent", "--mean", "1.0",
                         "--pgf", "0,1"], capsys)
        rows = read_csv(out)
        assert float(rows[0]["pgf"]) == pytest.approx(0.367879, rel=1e-5)
        assert float(rows[1]["pgf"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("line", [
        "source --kind thermal-boson --modes 100000 --nbar 0.1 --pgf 1.5",
        "source --kind coherent --nbar 1000 --pgf 2",
        "source --kind thermal-fermion --modes 100000 --nbar 0.5 --pgf 1e10",
    ])
    def test_source_pgf_past_float_range_is_domain_error(self, line, capsys):
        code = cli.main(shlex.split(line))
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error: pgf overflows")
        assert captured.out == ""


def _dict_writer_csv(rows, precision):
    """The CSV that `csv.DictWriter` writes for `rows`, fields named by the
    first row's keys: the reference for `cli._render`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: format(v, f".{precision}g")
                         if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue()


def _json_dumps_reference(rows, precision):
    """`json.dumps(rows, indent=2)` of the rows, each float rounded to
    `precision` significant digits and `None` when that is not finite: the
    JSON reference for `cli._render`."""
    def rounded(v):
        if not isinstance(v, float):
            return v
        v = float(format(v, f".{precision}g"))
        return v if math.isfinite(v) else None
    payload = [{k: rounded(v) for k, v in row.items()} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# Each column mixes value kinds; keys and strings need json's escapes.
SYNTHETIC_ROWS = [
    {"value": value, 'say "r\u00e9sum\u00e9"': text, "100%": flag}
    for value, text, flag in [
        (float("nan"), 'a "quoted" word', True),
        (float("inf"), "back\\slash", False),
        (float("-inf"), "two\nlines", None),
        (-0.0, "na\u00efve \u2603 \U0001d11e", 0),
        (5e-324, "", 2 ** 70),
        (1.7976931348623157e308, "plain", -3),
        (True, None, 0.1),
        (2 ** 70, 7, float("nan")),
        (None, False, "%s %d %%"),
    ]
]


RENDER_LAW = ["--p", ".3", "--q", ".2", "--r", ".5"]
RENDER_CASES = [
    ["moments"] + RENDER_LAW + ["--n", "3"],
    ["source", "--kind", "thermal-boson", "--modes", "3", "--nbar", "1.5"],
    ["source", "--kind", "coherent", "--pgf", "0,0.5,1"],
    ["k", "--kind", "thermal-fermion", "--modes", "4", "--nbar", "0.5"],
    ["k", "--kind", "thermal-boson"] + RENDER_LAW,
    ["curve", "--statistics", "boson", "--sweep", "0:5:6"],
    ["modes", "--x", "0.5,3.6"],
    ["aspect-grangier"],
    ["simulate", "--kind", "coherent", "--gates", "6400"] + RENDER_LAW,
    ["simulate", "--kind", "coherent", "--gates", "6400", "--analytic"]
    + RENDER_LAW,
    ["verify", "--kind", "thermal-boson", "--gates", "6400"] + RENDER_LAW,
]


class TestRender:
    """CSV rows are written by one csv.writer, each row's values taken in
    the first row's key order, with no per-row key check: every handler's
    rows carry the first row's keys, and the output is DictWriter's."""

    @pytest.mark.parametrize("argv", RENDER_CASES, ids=" ".join)
    def test_output_equals_a_dict_writer_reference(self, argv, capsys):
        args = cli._parsers()[0].parse_args(argv)
        rows = cli._COMMANDS[args.command][1](args)
        assert [list(row) for row in rows] == [list(rows[0])] * len(rows)
        for precision in (1, 6, 15):
            assert cli._render(rows, "csv", precision) == _dict_writer_csv(
                rows, precision)
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK
        reference = _dict_writer_csv(rows, 6)
        assert out == reference
        code, out = run(["--format", "json"] + argv, capsys)
        assert code == cli.EXIT_OK
        payload = json.loads(out, parse_constant=_refuse)
        expected = read_csv(reference)
        assert [list(row) for row in payload] == [
            list(row) for row in expected]
        for row, fields in zip(payload, expected):
            for key, value in row.items():
                field = fields[key]
                if value is None:
                    assert field in ("nan", "inf", "-inf")
                elif isinstance(value, (bool, str)):
                    assert field == str(value)
                else:
                    assert float(field) == value

    @pytest.mark.parametrize("argv", RENDER_CASES, ids=" ".join)
    def test_json_equals_json_dumps(self, argv):
        args = cli._parsers()[0].parse_args(argv)
        rows = cli._COMMANDS[args.command][1](args)
        for precision in (1, 6, 15):
            assert cli._render(rows, "json", precision) == \
                _json_dumps_reference(rows, precision)

    @pytest.mark.parametrize("precision", [1, 6, 15])
    def test_mixed_and_extreme_values(self, precision):
        assert cli._render(SYNTHETIC_ROWS, "csv", precision) == \
            _dict_writer_csv(SYNTHETIC_ROWS, precision)
        assert cli._render(SYNTHETIC_ROWS, "json", precision) == \
            _json_dumps_reference(SYNTHETIC_ROWS, precision)


def call(argv, capsys):
    """Exit code, stdout and stderr of one `cli.main` call, argparse's
    own exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCachedParser:
    """One parser serves every call in a process and keeps nothing from
    one call to the next."""

    K = ["k", "--kind", "thermal-boson", "--modes", "1", "--nbar", "1.0"]
    SIM = ["simulate", "--kind", "coherent", "--mean", "1.0", "--p", "0.3",
           "--q", "0.2", "--r", "0.5", "--gates", "6400"]
    SESSION = [["--format", "json"] + K, K,
               SIM + ["--seed", "9"], SIM,
               ["k", "--kind", "laser"], K]

    def test_parser_is_built_once(self):
        assert cli._parsers()[0] is cli._parsers()[0]

    def test_calls_match_a_fresh_parser(self, capsys):
        session = [call(argv, capsys) for argv in self.SESSION]
        fresh = []
        for argv in self.SESSION:
            cli._parsers.cache_clear()
            fresh.append(call(argv, capsys))
        assert session == fresh

        json_k, csv_k, seeded, unseeded, rejected, after = session
        assert json.loads(json_k[1])[0]["kind"] == "thermal-boson"
        assert read_csv(csv_k[1])[0]["kind"] == "thermal-boson"
        assert unseeded != seeded
        assert unseeded == call(self.SIM + ["--seed", "0"], capsys)
        assert rejected[0] == cli.EXIT_VALIDATION
        assert after[0] == cli.EXIT_OK


class TestExtremeInputs:
    """Every subcommand at extreme inputs gives an exit code from 0 to 3
    (the EXACT cases their own), an `error:` line with codes 2 and 3, no
    nan or inf with code 0 (but in the K, R and F rows of `simulate`, which
    a run without counts cannot define), JSON without NaN or Infinity, and
    never an exception."""

    LAW = ["--p", ".3", "--q", ".2", "--r", ".5"]
    SOURCE_COMMANDS = [["source"], ["source", "--pgf", "0.5,-1"], ["k"],
                       ["k"] + LAW, ["simulate", "--gates", "200"] + LAW,
                       ["verify", "--gates", "200"] + LAW]
    FORMS = [["--kind", "coherent"]] + [
        ["--kind", "thermal-boson", "--modes", modes] + flags
        for modes in ("1", "1000000000")
        for flags in ([], ["--unpolarized"], ["--polarization", "0.5"])] + [
        ["--kind", "thermal-fermion"] + flags
        for flags in ([], ["--unpolarized"], ["--polarization", "0.5"])]
    NBARS = ["5e-324", "1e-20", "1e8", "1e15", "1e300"]
    OTHER = [
        ["moments", "--p", "5e-324", "--q", "0.5", "--r", "0.5",
         "--n", "1000000000000000000"],
        ["moments", "--p", "1", "--q", "0", "--r", "0", "--n", "0"],
        ["curve", "--statistics", "boson", "--sweep", "0:1e300:3"],
        ["curve", "--statistics", "fermion", "--unpolarized",
         "--profile", "gaussian", "--sweep", "5e-324:5e-324:1"],
        ["modes", "--x", "0,5e-324,1e300"],
        ["modes", "--profile", "linear-approx", "--integer-part",
         "--sweep", "1e8:1e300:2"],
        ["aspect-grangier", "--f-override", "1e300"],
        ["aspect-grangier", "--gate-ratio", "5e-324",
         "--omega-ratio", "5e-324"],
        ["aspect-grangier", "--reference-pump", "5e-324"],
    ]
    FERMIONS = ["--kind", "thermal-fermion", "--nbar", "0.6", "--modes"]
    EXACT = [
        # the largest int64 gate count, and one past it
        (["simulate", "--kind", "coherent", "--nbar", "1"] + LAW
         + ["--gates", str(2 ** 63 - 1)], 0),
        (["simulate"] + FERMIONS + ["4"] + LAW + ["--gates", str(2 ** 63 - 1)],
         0),
        (["simulate", "--kind", "coherent", "--nbar", "1"] + LAW
         + ["--gates", str(2 ** 63)], 2),
        # a Poisson mean and a binomial order past numpy's samplers
        (["simulate", "--kind", "coherent", "--nbar", "1e19"] + LAW
         + ["--gates", "200"], 3),
        (["simulate"] + FERMIONS + [str(10 ** 29)] + LAW + ["--gates", "200"],
         3),
        # A counts but no B count: K and R are 0/0
        (["verify", "--kind", "coherent", "--nbar", "0.01"] + LAW
         + ["--gates", "200", "--seed", "0"], 3),
        # a table or a sweep longer than TRUNCATION_CAP rows, refused before
        # anything is allocated (745 GiB and 1e11 floats)
        (["source", "--kind", "coherent", "--max-n", "100000000000"], 2),
        (["modes", "--sweep", "0:1:100000000000"], 2),
        # a bounded support cut by the exact-tail rule, as an unbounded one:
        # a mean past the terms read, and 1209 rows of 10**9 + 1
        (["source", "--kind", "thermal-fermion", "--modes", "1000000000",
          "--nbar", "0.5"], 3),
        (["source", "--kind", "thermal-fermion", "--modes", "1000000000",
          "--nbar", "1e-6"], 0),
        # an analytic R of 1e-200 whose p q = 1e-400 underflows: verify
        # names K and R, which a run without counts cannot define
        (["verify", "--kind", "thermal-boson", "--modes", "1", "--nbar", "1",
          "--p", "1e-200", "--q", "1e-200", "--r", "1", "--gates", "200"], 3),
        (["simulate", "--analytic", "--kind", "thermal-boson", "--modes", "1",
          "--nbar", "1", "--p", "1e-200", "--q", "1e-200", "--r", "1",
          "--gates", "200"], 0),
        # <n(n-1)> = mean**2 overflows past a Poisson mean of about 1.3e154
        (["k", "--kind", "coherent", "--nbar", "1e300"], 3),
        (["k"] + LAW + ["--kind", "coherent", "--nbar", "1e300"], 3),
        # M_emp = T_obs * R_obs * Nw / (Nw)_0 overflows
        (["aspect-grangier", "--reference-pump", "5e-324"], 3),
        # f at 1e300 and at the least subnormal: r = Nw/f near 0 and past
        # float range, alpha near 0 and 1
        (["aspect-grangier", "--f-override", "1e300"], 0),
        (["aspect-grangier", "--f-override", "5e-324"], 0),
        # f = (Omega2/Omega1) (1 - exp(-w/tau_s)) underflows to 0
        (["aspect-grangier", "--gate-ratio", "5e-324",
          "--omega-ratio", "5e-324"], 3),
        # a mode count of 201 digits, whose moments or draws overflow, and
        # one of 401 digits, past float range
        *((command + ["--kind", kind, "--modes", str(10 ** digits)], 3)
          for command in (["k"], ["source"],
                          ["simulate", "--gates", "200"] + LAW)
          for kind in ("thermal-boson", "thermal-fermion", "coherent")
          for digits in (200, 400)),
        # a gate whose cross moment passes float range, and one whose count
        # does
        (["moments"] + LAW + ["--n", str(10 ** 200)], 3),
        (["moments"] + LAW + ["--n", str(10 ** 400)], 3),
        # K_n = 1 - 1/n is undefined for an empty gate
        (["moments"] + LAW + ["--n", "0"], 2),
        # nan and inf are refused where they enter
        (["modes", "--x", "inf"], 2),
        (["modes", "--x", "nan"], 2),
        (["curve", "--statistics", "boson", "--sweep", "0:inf:3"], 2),
        (["curve", "--statistics", "boson", "--sweep", "nan:1:3"], 2),
        (["moments", "--p", "nan", "--q", ".5", "--r", ".5"], 2),
        (["source", "--kind", "coherent", "--pgf", "nan"], 2),
        (["source", "--kind", "coherent", "--nbar", "inf", "--pgf", "0.5"], 2),
        (["verify", "--kind", "coherent"] + LAW
         + ["--gates", "200", "--z-max", "nan"], 2),
        (["aspect-grangier", "--reference-pump", "nan"], 2),
    ]

    @staticmethod
    def _non_finite(argv, out):
        """The CSV rows of `out` that hold nan or inf, but for the K, R and F
        rows of `simulate`."""
        rows = [line.split(",") for line in out.splitlines()]
        return [row for row in rows if {"nan", "inf", "-inf"} & set(row)
                and not (argv[0] == "simulate" and row[0] in ("k", "r", "f"))]

    def cases(self):
        return [command + form + ["--nbar", nbar]
                for nbar in self.NBARS for form in self.FORMS
                for command in self.SOURCE_COMMANDS] + self.OTHER + [
            argv for argv, _ in self.EXACT]

    def test_exit_codes(self, capsys):
        exact = {tuple(argv): code for argv, code in self.EXACT}
        bad, codes = [], set()
        for argv in self.cases():
            code, out, err = call(argv, capsys)
            codes.add(code)
            if (code not in (0, 1, 2, 3)
                    or code != exact.get(tuple(argv), code)
                    or code in (2, 3) and not err.startswith("error:")
                    or code == 0 and self._non_finite(argv, out)):
                bad.append((argv, code, err))
        assert bad == []
        assert {0, 2, 3} <= codes

    def test_json_is_strict(self, capsys):
        for argv in self.cases():
            code, out, _ = call(["--format", "json"] + argv, capsys)
            if code in (0, 1):
                json.loads(out, parse_constant=_refuse)


def readme_commands():
    """The `hbtcount ...` lines of README's "Command line" block, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("hbtcount ")]


class TestReadme:
    def test_block_is_found(self):
        assert len(readme_commands()) >= 4

    @pytest.mark.parametrize("argv", readme_commands())
    def test_command_line_examples_succeed(self, argv, capsys):
        code, out = run(argv, capsys)
        assert code == cli.EXIT_OK
        assert out


def cli_short_lines():
    """Command lines of every shape the short-session benchmark runs, and
    the simulate line whose own --seed overrides the global one."""
    law = ["--p", "0.3", "--q", "0.2", "--r", "0.5"]
    lines = []
    for kind in (["--kind", "coherent"], ["--kind", "thermal-boson"],
                 ["--kind", "thermal-fermion"]):
        forms = [[]] if kind[1] == "coherent" else [
            [], ["--unpolarized"], ["--polarization", "0.4"]]
        for form in forms:
            source = kind + ["--modes", "3", "--nbar", "0.6"] + form
            run_flags = source + law + ["--gates", "10240"]
            lines += [
                ["--seed", "7", "verify"] + run_flags + ["--z-max", "5"],
                ["simulate"] + run_flags + ["--seed", "7", "--analytic"],
                ["simulate"] + run_flags + ["--seed", "7"],
                ["k"] + source, ["k"] + source + law, ["source"] + source,
                ["source"] + source + ["--pgf", "0.1,0.25,0.5"]]
    lines += [
        ["moments"] + law + ["--n", "3"],
        ["curve", "--statistics", "boson", "--profile", "gaussian",
         "--sweep", "0:20:40"],
        ["modes", "--profile", "linear-approx", "--x", "0.5,2.25,17"],
        ["aspect-grangier"],
        ["verify", "--kind", "coherent", "--mean", "1e8"] + law
        + ["--gates", "100000", "--seed", "5"],
        ["--seed", "7", "simulate", "--kind", "coherent"] + law
        + ["--seed", "9"]]
    return lines + [["--format", "json"] + line for line in lines]


K_LINE = ["k", "--kind", "coherent", "--nbar", "2"]
MALFORMED_LINES = [
    ["--precision", "x"] + K_LINE, ["--format", "xml"] + K_LINE,
    ["--out", "-x"] + K_LINE, ["--out", "--=x"] + K_LINE,
    ["--seed", "-1"] + K_LINE,
    ["--form", "json"] + K_LINE, ["--format=json"] + K_LINE,
    ["-h"], ["k", "-h"], ["--format", "json", "k", "-h"], [], ["nosuch"],
    ["--seed", "3"], ["--seed"], K_LINE + ["--format", "json"],
    K_LINE + ["extra"], K_LINE + ["--=x"], K_LINE + ["-=x"],
    K_LINE + ["--", "--modes", "2"],
    ["k", "--kind", "thermal-boson", "--polarized", "--unpolarized"],
    ["k", "--nbar", "2"],
    ["moments", "--p", "x", "--q", "0.2", "--r", "0.5"],
]


def parse_outcome(parse, argv, capsys):
    """The namespace `parse(argv)` gives, as a dict, or its exit code,
    stdout and stderr."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def redirected_outcome(parse, argv):
    """`parse_outcome` without capsys, which hypothesis refuses as a
    fixture shared by its examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


# Value tokens by a flag's type: valid ones first, then a negative number,
# a token argparse takes for a flag, and one its type refuses.  No nan,
# which no namespace equals.
VALUE_TOKENS = {int: ["3", "10240", "0", "-1", "--", "2.5"],
                float: ["0.5", "1e-3", "inf", "-2", "-x", "x"],
                str: ["0:2:5", "0.1,0.5", "a b", "-1", "--=x", "-x"]}


@st.composite
def command_lines(draw):
    """A command line built from the flag tables: mostly global flags, a
    command, its required flags and some more, each by its exact name
    and a valid value, mixed with invalid values, abbreviations, "="
    forms, flags without a value, repeats, misplaced
    global flags, "--", help and stray tokens."""
    tables = cli._tables()
    everywhere = {name: spec for specs, _, _ in tables.values()
                  for name, spec in specs.items()}

    def flag(name, valid):
        spec = everywhere.get(name)
        if spec is None or spec[3] is not None:
            return [name]
        _, convert, choices, _ = spec
        values = [*choices, "nosuch"] if choices else VALUE_TOKENS[convert]
        value = values[0] if valid else draw(st.sampled_from(values))
        form = "exact" if valid else draw(st.sampled_from(
            ["exact"] * 4 + ["abbreviation", "equals", "bare"]))
        if form == "abbreviation" and len(name) > 3:
            return [name[:draw(st.integers(3, len(name) - 1))], value]
        if form == "equals":
            return [f"{name}={value}"]
        return [name] if form == "bare" else [name, value]

    def flags(specs, strays):
        names = sorted(specs) + strays
        return [token for _ in range(draw(st.integers(0, 4)))
                for token in flag(draw(st.sampled_from(names)),
                                  draw(st.integers(0, 3)) > 0)]

    line = flags(tables[None][0], ["--kind", "nosuch"])
    command = draw(st.sampled_from(
        [name for name in tables if name is not None] + ["nosuch", None]))
    if command is None:
        return line
    specs, _, required = tables.get(command, ({}, {}, set()))
    line.append(command)
    for name, spec in specs.items():
        if spec[0] in required and draw(st.integers(0, 5)) > 0:
            line += flag(name, True)
    strays = ["--format", "--precision", "--", "-h", "extra"]
    return line + flags(specs, strays if draw(st.booleans()) or not specs
                        else [])


class TestParse:
    """`cli._parse` reads a command line as argparse's nested parse does,
    and reads the common shapes without it."""

    @pytest.mark.parametrize("argv", cli_short_lines() + readme_commands()
                             + MALFORMED_LINES)
    def test_matches_the_nested_parse(self, argv, capsys):
        assert parse_outcome(cli._parse, argv, capsys) == parse_outcome(
            cli._parsers()[0].parse_args, argv, capsys)

    def test_common_shapes_skip_the_nested_parse(self, monkeypatch, capsys):
        def nested(*args, **kwargs):
            raise AssertionError("nested parse")
        top = cli._parsers()[0]
        monkeypatch.setattr(top, "parse_args", nested)
        monkeypatch.setattr(top, "parse_known_args", nested)
        for argv in cli_short_lines() + readme_commands():
            assert cli._parse(argv).command in argv
        # nor do they build the argparse parsers, which help builds
        cli._parsers.cache_clear()
        for argv in cli_short_lines() + readme_commands():
            cli._parse(argv)
        assert cli._parsers.cache_info().currsize == 0
        with pytest.raises(SystemExit):
            cli._parse(["k", "-h"])
        assert capsys.readouterr().out.startswith("usage: hbtcount k")
        assert cli._parsers.cache_info().currsize == 1

    @given(line=command_lines())
    @settings(max_examples=300, deadline=None)
    def test_random_lines_match_argparse(self, line):
        assert redirected_outcome(cli._parse, line) == redirected_outcome(
            cli._parsers()[0].parse_args, line)

    def test_command_seed_overrides_the_global_seed(self):
        args = cli._parse(["--seed", "7", "simulate", "--kind", "coherent",
                           "--seed", "9"])
        assert args.seed == 9
        assert cli._parse(["--seed", "7", "verify", "--kind",
                           "coherent"]).seed == 7
