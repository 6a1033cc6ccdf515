import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from hbtcount import cli, gaussian_mode_count, sources, thermal_k


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

    def test_law_flags_add_r_column(self, capsys):
        code, out = run(["k", "--kind", "thermal-boson", "--modes", "2",
                         "--nbar", "0.5", "--p", "0.25", "--q", "0.25",
                         "--r", "0.5"], capsys)
        row = read_csv(out)[0]
        assert float(row["R"]) > 0.0


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
    def test_boson_occupancy_past_float_resolution_is_domain_error(
            self, capsys, command):
        # nbar / (1 + nbar) rounds to 1 from nbar = 2**53 on
        argv = [command, "--kind", "thermal-boson", "--modes", "1",
                "--nbar", "1e17"]
        if command == "verify":
            argv += ["--p", ".3", "--q", ".2", "--r", ".5", "--gates", "1000"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error:")
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
        argv = [command, "--kind", "coherent", "--nbar", "1e-200"]
        if command == "verify":
            argv += ["--p", ".3", "--q", ".2", "--r", ".5", "--gates", "200"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_DOMAIN
        assert captured.err.startswith("error:")
        assert "mean <n> = 1e-200" in captured.err
        assert captured.out == ""

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


class TestOutputHandling:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out = run(["--out", str(target), "k", "--kind", "thermal-boson",
                         "--modes", "1", "--nbar", "1.0"], capsys)
        assert code == cli.EXIT_OK
        assert out == ""
        assert float(read_csv(target.read_text())[0]["K"]) == \
            pytest.approx(2.0)

    def test_precision_flag(self, capsys):
        _, out = run(["--precision", "3", "modes", "--x", "3.6"], capsys)
        value = read_csv(out)[0]["M"]
        assert value == "4.18"

    def test_precision_out_of_range(self, capsys):
        code, _ = run(["--precision", "0", "modes", "--x", "1.0"], capsys)
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        # k_n is undefined at n = 0
        ["moments", "--p", ".3", "--q", ".2", "--r", ".5", "--n", "0"],
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
            cli._build_parser().parse_args(["source"] + flags))
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
        assert cli._build_parser() is cli._build_parser()

    def test_calls_match_a_fresh_parser(self, capsys):
        session = [call(argv, capsys) for argv in self.SESSION]
        fresh = []
        for argv in self.SESSION:
            cli._build_parser.cache_clear()
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
        # <n(n-1)> = mean**2 overflows past a Poisson mean of about 1.3e154
        (["k", "--kind", "coherent", "--nbar", "1e300"], 3),
        (["k"] + LAW + ["--kind", "coherent", "--nbar", "1e300"], 3),
        # M_emp = T_obs * R_obs * Nw / (Nw)_0 overflows
        (["aspect-grangier", "--reference-pump", "5e-324"], 3),
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
