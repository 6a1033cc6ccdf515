import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from hbtcount import cli, gaussian_mode_count, thermal_k


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    def test_source_pgf_table(self, capsys):
        code, out = run(["source", "--kind", "coherent", "--mean", "1.0",
                         "--pgf", "0,1"], capsys)
        rows = read_csv(out)
        assert float(rows[0]["pgf"]) == pytest.approx(0.367879, rel=1e-5)
        assert float(rows[1]["pgf"]) == pytest.approx(1.0)


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
