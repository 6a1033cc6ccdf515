"""The three benchmark workloads, generated from a seed.

Each workload is a list of operations.  ``Op.call`` makes the calls into
``hbtcount`` that are timed; ``Op.check`` verifies the output outside the
timed section and returns the operation's verdict; ``Op.digest`` gives the
canonical text of the output that goes into the run's result digest.

Program functions are always reached as module attributes at call time
(``mc.simulate_series``), so that the tracer's wrappers see them.

Why these workloads:

* ``mc_grid`` -- the 12-point Monte Carlo acceptance grid at 10^6 gates a
  point.  Occupancy sampling, binomial thinning and block sums do nearly
  all the work; the analytic pmf path does none.
* ``source_tables`` -- the analytic path of the ``source`` command over all
  kinds, mode counts and occupancies.  The per-term pmf and its O(N^2)
  convolution dominate; no Monte Carlo runs, so an MC change should leave
  it unchanged.
* ``cli_short`` -- one closed-loop client making short in-process CLI
  calls.  Fixed per-command costs dominate (argument parsing, rendering,
  keying the block streams, reducing blocks), so work moved into per-run
  set-up shows here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Verdicts: the output checked out; the program reported a failure (a
# non-zero exit code or a verification miss); the program reported success
# but its output is wrong.
OK, FAILED, WRONG = "ok", "failed", "wrong"

GRID_GATES = 10 ** 6
SMALL_GATES = 2 * 10 ** 4


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], str]
    digest: Callable[[object], str]
    items: Callable[[object], int]
    pmf_rows: Callable[[object], int] = lambda out: 0


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


# -- mc_grid ----------------------------------------------------------------

def _acceptance_grid(hbt):
    """The (source, law) points of the Monte Carlo acceptance criterion."""
    S, T = hbt.SourceLaw, hbt.TernaryLaw
    law_a, law_b, law_c = T(0.3, 0.2, 0.5), T(0.25, 0.25, 0.5), T(0.1, 0.15, 0.75)
    return [
        (S("coherent", modes=1, nbar=1.0), law_a),
        (S("coherent", modes=3, nbar=0.4), law_b),
        (S("boson-polarized", modes=1, nbar=1.0), law_c),
        (S("boson-polarized", modes=5, nbar=0.5), law_a),
        (S("boson-unpolarized", modes=2, nbar=1.0), law_b),
        (S("boson-partial", modes=4, nbar=1.0, polarization=0.5), law_c),
        (S("fermion-polarized", modes=1, nbar=1.0), law_a),
        (S("fermion-polarized", modes=5, nbar=0.5), law_b),
        (S("fermion-unpolarized", modes=3, nbar=0.8), law_c),
        (S("fermion-partial", modes=4, nbar=0.6, polarization=0.5), law_a),
        (S("boson-polarized", modes=20, nbar=0.1), law_b),
        (S("fermion-polarized", modes=14, nbar=0.3), law_c),
    ]


def mc_grid(hbt, rng: random.Random, small: bool) -> list[Op]:
    mc, stats = hbt.mc, hbt.stats
    gates = SMALL_GATES if small else GRID_GATES
    ops = []
    for src, law in _acceptance_grid(hbt):
        cfg = mc.SimulationConfig(law=law, source=src, gates=gates,
                                  seed=rng.randrange(2 ** 32))

        def call(cfg=cfg):
            report = mc.simulate_series(cfg)
            sm = stats.series_moments(cfg.law, cfg.source)
            analytic = {"k": sm.k_ratio,
                        "r": stats.exact_correlation(cfg.law, cfg.source),
                        "f": sm.fano}
            return report, mc.verify(report, analytic, z_max=4.0)

        ops.append(Op(
            call=call,
            check=lambda out: OK if all(e["pass"] for e in out[1].values())
            else FAILED,
            digest=lambda out: _canonical([out[0].as_dict(), out[1]]),
            items=lambda out: out[0].gates))
    return ops


# -- source_tables ----------------------------------------------------------

MODE_COUNTS = (1, 5, 20, 100)
BOSON_NBARS = (0.3, 1.0, 4.0)
FERMION_NBARS = (0.3, 1.0)
# Fixed, not drawn from the seed: the O(N^2) cost of the largest partial
# table dominates the pass and grows fast with the polarization.
PARTIAL_POLARIZATION = 0.5
MOMENT_TAIL = 60       # extra terms past the cutoff when checking moments
TABLE1_EXPECTED = {2: 49, 3: 64, 4: 202, 5: 455, 6: 492, 7: 367}
TABLE1_CALCULATED_K = {2: 12, 3: 21, 4: 91, 5: 279, 6: 343, 7: 280}
CURVE_POINTS = 250


def _closed_form_k(hbt, src):
    """K from the thermal closed forms, or None for the partial kinds."""
    if src.kind == "coherent":
        return 1.0
    statistics, suffix = src.kind.split("-")
    if suffix == "partial":
        return None
    return hbt.stats.thermal_k(statistics, src.modes,
                               polarized=(suffix == "polarized"))


def _table_op(hbt, src) -> Op:
    sources = hbt.sources

    def call():
        cutoff = sources.support_cutoff(src)
        table = [sources.source_pmf(src, n) for n in range(cutoff + 1)]
        return (table, sources.poisson_tv_distance(src),
                sources.source_factorial_moments(src))

    def check(out):
        table, tv, fm = out
        if math.fsum(table) < sources.TRUNCATION_MASS or not 0.0 <= tv <= 1.0:
            return WRONG
        tail = [] if src.max_count is not None else [
            sources.source_pmf(src, n)
            for n in range(len(table), len(table) + MOMENT_TAIL)]
        weights = list(enumerate(table + tail))
        mean = math.fsum(n * w for n, w in weights)
        f2 = math.fsum(n * (n - 1) * w for n, w in weights)
        if not (math.isclose(mean, fm.mean, rel_tol=1e-8)
                and math.isclose(f2, fm.factorial2, rel_tol=1e-8,
                                 abs_tol=1e-12)):
            return WRONG
        k = _closed_form_k(hbt, src)
        if k is not None and not math.isclose(fm.factorial2 / fm.mean ** 2, k,
                                              rel_tol=1e-10, abs_tol=1e-12):
            return WRONG
        return OK

    return Op(call=call, check=check,
              digest=lambda out: _canonical([src.kind, src.modes, src.nbar,
                                             src.polarization, out[0], out[1],
                                             vars(out[2])]),
              items=lambda out: len(out[0]),
              pmf_rows=lambda out: len(out[0]))


def _table1_op(hbt) -> Op:
    ac = hbt.anticorrelation

    def check(report):
        for row in report:
            number = row["row"]
            if number == 1:
                if not row["anomalous"]:
                    return WRONG
            elif (abs(row["expected"] - TABLE1_EXPECTED[number]) > 1
                  or abs(row["calculated_k"] - TABLE1_CALCULATED_K[number]) > 1):
                return WRONG
        return OK

    return Op(call=lambda: ac.table1_report(), check=check,
              digest=_canonical, items=len)


def _curve_op(hbt, statistics, polarized, shape, top) -> Op:
    modes = hbt.modes
    profile = modes.ModeProfile(shape=shape)
    sweep = [top * i / (CURVE_POINTS - 1) for i in range(CURVE_POINTS)]
    # the accidental level K = 1 is approached from above by bosons and
    # from below by fermions
    sign = 1.0 if statistics == "boson" else -1.0

    def check(curve):
        ms = [m for _, m, _ in curve]
        ks = [k for _, _, k in curve]
        if len(curve) != len(sweep) or min(ms) < 1.0 - 1e-12:
            return WRONG
        if any(b < a - 1e-12 for a, b in zip(ms, ms[1:])):
            return WRONG
        if any(sign * (k - 1.0) < 0.0 or abs(k - 1.0) > 1.0 for k in ks):
            return WRONG
        return OK

    return Op(call=lambda: modes.coincidence_curve(statistics, polarized,
                                                   profile, sweep),
              check=check, digest=_canonical, items=len)


def source_tables(hbt, rng: random.Random, small: bool) -> list[Op]:
    mode_counts = MODE_COUNTS[:2] if small else MODE_COUNTS
    ops = []
    for kind in hbt.sources.KINDS:
        nbars = FERMION_NBARS if kind.startswith("fermion") else BOSON_NBARS
        pol = PARTIAL_POLARIZATION if kind.endswith("partial") else None
        for modes in mode_counts:
            for nbar in nbars[:2] if small else nbars:
                ops.append(_table_op(hbt, hbt.SourceLaw(
                    kind, modes=modes, nbar=nbar, polarization=pol)))
    rng.shuffle(ops)
    ops.append(_table1_op(hbt))
    for statistics in ("boson", "fermion"):
        for polarized in (True, False):
            ops.append(_curve_op(hbt, statistics, polarized, rng.choice(PROFILES),
                                 top=round(rng.uniform(20.0, 60.0), 3)))
    return ops


# -- cli_short --------------------------------------------------------------

CLI_COMMANDS = 220     # p95 over the session keeps 11 samples beyond it
MC_COMMANDS = 130
# Multiples of 64, so the 64 blocks are equal and no short remainder block
# is left to trip the defect probed by KNOWN_DEFECTS[1].
CLI_GATES = (10240, 20480, 30720, 40960, 49920)
OVERFLOW_COMMANDS = 4

# Commands that should exit 0 but exit 1 today.  They stay in every session
# so that error_rate shows them until they are fixed.
KNOWN_DEFECTS = [
    # K is exactly 0 for one polarized fermion mode, with zero stderr; the
    # analytic K comes out as 1.1e-16, so z is infinite.
    ["verify", "--kind", "thermal-fermion", "--modes", "1", "--nbar", "0.864",
     "--p", "0.2", "--q", "0.35", "--r", "0.45", "--gates", "10000",
     "--seed", "1"],
    # 10000 gates leave a 16-gate remainder block; with this seed it has no
    # count in the second detector, its K is nan, and so is the stderr.
    ["verify", "--kind", "thermal-fermion", "--modes", "1", "--nbar", "0.71",
     "--polarization", "0.258", "--p", "0.3", "--q", "0.2", "--r", "0.5",
     "--gates", "10000", "--seed", "1126723668"],
]
LAWS = (("0.3", "0.2", "0.5"), ("0.25", "0.25", "0.5"), ("0.4", "0.3", "0.3"),
        ("0.2", "0.35", "0.45"))

MC_COLUMNS = ["statistic", "estimate", "stderr"]
VERIFY_COLUMNS = MC_COLUMNS + ["analytic", "z", "pass"]
MOMENTS_COLUMNS = ["n", "p", "q", "r", "mean_xi", "var_xi", "mean_eta",
                   "var_eta", "cross", "k_n", "r_coeff"]
PROFILES = ("gaussian", "lorentzian", "linear-approx")
TABLE1_COLUMNS = ["row", "Nw", "gates", "n_2r", "n_2t", "accidental",
                  "expected", "alpha_qm", "k_mode", "modes",
                  "calculated_alpha", "calculated_k", "measured", "T_obs",
                  "R_obs", "M_emp", "relative_difference", "anomalous"]


def _source_flags(rng: random.Random, slot: int, min_modes: int = 1
                  ) -> list[str]:
    """Source flags for one of the seven kinds, cycling with ``slot``.

    Every choice keeps at least ~15 expected counts per detector in each of
    the 64 blocks of a 10^4-gate run, so no block statistic is undefined.
    """
    modes = str(rng.randint(min_modes, 6))
    fermion_nbar = str(round(rng.uniform(0.5, 0.9), 3))
    boson_nbar = str(round(rng.uniform(1.0, 2.0), 3))
    pol = str(round(rng.uniform(0.2, 0.8), 3))
    return [
        ["--kind", "coherent", "--modes", modes, "--nbar", boson_nbar],
        ["--kind", "thermal-boson", "--modes", modes, "--nbar", boson_nbar],
        ["--kind", "thermal-boson", "--modes", modes, "--nbar", boson_nbar,
         "--unpolarized"],
        ["--kind", "thermal-boson", "--modes", modes, "--nbar", boson_nbar,
         "--polarization", pol],
        ["--kind", "thermal-fermion", "--modes", modes, "--nbar", fermion_nbar],
        ["--kind", "thermal-fermion", "--modes", modes, "--nbar", fermion_nbar,
         "--unpolarized"],
        ["--kind", "thermal-fermion", "--modes", modes, "--nbar", fermion_nbar,
         "--polarization", pol],
    ][slot % 7]


def _law_flags(rng: random.Random) -> list[str]:
    p, q, r = rng.choice(LAWS)
    return ["--p", p, "--q", q, "--r", r]


def _mc_command(rng: random.Random, slot: int):
    gates = str(CLI_GATES[slot % len(CLI_GATES)])
    seed = str(rng.randrange(2 ** 31))
    # two modes at least, away from the single-fermion-mode defect
    flags = (_source_flags(rng, slot, min_modes=2) + _law_flags(rng)
             + ["--gates", gates])
    if slot % 2:
        # z 5 keeps a statistical miss rare among the ~325 verified
        # statistics of a session (about 1e-6 each)
        return (["--seed", seed, "verify"] + flags + ["--z-max", "5"],
                VERIFY_COLUMNS)
    if rng.random() < 0.5:
        return (["simulate"] + flags + ["--seed", seed, "--analytic"],
                MC_COLUMNS + ["analytic"])
    return ["simulate"] + flags + ["--seed", seed], MC_COLUMNS


def _other_command(rng: random.Random, slot: int):
    kind = slot % 7
    if kind == 0:
        law = _law_flags(rng) if rng.random() < 0.5 else []
        return ["k"] + _source_flags(rng, rng.randrange(7)) + law, None
    if kind == 1:
        p, q, r = rng.choice(LAWS)
        return (["moments", "--p", p, "--q", q, "--r", r,
                 "--n", str(rng.randint(1, 8))], MOMENTS_COLUMNS)
    if kind == 2:
        return ["source"] + _source_flags(rng, rng.randrange(7)), ["n", "pmf"]
    if kind == 3:
        zs = ",".join(str(round(rng.uniform(0.0, 0.5), 3)) for _ in range(5))
        return (["source"] + _source_flags(rng, rng.randrange(7))
                + ["--pgf", zs], ["z", "pgf"])
    if kind == 4:
        sweep = f"0:{rng.randint(5, 40)}:{rng.randint(10, 200)}"
        return (["curve", "--statistics", rng.choice(("boson", "fermion")),
                 "--profile", rng.choice(PROFILES), "--sweep", sweep],
                ["x", "M", "K"])
    if kind == 5:
        xs = ",".join(str(round(rng.uniform(0.0, 30.0), 3)) for _ in range(8))
        return (["modes", "--profile", rng.choice(PROFILES), "--x", xs],
                ["x", "M"])
    return ["aspect-grangier"], TABLE1_COLUMNS


def _cli_op(hbt, argv: list[str], columns: list[str] | None) -> Op:
    """One CLI call.  Every command in the mix should exit 0."""
    cli = hbt.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return FAILED
        try:
            rows = (json.loads(text) if "json" in argv
                    else list(csv.DictReader(io.StringIO(text))))
        except ValueError:
            return WRONG
        if not rows:
            return WRONG
        keys = list(rows[0])
        if columns is None:  # ``k``: R appears for some inputs only
            wanted = ["kind", "mean", "fano", "K"]
            if keys[:4] != wanted or keys[4:] not in ([], ["R"]) or \
                    ("--p" in argv and keys[4:] != ["R"]):
                return WRONG
        elif keys != columns:
            return WRONG
        if "verify" in argv and not all(
                str(row["pass"]) in ("True", "true") for row in rows):
            return WRONG
        return OK

    def pmf_rows(result):
        if columns != ["n", "pmf"] or result[0] != 0:
            return 0
        text = result[1]
        return len(json.loads(text)) if "json" in argv \
            else len(text.splitlines()) - 1

    return Op(call=call, check=check,
              digest=lambda result: _canonical(list(result)),
              items=lambda result: 1, pmf_rows=pmf_rows)


def cli_short(hbt, rng: random.Random, small: bool) -> list[Op]:
    total = 24 if small else CLI_COMMANDS
    n_mc = total * MC_COMMANDS // CLI_COMMANDS
    n_overflow = max(1, total * OVERFLOW_COMMANDS // CLI_COMMANDS)
    n_other = total - n_mc - n_overflow - len(KNOWN_DEFECTS)
    commands = [_mc_command(rng, slot) for slot in range(n_mc)]
    commands += [_other_command(rng, slot) for slot in range(n_other)]
    # Known defect: the int64 block sums of n^2 wrap at this mean, so F
    # comes out near -1.2e8 and verify exits 1 instead of 0.
    commands += [(["verify", "--kind", "coherent", "--mean", "1e8",
                   "--p", ".3", "--q", ".2", "--r", ".5",
                   "--gates", "100000", "--seed", str(rng.randrange(2 ** 31))],
                  VERIFY_COLUMNS) for _ in range(n_overflow)]
    commands += [(list(argv), VERIFY_COLUMNS) for argv in KNOWN_DEFECTS]
    for argv, _ in commands:
        if rng.random() < 0.3:
            argv[:0] = ["--format", "json"]
    rng.shuffle(commands)
    return [_cli_op(hbt, *command) for command in commands]


WORKLOADS = {"mc_grid": mc_grid, "source_tables": source_tables,
             "cli_short": cli_short}
