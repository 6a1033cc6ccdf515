"""Command-line frontend.

Subcommands: moments, source, k, curve, modes, aspect-grangier, simulate,
verify.  Output is CSV (default) or JSON, written to stdout or --out, each
float rounded to --precision significant digits.  JSON output is
json.dumps(rows, indent=2) of the rounded rows, byte for byte, with null
for a float that is not finite.
Exit codes: 0 success, 1 failed verification, 2 validation error (an
--out path that cannot be written or a --data path that cannot be read
among them), 3 numeric domain error.  One rule holds for every flag: a
flag the source kind or the command would ignore, or two flags that
contradict each other (a pair of `_EXCLUSIVE`, which `main` checks for
every command), exits 2.

The global flags (--format, --out, --precision, --seed) go before the
command; simulate and verify also take a --seed of their own, which wins.
The reader `_parse` takes a command line straight from the flag tables
when each flag is given by its exact name and its value as a token of its
own; every other line falls back to argparse, which prints every help and
error text and builds its parsers only then.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite

from . import anticorrelation as ac
from . import mc, modes, sources, stats
from .elementary import (TernaryLaw, _count, sequence_k, sequence_moments,
                         sequence_r)
from .errors import DomainError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


# -- output helpers --------------------------------------------------------


def _render(rows: list[dict], fmt: str, precision: int) -> str:
    """The rows as CSV or JSON text, each float rounded to `precision`
    significant digits.

    Every handler's rows carry the first row's keys, so each row's values
    are taken in that order, with no per-row key check.  JSON is written
    here in `json.dumps(rows, indent=2)`'s exact layout, which json itself
    writes with its pure-Python encoder whenever `indent` is set: each key
    is encoded once, and each value becomes text in one expression.  RFC
    8259 has no nan or inf, so a float that is not finite once rounded is
    null.
    """
    spec = f".{precision}g"
    header = list(rows[0])
    if fmt == "json":
        # one %-template a row; a key's own % signs are escaped
        template = "  {\n" + ",\n".join(
            f"    {_encode_str(k).replace('%', '%%')}: %s" for k in header
        ) + "\n  }"
        return "[\n" + ",\n".join([template % tuple([
            (repr(x) if isfinite(x := float(format(v, spec))) else "null")
            if isinstance(v, float) else
            _encode_str(v) if isinstance(v, str) else
            ("true" if v else "false") if isinstance(v, bool) else
            "null" if v is None else
            int.__repr__(v)
            for v in map(row.__getitem__, header)]) for row in rows]) + "\n]\n"
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(header)
    writer.writerows([[format(v, spec) if isinstance(v, float) else v
                       for v in map(row.__getitem__, header)] for row in rows])
    return buf.getvalue()


def _parse_sweep(spec: str) -> list[float]:
    try:
        lo, hi, steps = spec.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError("sweep must be formatted as x0:x1:steps") from None
    if not 1 <= steps <= sources.TRUNCATION_CAP or hi < lo:
        raise ValueError(f"sweep needs x1 >= x0 and 1 to "
                         f"{sources.TRUNCATION_CAP} steps")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# -- source construction from flags ---------------------------------------

# The source flags each kind takes; a kind refuses the others when given.
_THERMAL_FLAGS = ("modes", "nbar", "polarized", "unpolarized", "polarization")
_SOURCE_FLAGS = ("mean", *_THERMAL_FLAGS)
_KIND_FLAGS = {"coherent": ("modes", "nbar", "mean"),
               "thermal-boson": _THERMAL_FLAGS,
               "thermal-fermion": _THERMAL_FLAGS}
# Pairs of flags, by dest, that contradict each other: `main` refuses
# both given, the one rule for every command, as a command's namespace
# holds None for a flag it does not take.
_EXCLUSIVE = (("mean", "modes"), ("mean", "nbar"),
              ("polarized", "unpolarized"), ("polarized", "polarization"),
              ("unpolarized", "polarization"), ("x", "sweep"),
              ("pgf", "max_n"), ("f_override", "gate_ratio"),
              ("f_override", "omega_ratio"))


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _source_from_args(args) -> sources.SourceLaw:
    """The source the flags name; a given flag the kind does not take
    raises ValueError.  `main` refuses --mean with --modes or --nbar, so
    --mean is the nbar of one mode."""
    taken = _KIND_FLAGS[args.kind]
    for dest in _SOURCE_FLAGS:
        if dest not in taken and getattr(args, dest) is not None:
            raise ValueError(f"{_flag(dest)} does not apply to --kind "
                             f"{args.kind}")
    polarity = ("partial" if args.polarization is not None else
                "unpolarized" if args.unpolarized else "polarized")
    kind = ("coherent" if args.kind == "coherent" else
            f"{args.kind.removeprefix('thermal-')}-{polarity}")
    given = {"modes": args.modes, "polarization": args.polarization,
             "nbar": args.nbar if args.mean is None else args.mean}
    return sources.SourceLaw(kind, **{name: value for name, value
                                      in given.items() if value is not None})


def _law_from_args(args) -> TernaryLaw | None:
    given = [v is not None for v in (args.p, args.q, args.r)]
    if not any(given):
        return None
    if not all(given):
        raise ValueError("p, q and r must be given together")
    return TernaryLaw(args.p, args.q, args.r)


# -- subcommands -----------------------------------------------------------


def _cmd_moments(args) -> list[dict]:
    law = TernaryLaw(args.p, args.q, args.r)
    sm = sequence_moments(law, args.n)
    return [{
        "n": sm.n, "p": law.p, "q": law.q, "r": law.r,
        "mean_xi": sm.mean_xi, "var_xi": sm.var_xi,
        "mean_eta": sm.mean_eta, "var_eta": sm.var_eta,
        "cross": sm.cross,
        "k_n": sequence_k(args.n),
        "r_coeff": sequence_r(law),
    }]


def _cmd_source(args) -> list[dict]:
    src = _source_from_args(args)
    if args.pgf is not None:
        zs = [float(z) for z in args.pgf.split(",")]
        return [{"z": z, "pgf": sources.source_pgf(src, z)} for z in zs]
    if args.max_n is None:
        window = sources._support_window(src)
    else:
        window = sources._window(src, _count(
            args.max_n, "--max-n", 0, sources.TRUNCATION_CAP + 1))
    return [{"n": n, "pmf": w} for n, w in enumerate(window.tolist())]


def _cmd_k(args) -> list[dict]:
    src = _source_from_args(args)
    fm = sources.source_factorial_moments(src)
    row = {"kind": args.kind, "mean": fm.mean, "fano": fm.fano,
           "K": fm.k_ratio}
    law = _law_from_args(args)
    if law is not None:
        sm = stats.series_moments(law, src)
        row["R"] = sm.r_coeff
    elif fm.mandel_q == 0.0:  # R = 0 for every law
        row["R"] = 0.0
    return [row]


def _cmd_curve(args) -> list[dict]:
    profile = modes.ModeProfile(shape=args.profile,
                                integer_part=args.integer_part)
    sweep = _parse_sweep(args.sweep)
    curve = modes.coincidence_curve(
        args.statistics, not args.unpolarized, profile, sweep)
    return [{"x": x, "M": m, "K": k} for x, m, k in curve]


def _cmd_modes(args) -> list[dict]:
    profile = modes.ModeProfile(shape=args.profile,
                                integer_part=args.integer_part)
    if args.x is not None:
        xs = [float(v) for v in args.x.split(",")]
    elif args.sweep is not None:
        xs = _parse_sweep(args.sweep)
    else:
        raise ValueError("modes requires --x or --sweep")
    return [{"x": x, "M": profile.count(x)} for x in xs]


def _cmd_aspect_grangier(args) -> list[dict]:
    gate_ratio, omega = args.gate_ratio, args.omega_ratio
    if gate_ratio is None and omega is None:
        f = ac.DEFAULT_F if args.f_override is None else args.f_override
    else:  # `main` refuses --f-override with either ratio
        f = ac.gate_overlap(
            ac.DEFAULT_GATE_RATIO if gate_ratio is None else gate_ratio, 1.0,
            ac.DEFAULT_OMEGA_RATIO if omega is None else omega)
    if args.data is None:
        records = ac.load_table1()
    else:
        try:
            records = ac.load_table1(args.data)
        except OSError as exc:
            raise ValueError(f"cannot read --data {args.data}: "
                             f"{exc.strerror or exc}") from None
    return ac.table1_report(records, f=f, reference_pump=args.reference_pump)


def _simulation_config(args) -> mc.SimulationConfig:
    law = _law_from_args(args)
    if law is None:
        raise ValueError("simulation requires --p, --q and --r")
    return mc.SimulationConfig(law=law, source=_source_from_args(args),
                               gates=args.gates, seed=args.seed)


def _analytic_values(cfg: mc.SimulationConfig) -> dict:
    sm = stats.series_moments(cfg.law, cfg.source)
    return {
        "k": sm.k_ratio,
        "r": stats.exact_correlation(cfg.law, cfg.source),
        "f": sm.fano,
        "mean_xi": sm.mean_xi,
        "mean_eta": sm.mean_eta,
    }


def _cmd_simulate(args) -> list[dict]:
    cfg = _simulation_config(args)
    report = mc.simulate_series(cfg)
    gates = float(report.gates)
    rows = [{"statistic": name, "estimate": est.value, "stderr": est.stderr}
            for name in report.STATISTICS for est in [report.estimate(name)]]
    rows.append({"statistic": "gates", "estimate": gates, "stderr": 0.0})
    if args.analytic:
        analytic = {**_analytic_values(cfg), "gates": gates}
        for row in rows:
            row["analytic"] = analytic[row["statistic"]]
    return rows


def _cmd_verify(args) -> list[dict]:
    cfg = _simulation_config(args)
    report = mc.simulate_series(cfg)
    result = mc.verify(report, _analytic_values(cfg), z_max=args.z_max)
    return [{"statistic": name, **entry} for name, entry in result.items()]


# -- argument parser -------------------------------------------------------

# Each flag once, as (name, add_argument keywords).  A flag `_KIND_FLAGS`
# or `_EXCLUSIVE` names defaults to None, so a given one is visible.
_GLOBAL = (("--format", dict(choices=["csv", "json"], default="csv")),
           ("--out", dict(help="output path (default stdout)")),
           ("--precision", dict(type=int, default=6)),
           ("--seed", dict(type=int, default=0)))
_POLARITY = (("--polarized", dict(action="store_true", default=None)),
             ("--unpolarized", dict(action="store_true", default=None)))
_SOURCE = (("--kind", dict(required=True, choices=list(_KIND_FLAGS))),
           ("--modes", dict(type=int)),
           ("--nbar", dict(type=float)),
           ("--mean", dict(type=float,
                           help="total mean occupancy (coherent shorthand)")),
           *_POLARITY,
           ("--polarization", dict(
               type=float, help="degree of polarization for partial kinds")))
_LAW = tuple((f"--{name}", dict(type=float)) for name in "pqr")
_PROFILE = ("--profile", dict(choices=list(modes.PROFILE_SHAPES),
                              default="lorentzian"))
_SWEEP = ("--sweep", dict(help="x0:x1:steps"))
_INTEGER_PART = ("--integer-part", dict(action="store_true"))
# SUPPRESS keeps the global --seed unless this one is given
_RUN = (("--gates", dict(type=int, default=10 ** 5)),
        ("--seed", dict(type=int, default=argparse.SUPPRESS)))


def _required(*flags) -> tuple:
    return tuple((name, {**kwargs, "required": True})
                 for name, kwargs in flags)


# Each command's help text, handler and flags, in their help order.
_COMMANDS = {
    "moments": ("trinomial gate moments, K_n and R", _cmd_moments, (
        *_required(*_LAW), ("--n", dict(type=int, default=1)))),
    "source": ("occupancy pmf / pgf tables", _cmd_source, (
        *_SOURCE, ("--max-n", dict(type=int)),
        ("--pgf", dict(help="comma-separated z values; prints a pgf table "
                            "instead")))),
    "k": ("coincidence ratio for a source", _cmd_k, (*_SOURCE, *_LAW)),
    "curve": ("coincidence curve K(x) over a mode sweep", _cmd_curve, (
        ("--statistics", dict(choices=["boson", "fermion"], required=True)),
        *_POLARITY, _PROFILE, *_required(_SWEEP), _INTEGER_PART)),
    "modes": ("mode-count function M(x)", _cmd_modes, (
        _PROFILE, ("--x", dict(help="comma-separated x values")), _SWEEP,
        _INTEGER_PART)),
    "aspect-grangier": ("single-photon anticorrelation run table",
                        _cmd_aspect_grangier, (
        ("--data", dict(help="CSV path (default embedded)")),
        ("--f-override", dict(type=float)),
        ("--gate-ratio", dict(type=float,
                              help="gate duration over lifetime, w/tau_s")),
        ("--omega-ratio", dict(type=float)),
        ("--reference-pump", dict(type=float, default=ac.REFERENCE_PUMP)))),
    "simulate": ("Monte Carlo estimate of K, R, F", _cmd_simulate, (
        *_SOURCE, *_LAW, *_RUN, ("--analytic", dict(action="store_true")))),
    "verify": ("Monte Carlo check against analytics", _cmd_verify, (
        *_SOURCE, *_LAW, *_RUN,
        ("--z-max", dict(type=float, default=mc.DEFAULT_Z_MAX)))),
}


@functools.cache
def _tables() -> dict:
    """Each command's flag specs by name, defaults by dest and required
    dests, the global flags' under None.  A spec is (dest, type, choices,
    const): a store_true flag stores const True, any other flag None."""
    tables = {}
    for command, (_, _, flags) in [(None, (None, None, _GLOBAL)),
                                   *_COMMANDS.items()]:
        specs, defaults, required = tables[command] = {}, {}, set()
        for name, kw in flags:
            dest = name[2:].replace("-", "_")
            const = True if kw.get("action") == "store_true" else None
            specs[name] = (dest, kw.get("type", str), kw.get("choices"), const)
            default = kw.get("default", None if const is None else False)
            if default is not argparse.SUPPRESS:
                defaults[dest] = default
            if kw.get("required"):
                required.add(dest)
    return tables


# Built once per process, on the first line `_parse` leaves to argparse:
# each `parse_args` call returns a new namespace and changes no parser.
@functools.cache
def _parsers():
    """The top-level parser, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="hbtcount",
        description="Two-detector counting statistics for bosons and fermions")
    for name, kw in _GLOBAL:
        parser.add_argument(name, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        for name, kw in flags:
            p.add_argument(name, **kw)
    return parser, sub.choices


def _read(argv: list[str], i: int, specs: dict, given: dict) -> int:
    """Reads flags of `specs` from argv[i] on into `given`, and returns the
    index of the first token it leaves: not a flag's exact name, or a flag
    without a valid value token."""
    while i < len(argv) and argv[i] in specs:
        dest, convert, choices, const = specs[argv[i]]
        if const is not None:
            given[dest], i = const, i + 1
            continue
        try:
            value = convert(argv[i + 1])
        except (IndexError, ValueError):
            break
        if argv[i + 1].startswith("-") or choices and value not in choices:
            break
        given[dest], i = value, i + 2
    return i


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """`_parsers()[0].parse_args(argv)`, read from `_tables()` when argv
    is global flags, a command and its flags that `_read` reads whole,
    every required flag among them.  argparse reads every other line,
    help and errors among them."""
    argv = sys.argv[1:] if argv is None else argv
    tables = _tables()
    values = dict(tables[None][1])
    i = _read(argv, 0, tables[None][0], values)
    if i < len(argv) and argv[i] in tables:
        specs, defaults, required = tables[argv[i]]
        given = {}
        if (_read(argv, i + 1, specs, given) == len(argv)
                and required.issubset(given)):
            return argparse.Namespace(
                **{**values, "command": argv[i], **defaults, **given})
    return _parsers()[0].parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        if not 1 <= args.precision <= 15:
            raise ValueError("precision must lie in [1, 15]")
        for pair in _EXCLUSIVE:
            if None not in [getattr(args, dest, None) for dest in pair]:
                raise ValueError(" and ".join(map(_flag, pair))
                                 + " exclude each other")
        rows = _COMMANDS[args.command][1](args)
        text = _render(rows, args.format, args.precision)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if all(row.get("pass", True) for row in rows):
        return EXIT_OK
    return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
