"""Command-line frontend.

Subcommands: moments, source, k, curve, modes, aspect-grangier, simulate,
verify.  Output is CSV (default) or JSON, written to stdout or --out, each
float rounded to --precision significant digits.  JSON output is
json.dumps(rows, indent=2) of the rounded rows, byte for byte, with null
for a float that is not finite.
Exit codes: 0 success, 1 failed verification, 2 validation error (an
--out path that cannot be written or a --data path that cannot be read
among them), 3 numeric domain error.

The global flags (--format, --out, --precision, --seed) go before the
command; simulate and verify also take a --seed of their own, which wins.
A command line of whole global flags and then a command is parsed once
(`_parse`): the flags by a parser that holds them alone, the command's
tokens by the command's parser alone.  Every other line, help and errors
among them, goes through argparse's nested parse.
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
from .elementary import TernaryLaw, sequence_k, sequence_moments, sequence_r
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


def _source_from_args(args) -> sources.SourceLaw:
    """The source the flags name; a flag that the kind would ignore, or
    --polarization with --unpolarized, raises ValueError."""
    kind = args.kind
    if kind == "coherent":
        if args.polarization is not None or not args.polarized:
            raise ValueError("--polarization and --unpolarized are for the "
                             "thermal kinds only")
        if args.mean is not None:
            return sources.SourceLaw("coherent", modes=1, nbar=args.mean)
        return sources.SourceLaw("coherent", modes=args.modes, nbar=args.nbar)
    if args.mean is not None:
        raise ValueError("--mean is for --kind coherent only")
    prefix = {"thermal-boson": "boson", "thermal-fermion": "fermion"}[kind]
    if args.polarization is not None:
        if not args.polarized:
            raise ValueError("--polarization and --unpolarized exclude each "
                             "other")
        return sources.SourceLaw(f"{prefix}-partial", modes=args.modes,
                                 nbar=args.nbar,
                                 polarization=args.polarization)
    suffix = "polarized" if args.polarized else "unpolarized"
    return sources.SourceLaw(f"{prefix}-{suffix}", modes=args.modes,
                             nbar=args.nbar)


def _add_source_flags(parser, with_law=False):
    parser.add_argument("--kind", required=True,
                        choices=["coherent", "thermal-boson", "thermal-fermion"])
    parser.add_argument("--modes", type=int, default=1)
    parser.add_argument("--nbar", type=float, default=1.0)
    parser.add_argument("--mean", type=float, default=None,
                        help="total mean occupancy (coherent shorthand)")
    pol = parser.add_mutually_exclusive_group()
    pol.add_argument("--polarized", action="store_true", default=True)
    pol.add_argument("--unpolarized", dest="polarized", action="store_false")
    parser.add_argument("--polarization", type=float, default=None,
                        help="degree of polarization for partial kinds")
    if with_law:
        parser.add_argument("--p", type=float, default=None)
        parser.add_argument("--q", type=float, default=None)
        parser.add_argument("--r", type=float, default=None)


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
        "k_n": sequence_k(args.n) if args.n >= 1 else float("nan"),
        "r_coeff": sequence_r(law),
    }]


def _cmd_source(args) -> list[dict]:
    src = _source_from_args(args)
    if args.pgf is not None:
        zs = [float(z) for z in args.pgf.split(",")]
        return [{"z": z, "pgf": sources.source_pgf(src, z)} for z in zs]
    if args.max_n is None:
        window = sources._support_window(src)
    elif 0 <= args.max_n <= sources.TRUNCATION_CAP:
        window = sources._window(src, args.max_n)
    else:
        raise ValueError(f"max-n must lie in [0, {sources.TRUNCATION_CAP}]")
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
    curve = modes.coincidence_curve(args.statistics, args.polarized,
                                    profile, sweep)
    return [{"x": x, "M": m, "K": k} for x, m, k in curve]


def _cmd_modes(args) -> list[dict]:
    if args.x is None and args.sweep is None:
        raise ValueError("modes requires --x or --sweep")
    profile = modes.ModeProfile(shape=args.profile,
                                integer_part=args.integer_part)
    if args.x is not None:
        xs = [float(v) for v in args.x.split(",")]
    else:
        xs = _parse_sweep(args.sweep)
    return [{"x": x, "M": profile.count(x)} for x in xs]


def _cmd_aspect_grangier(args) -> list[dict]:
    if args.f_override is not None:
        f = args.f_override
    elif args.gate_ratio is not None or args.omega_ratio is not None:
        gate_ratio = args.gate_ratio if args.gate_ratio is not None \
            else ac.DEFAULT_GATE_RATIO
        omega = args.omega_ratio if args.omega_ratio is not None \
            else ac.DEFAULT_OMEGA_RATIO
        f = ac.gate_overlap(gate_ratio, 1.0, omega)
    else:
        f = ac.DEFAULT_F
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
        "r": stats._pearson_r(cfg.law, sm),
        "f": sm.fano,
        "mean_xi": sm.mean_xi,
        "mean_eta": sm.mean_eta,
    }


def _cmd_simulate(args) -> list[dict]:
    cfg = _simulation_config(args)
    report = mc.simulate_series(cfg)
    rows = []
    analytic = _analytic_values(cfg) if args.analytic else {}
    for name in report.STATISTICS:
        est = report.estimate(name)
        row = {"statistic": name, "estimate": est.value, "stderr": est.stderr}
        if args.analytic:
            row["analytic"] = analytic[name]
        rows.append(row)
    rows.append({"statistic": "gates", "estimate": float(report.gates),
                 "stderr": 0.0, **({"analytic": float(report.gates)}
                                   if args.analytic else {})})
    return rows


def _cmd_verify(args) -> list[dict]:
    cfg = _simulation_config(args)
    report = mc.simulate_series(cfg)
    result = mc.verify(report, _analytic_values(cfg), z_max=args.z_max)
    return [{"statistic": name, **entry} for name, entry in result.items()]


# -- argument parser -------------------------------------------------------


_GLOBAL_FLAGS = ("--format", "--out", "--precision", "--seed")


def _add_global_flags(parser):
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--precision", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)


# Built once per process, on the first `main` call: `parse_args` returns a
# new namespace each time, and nothing changes a parser once it is built.
@functools.cache
def _parsers():
    """The top-level parser, a parser of the global flags alone with its
    usage line, and each command's parser by name."""
    parser = argparse.ArgumentParser(
        prog="hbtcount",
        description="Two-detector counting statistics for bosons and fermions")
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="trinomial gate moments, K_n and R")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("source", help="occupancy pmf / pgf tables")
    _add_source_flags(p)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--pgf", default=None,
                   help="comma-separated z values; prints a pgf table instead")
    p.set_defaults(handler=_cmd_source)

    p = sub.add_parser("k", help="coincidence ratio for a source")
    _add_source_flags(p, with_law=True)
    p.set_defaults(handler=_cmd_k)

    p = sub.add_parser("curve", help="coincidence curve K(x) over a mode sweep")
    p.add_argument("--statistics", choices=["boson", "fermion"], required=True)
    pol = p.add_mutually_exclusive_group()
    pol.add_argument("--polarized", action="store_true", default=True)
    pol.add_argument("--unpolarized", dest="polarized", action="store_false")
    p.add_argument("--profile", choices=list(modes.PROFILE_SHAPES),
                   default="lorentzian")
    p.add_argument("--sweep", required=True, help="x0:x1:steps")
    p.add_argument("--integer-part", action="store_true")
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("modes", help="mode-count function M(x)")
    p.add_argument("--profile", choices=list(modes.PROFILE_SHAPES),
                   default="lorentzian")
    p.add_argument("--x", default=None, help="comma-separated x values")
    p.add_argument("--sweep", default=None, help="x0:x1:steps")
    p.add_argument("--integer-part", action="store_true")
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("aspect-grangier",
                       help="single-photon anticorrelation run table")
    p.add_argument("--data", default=None, help="CSV path (default embedded)")
    p.add_argument("--f-override", type=float, default=None)
    p.add_argument("--gate-ratio", type=float, default=None,
                   help="gate duration over lifetime, w/tau_s")
    p.add_argument("--omega-ratio", type=float, default=None)
    p.add_argument("--reference-pump", type=float, default=ac.REFERENCE_PUMP)
    p.set_defaults(handler=_cmd_aspect_grangier)

    for name, helptext, handler in (
            ("simulate", "Monte Carlo estimate of K, R, F", _cmd_simulate),
            ("verify", "Monte Carlo check against analytics", _cmd_verify)):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        _add_source_flags(p, with_law=True)
        p.add_argument("--gates", type=int, default=10 ** 5)
        # SUPPRESS keeps the global --seed unless this one is given
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        if name == "simulate":
            p.add_argument("--analytic", action="store_true")
        else:
            p.add_argument("--z-max", type=float, default=mc.DEFAULT_Z_MAX)

    # a flag it rejects raises ArgumentError, and `_parse` then takes the
    # nested parse, which prints argparse's own error
    flags = argparse.ArgumentParser(
        prog=parser.prog, usage=parser.format_usage()[len("usage: "):-1],
        add_help=False, exit_on_error=False)
    _add_global_flags(flags)
    return parser, flags, sub.choices


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with each command's parser under it."""
    return _parsers()[0]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, reading each token once.

    When argv is whole global flags, each with a value that does not start
    with "-", then a command, the flags go to their own parser and the
    command's tokens to its parser alone, whose namespace overrides the
    flags' as argparse's subparsers do.  Any other argv takes the nested
    parse, as does a global flag argparse rejects and a token "--=..."
    (or, on some Pythons, "-=...") after the command, which the top-level
    parser finds ambiguous among its own flags: every namespace, help text
    and error stays argparse's own."""
    if argv is None:
        argv = sys.argv[1:]
    top, flags, commands = _parsers()
    i = 0
    while (i + 1 < len(argv) and argv[i] in _GLOBAL_FLAGS
           and not argv[i + 1].startswith("-")):
        i += 2
    rest = argv[i + 1:]
    if i == len(argv) or argv[i] not in commands or any(
            token.startswith(("--=", "-=")) for token in rest):
        return top.parse_args(argv)
    try:
        args = flags.parse_known_args(argv[:i])[0]
    except argparse.ArgumentError:
        return top.parse_args(argv)
    args.command = argv[i]
    command, extras = commands[argv[i]].parse_known_args(rest)
    vars(args).update(vars(command))
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        if not 1 <= args.precision <= 15:
            raise ValueError("precision must lie in [1, 15]")
        rows = args.handler(args)
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
