"""Benchmark of the hbtcount package: Monte Carlo grid, source tables and
short CLI sessions.

Run from the repository root::

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 30 --trace 0

``--workload`` is ``mc_grid``, ``source_tables``, ``cli_short`` or ``all``
(the three in turn).  The package is imported from ``src/`` of the checkout
this file sits in; nothing is installed or built.

BENCHMARK.json gates ``mc_grid`` and ``cli_short`` only.  ``source_tables``
is run by hand: its pure-Python pmf path slows by up to 40% when the host
is busy, which on a shared 2-core machine spread its wall time over ten
runs by more than the 25% bound.

Each workload runs in a fresh interpreter (``worker.py``), one process on
one thread, as a closed loop.  The same inputs, made from ``--seed``, are
run pass after pass for ``--seconds``; every output is checked and hashed
into a digest.  Set-up time -- interpreter start, ``import hbtcount`` and
input generation -- is measured in the workload process and in
``SETUP_PROBES`` more fresh processes, and reported as the median.

Standard output, one JSON object per line:

* a report: environment, result digest, and the workload's named metrics
  (``mc_gates_per_s``, ``table_rows_per_s``, ``cmd_p95_ms``, ...), each
  with its unit and sample count, plus ``error_rate``;
* last, the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
  With ``--trace 0`` the metrics are the end-to-end ones named in
  BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from a
  run whose passes alternate untraced and traced.

``failed`` counts operations whose check failed: the program exited
non-zero, a verification missed, or the output was wrong.  ``correct`` is
false when an output was wrong although the program reported success, or
when two passes over the same inputs gave different digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc_grid", "source_tables", "cli_short")
SETUP_PROBES = 8
IMPORT_RUNS = 3
IMPORT_MODULES = ("hbtcount", "hbtcount.elementary", "hbtcount.errors",
                  "hbtcount.sources", "hbtcount.stats", "hbtcount.modes",
                  "hbtcount.anticorrelation", "hbtcount.mc", "hbtcount.cli")
RUN_LIMIT_S = 170.0

# The work item each workload counts, for items_per_s and the named metrics.
THROUGHPUT = {"mc_grid": "mc_gates_per_s", "source_tables": "table_rows_per_s",
              "cli_short": "cmd_per_s"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, str, str]:
    """Run a child to completion; return its start time and its output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=_child_env(), timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return start, proc.stdout, proc.stderr


def _worker(args, workload: str, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--src", str(SRC)]
    argv += ["--small"] if args.small else []
    argv += ["--setup-only"] if setup_only else []
    start, out, _ = _spawn(argv, deadline)
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _import_times(deadline: float) -> dict:
    """Median import self time per hbtcount module, and numpy's total."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        _, _, err = _spawn([sys.executable, "-X", "importtime", "-c",
                            "import hbtcount.cli"], deadline)
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, total_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in IMPORT_MODULES:
                samples.setdefault(name, []).append(int(self_us) / 1e6)
            elif name == "numpy":
                samples.setdefault(name, []).append(int(total_us) / 1e6)
    return {f"{name.rsplit('.', 1)[-1]}.import_s": statistics.median(values)
            for name, values in samples.items()}


def _environment(worker: dict, seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        git_sha = ref
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hbtcount").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode())
            src_hash.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": worker["python"], "numpy": worker["numpy"],
            "git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
            "seed": seed}


def _op_medians_ms(passes: list[dict]) -> list[float]:
    """Latency of each operation: its median over the passes, in ms.

    Every input counts once however many passes ran, and a burst of load on
    the machine during one pass moves no operation's value.  Wall time per
    pass is reported as the sum of these medians.
    """
    return [1e3 * statistics.median(times)
            for times in zip(*(p["times"] for p in passes))]


def _quantile(values: list[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def run_workload(args, workload: str, deadline: float) -> tuple[dict, dict]:
    """Run one workload; return its report and its result object."""
    # Set-up is an end-to-end metric only, so the traced run skips the
    # probes.  Half run before the workload and half after, so that they
    # meet the machine in more than one state of load.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [_worker(args, workload, deadline, True)["setup_s"]
              for _ in range(probes)]
    worker = _worker(args, workload, deadline, False)
    setups.append(worker["setup_s"])
    setups += [_worker(args, workload, deadline, True)["setup_s"]
               for _ in range(probes)]

    passes = worker["passes"] + worker.get("traced", [])
    verdicts = [v for p in passes for v in p["verdicts"]]
    attempted = len(verdicts)
    failed = sum(v != "ok" for v in verdicts)
    digests = {p["digest"] for p in passes}
    correct = "wrong" not in verdicts and len(digests) == 1

    untraced = worker["passes"]
    op_ms = _op_medians_ms(untraced)
    wall = sum(op_ms) / 1e3
    p50, p95 = statistics.median(op_ms), _quantile(op_ms, 95)
    items = untraced[0]["items"]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "items_per_s": (items / wall, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p95_ms": (p95, "ms"),
    }

    named = {
        "setup_s": {"value": end_to_end["setup_s"][0], "unit": "s",
                    "samples": len(setups)},
        "wall_s": {"value": wall, "unit": "s", "samples": len(untraced)},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB",
                        "samples": 1},
        "error_rate": {"value": failed / attempted, "unit": "1",
                       "samples": attempted},
        THROUGHPUT[workload]: {"value": items / wall, "unit": "1/s",
                               "samples": len(untraced)},
    }
    if workload == "cli_short":
        beyond = sum(ms > p95 for ms in op_ms)
        named["cmd_p50_ms"] = {"value": p50, "unit": "ms",
                               "samples": len(op_ms)}
        named["cmd_p95_ms"] = {"value": p95, "unit": "ms",
                               "samples": len(op_ms), "beyond": beyond}

    report = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(worker, args.seed),
              "digest": untraced[0]["digest"], "passes": len(untraced),
              "operations": len(op_ms), "metrics": named}
    if args.trace:
        traced_wall = sum(_op_medians_ms(worker["traced"])) / 1e3
        layers = dict(worker["layers"], **_import_times(deadline))
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead"] = traced_wall / wall
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
        report["traced_passes"] = len(worker["traced"])
        report["traced_digest"] = worker["traced"][0]["digest"]
        report["self_s_total"] = worker["self_s_total"]
        report["traced_wall_s_total"] = sum(sum(p["times"])
                                            for p in worker["traced"])
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("trace.overhead", "sources.pmf_calls_per_row"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "hbtcount" / "__init__.py").is_file():
        print(f"error: no hbtcount package under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    results = {}
    try:
        for workload in workloads:
            report, results[workload] = run_workload(args, workload, deadline)
            print(json.dumps(report), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
