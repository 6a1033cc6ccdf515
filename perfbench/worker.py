"""One workload in a fresh interpreter: set up, run timed passes, report JSON.

Started by ``run.py``.  Set-up time is measured by the parent, from just
before it starts this process to the ``ready`` timestamp printed here
(``time.monotonic`` is one clock for every process on the machine).

A pass runs every operation of the workload once, in order, as a closed
loop: each call starts after the previous one returns.  Only the calls into
``hbtcount`` are timed; output checks run between them, untimed.  Passes
repeat, on the same inputs, until ``--seconds`` have elapsed.  With
``--trace 1`` passes alternate between untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _import_package(workload: str):
    import hbtcount

    if workload == "cli_short":
        import hbtcount.cli  # noqa: F401
    return hbtcount


def run_pass(ops, tracer=None):
    """Run every operation once; return times, verdicts, items and digest."""
    times, verdicts, items, rows = [], [], 0, 0
    digest = hashlib.sha256()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            tracer.recording = True
        start = time.perf_counter()
        out = op.call()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.recording = False
        verdicts.append(op.check(out))
        items += op.items(out)
        rows += op.pmf_rows(out)
        digest.update(op.digest(out).encode())
        digest.update(b"\n")
    return {"times": times, "verdicts": verdicts, "items": items,
            "pmf_rows": rows, "digest": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    hbt = _import_package(args.workload)
    if not Path(hbt.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: imported {hbt.__file__}, not the package under "
              f"{args.src}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](
        hbt, random.Random(args.seed), args.small)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy

    tracer = tracing.Tracer() if args.trace else None
    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        passes.append(run_pass(ops))
        if tracer is not None:
            tracer.install(hbt)
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            break

    result = {
        "ready": ready,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
    }
    if tracer is not None:
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(
            tracer, len(traced), traced[0]["pmf_rows"])
        # every span lies inside a timed call, so this total cannot exceed
        # the traced passes' wall time
        result["self_s_total"] = sum(tracer.self_times())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
