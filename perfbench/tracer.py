"""Span recording around the public functions of every ``hbtcount`` module.

The tracer measures the package from outside: it replaces each public
function or class that a ``hbtcount`` module binds with a recording wrapper,
in every module namespace that binds it (``mc.sample_occupancy``,
``stats.source_factorial_moments``, ``cli.TernaryLaw``, ...).  Calls made
through those names, by the benchmark or by the package itself, become
spans.  Nothing under ``src/`` is edited; ``uninstall`` restores the
original bindings.

A span is ``(name, start, end, parent, op)``: the qualified name
``<module>.<function>``, ``perf_counter`` start and end, the index of the
enclosing span (-1 for a call made by the benchmark) and the id of the
benchmark operation it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("elementary", "sources", "stats", "modes", "anticorrelation",
           "mc", "cli")

# Extra attributes recorded for a few spans, from the bound call arguments
# and the result.  They feed the count metrics.
_LABELS = {
    "mc.sample_occupancy": lambda args, out: {
        "kind": args["source"].kind,
        "gates": 1 if args.get("size") is None else int(args["size"])},
    "mc.reduce_blocks": lambda args, out: {"blocks": len(args["blocks"])},
    "mc.verify": lambda args, out: {
        "fail": sum(not entry["pass"] for entry in out.values())},
}


class _ClassProxy:
    """Callable stand-in for a class: construction is traced, class
    attributes (``EstimateReport.STATISTICS``) are forwarded."""

    def __init__(self, cls, call):
        self.__wrapped__ = cls
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.__wrapped__, attr)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.attrs: dict[int, dict] = {}
        self.op = -1
        self.recording = True
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        label = _LABELS.get(name)
        signature = inspect.signature(fn) if label else None
        spans, stack, attrs = self.spans, self._stack, self.attrs

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if label:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs[index] = label(bound.arguments, out)
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function and class of the package's modules."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                if isinstance(value, type) and issubclass(value, BaseException):
                    continue  # must stay a class for ``except`` clauses
                if id(value) not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    call = self._wrap(name, value)
                    wrappers[id(value)] = (_ClassProxy(value, call)
                                           if isinstance(value, type) else call)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover.

        Spans nest on one thread, so children never overlap each other.
        """
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs


def layer_metrics(tracer: Tracer, passes: int, rows: int) -> dict:
    """Per-layer self times (s) and counts, averaged per traced pass.

    ``rows`` is the number of pmf table rows one pass emits.
    """
    from hbtcount.sources import KINDS

    selfs = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    occupancy_s = defaultdict(float)
    counts = defaultdict(int)
    for index, (span, dt) in enumerate(zip(tracer.spans, selfs)):
        name = span[0]
        self_s[name] += dt
        self_s[name.split(".", 1)[0]] += dt
        calls[name] += 1
        calls[name.split(".", 1)[0]] += 1
        extra = tracer.attrs.get(index)
        if extra and "kind" in extra:
            occupancy_s[extra["kind"]] += dt
        for key, value in (extra or {}).items():
            if key != "kind":
                counts[key] += value

    def per_pass(value):
        return value / passes

    out = {}
    for kind in KINDS:
        out[f"mc.sample_occupancy.{kind}.s"] = per_pass(occupancy_s[kind])
    out["mc.sample_occupancy.gates"] = per_pass(counts["gates"])
    out["mc.simulate_series.self_s"] = per_pass(self_s["mc.simulate_series"])
    out["mc.reduce_blocks.s"] = per_pass(self_s["mc.reduce_blocks"])
    out["mc.blocks"] = per_pass(counts["blocks"])
    out["mc.verify.s"] = per_pass(self_s["mc.verify"])
    out["mc.verify.fail"] = per_pass(counts["fail"])
    for fn in ("support_cutoff", "source_pmf", "poisson_tv_distance",
               "source_factorial_moments"):
        out[f"sources.{fn}.s"] = per_pass(self_s[f"sources.{fn}"])
    out["sources.source_pmf.calls"] = per_pass(calls["sources.source_pmf"])
    out["sources.pmf_calls_per_row"] = (
        per_pass(calls["sources.source_pmf"]) / rows if rows else 0.0)
    for name in ("stats.series_moments", "stats.exact_correlation",
                 "modes.coincidence_curve", "anticorrelation.table1_report",
                 "anticorrelation.load_table1"):
        out[f"{name}.s"] = per_pass(self_s[name])
    out["cli.main.self_s"] = per_pass(self_s["cli.main"])
    out["cli.main.calls"] = per_pass(calls["cli.main"])
    for module in MODULES:
        out[f"{module}.s"] = per_pass(self_s[module])
        out[f"{module}.calls"] = per_pass(calls[module])
    return out
