"""In-memory span tracer that wraps capillary1d's layer functions from outside.

Each traced function is replaced under every name that refers to it in any
loaded ``capillary1d`` module, so a call is caught wherever the caller looks
the name up (``capillary1d.config.simulate`` as well as
``capillary1d.galerkin.simulate``).  A span is (name, start, end, parent,
op): ``parent`` indexes the enclosing span (-1 at top level) and ``op`` is the
benchmark operation the span belongs to.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time

# (module, attribute, span name) of every layer boundary the tracer wraps
LAYER_FUNCTIONS = (
    ("capillary1d.kernels", "rhs", "kernels.rhs"),
    ("capillary1d.galerkin", "simulate", "galerkin.integrate"),
    ("capillary1d.model", "entropy_functions", "model.entropy"),
    ("capillary1d.model", "validate_initial_data", "model.validate"),
    ("capillary1d.diagnostics", "trajectory_records", "diagnostics.records"),
    ("capillary1d.diagnostics", "holder_probe", "diagnostics.probe"),
    ("capillary1d.experiments", "run_sweep", "experiments.sweep"),
    ("capillary1d.experiments", "_run_member", "experiments.member"),
    ("capillary1d.basis", "evaluate", "basis.evaluate"),
    ("capillary1d.basis", "tables", "basis.tables"),
    ("capillary1d.config", "resolve_config", "config.resolve"),
    ("capillary1d.cli", "write_run_artifacts", "cli.write"),
)
LAYER_NAMES = tuple(name for _, _, name in LAYER_FUNCTIONS)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            return after(result) if after is not None else result

        return traced

    def _after(self, name: str):
        if name == "galerkin.integrate":
            def record_stats(result):
                self.count("galerkin.steps_accepted", result.stats.accepted)
                self.count("galerkin.steps_rejected", result.stats.rejected)
                self.count("galerkin.stats_rhs_calls", result.stats.rhs_calls)
                return result
            return record_stats
        if name == "model.entropy":
            def wrap_pair(entropy):
                # g and G are closures built per call; their evaluations are
                # where the entropy cost (quadrature tables) is paid
                def counted_G(s, _G=self._span("model.entropy", entropy.G)):
                    self.count("model.entropy_G_calls")
                    return _G(s)
                return dataclasses.replace(
                    entropy, g=self._span("model.entropy", entropy.g), G=counted_G)
            return wrap_pair
        return None

    def install(self) -> None:
        """Patch every layer function under every name that refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "capillary1d" or k.startswith("capillary1d.")) and m is not None]
        for modname, attr, name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._span(name, original, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, start, end, parent, _ in self.spans:
            d = end - start
            totals[name] += d
            if parent >= 0:
                totals[self.spans[parent][0]] -= d
        return totals

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def rhs_call_split(self) -> tuple[int, int, float]:
        """(all kernel calls, kernel calls under galerkin.integrate, median us/call)."""
        spans = self.spans
        total = under = 0
        durations = []
        for name, start, end, parent, _ in spans:
            if name != "kernels.rhs":
                continue
            total += 1
            durations.append(end - start)
            p = parent
            while p >= 0 and spans[p][0] != "galerkin.integrate":
                p = spans[p][3]
            under += p >= 0
        median_us = statistics.median(durations) * 1e6 if durations else 0.0
        return total, under, median_us

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")
