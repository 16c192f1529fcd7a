"""Traced mode: spans around the calls into each poissonline module.

`Tracer.install` replaces each public function listed in `TRACED` by a
timing wrapper, at every import site: each module of the package (and the
package namespace itself) whose attribute is that function object gets the
wrapper, so calls are caught whichever module makes them.  `uninstall`
puts the originals back; the benchmark's own oracle checks run after it, so
they never appear in the spans.

A span is (name, start, end, parent, request id), kept in memory and
written out as JSON lines when the benchmark ends.  Self time is a span's
duration minus that of its direct children; the time of the traced pass
outside any span is reported as `trace.unattributed_s`, so that layer self
times plus that remainder add up to the traced wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

MODULES = ("quadrature", "kernels", "solvers", "oracles", "suites", "cli")

# (module, function) -> span name; the layer is the name's first component
TRACED = {
    ("quadrature", "integrate_semi_infinite"): "quadrature.integrate",
    ("quadrature", "subordination_base_residual"): "quadrature.subordination",
    ("quadrature", "subordination_derived_residual"): "quadrature.subordination",
    ("kernels", "oscillator_poisson_kernel"): "kernels.oscillator",
    ("kernels", "dirac_kernel"): "kernels.closed_form",
    ("kernels", "euler_kernel"): "kernels.closed_form",
    ("kernels", "mehler_heat_kernel"): "kernels.closed_form",
    ("kernels", "halfplane_poisson_kernel"): "kernels.closed_form",
    ("solvers", "solve_dirac"): "solvers.dirac",
    ("solvers", "solve_euler"): "solvers.euler",
    ("solvers", "solve_oscillator"): "solvers.oscillator",
    ("solvers", "solve_grid"): "solvers.grid",
    ("oracles", "spectral_heat_kernel"): "oracles.spectral_heat",
    ("oracles", "spectral_poisson_kernel"): "oracles.spectral_poisson",
    ("oracles", "hermite_function"): "oracles.hermite",
    ("oracles", "pde_residual"): "oracles.pde_residual",
    ("oracles", "limit_a_to_zero_gap"): "oracles.limit",
    ("oracles", "boundary_limit_gap"): "oracles.limit",
    ("suites", "run_suite"): "suites",
    ("cli", "main"): "cli.main",
}


class Tracer:
    def __init__(self, package):
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.spans = []          # [name, start, end, parent index, request]
        self.stack = []
        self.request = 0
        self.quad_evals = 0
        self.quad_unconverged = 0
        self.osc_args = []       # (y, target, source, a, scale, cfg) per call
        self.grid_cells = 0
        self.grid_failed = 0
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "quadrature.integrate":
            self.quad_evals += result.evaluations
            self.quad_unconverged += not result.converged
        elif name == "kernels.oscillator":
            p, a = args[0], args[1]
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            scale = kwargs.get("prefactor_scale", args[3] if len(args) > 3 else 1.0)
            self.osc_args.append((p.y, p.target, p.source, a.a, scale, cfg))
        elif name == "solvers.grid":
            self.grid_cells += result.converged.size
            self.grid_failed += int((~result.converged).sum())

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observe

        def traced(*args, **kwargs):
            span_name = f"suites.{args[0]}" if name == "suites" else name
            index = len(spans)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.request]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for (module_name, fn_name), name in TRACED.items():
            original = getattr(getattr(self.modules[0], module_name), fn_name)
            wrapper = self._wrap(name, original)
            for module in self.modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}))
                f.write("\n")

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        calls = defaultdict(int)
        busy = defaultdict(float)     # outermost spans of each name only
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        top_level = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            own = duration - child_time[i]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            if parent < 0:
                top_level += duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += duration

        osc_solves = calls["solvers.oscillator"]
        osc_in_solves = sum(1 for name, _, _, parent, _ in spans
                            if name == "kernels.oscillator" and parent >= 0
                            and spans[parent][0] == "solvers.oscillator")
        args = self.osc_args
        batched = sum(1 for prev, cur in zip(args, args[1:])
                      if prev[0:2] == cur[0:2] and prev[3] == cur[3])
        quad_calls = calls["quadrature.integrate"]
        quad_busy = busy["quadrature.integrate"]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.evals": (self.quad_evals, "count"),
            "quadrature.evals_per_call": (ratio(self.quad_evals, quad_calls), "count"),
            "quadrature.busy_s": (quad_busy, "s"),
            "quadrature.us_per_eval": (1e6 * ratio(quad_busy, self.quad_evals), "us"),
            "quadrature.unconverged": (self.quad_unconverged, "count"),
            "kernels.oscillator.calls": (calls["kernels.oscillator"], "count"),
            "kernels.oscillator.busy_s": (busy["kernels.oscillator"], "s"),
            "kernels.oscillator.self_s": (self_s["kernels.oscillator"], "s"),
            "kernels.oscillator.batch_share": (ratio(batched, len(args)), "fraction"),
            "kernels.oscillator.distinct_ratio": (ratio(len(set(args)), len(args)), "fraction"),
            "kernels.closed_form.calls": (calls["kernels.closed_form"], "count"),
            "kernels.closed_form.busy_s": (busy["kernels.closed_form"], "s"),
        }
        for kind in ("dirac", "euler", "oscillator"):
            name = f"solvers.{kind}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.busy_s"] = (busy[name], "s")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["solvers.oscillator.kernel_calls_per_solve"] = (
            ratio(osc_in_solves, osc_solves), "count")
        out["solvers.grid.busy_s"] = (busy["solvers.grid"], "s")
        out["solvers.grid.cells"] = (self.grid_cells, "count")
        out["solvers.grid.failed_cells"] = (self.grid_failed, "count")
        for kind in ("spectral_heat", "spectral_poisson", "pde_residual"):
            out[f"oracles.{kind}.calls"] = (calls[f"oracles.{kind}"], "count")
            out[f"oracles.{kind}.busy_s"] = (busy[f"oracles.{kind}"], "s")
        out["oracles.hermite.busy_s"] = (busy["oracles.hermite"], "s")
        out["oracles.limit.busy_s"] = (busy["oracles.limit"], "s")
        out["oracles.limit.self_s"] = (self_s["oracles.limit"], "s")
        for suite in ("identities", "spectral", "residuals", "invariants"):
            out[f"suites.{suite}.busy_s"] = (busy[f"suites.{suite}"], "s")
        out["cli.self_s"] = (self_s["cli.main"], "s")
        for layer in MODULES[:-1]:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - top_level, "s")
        out["trace.overhead_frac"] = (
            (wall_s - untraced_wall_s) / untraced_wall_s, "fraction")
        out["trace.spans"] = (len(spans), "count")
        return out
