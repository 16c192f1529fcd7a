"""Command-line front end.

Four commands share one exit-code contract:

    kernel   evaluate a kernel over a (target, source) grid
    solve    apply a solution operator to a data preset over a (y, x) grid
    verify   run a named verification suite
    limit    run the flat-limit or boundary-recovery study

    exit 0   all records passed / converged
    exit 1   verification or study failure
    exit 2   invalid input
    exit 3   quadrature failed to converge (records still written), or
             could not go on: a non-finite integrand sample, or a failed
             cell of a study (no records written)

Records are emitted as CSV (default) or JSON with floats serialized to 17
significant digits, so a re-read reproduces the in-memory doubles exactly
and identical invocations produce byte-identical files.  The default
quadrature relative tolerance is 1e-10, overridable per run with
--rel-tol, per environment with POISSONLINE_REL_TOL, or per project with
a flat key=value --config file (command-line flags win).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .kernels import (
    EvaluationPoint,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    halfplane_poisson_kernel,
    mehler_heat_kernel,
    oscillator_poisson_kernel_batch,
)
from .numerics import finite_real, positive_real
from .oracles import boundary_limit_gap, limit_a_to_zero_gap
from .quadrature import IntegrandEvaluationError, NonConvergenceError, QuadratureConfig
from .solvers import PROBLEMS, InitialData, SolveRequest, solve_grid
from .suites import run_suite, suite_names

__all__ = ["main"]

_ENV_REL_TOL = "POISSONLINE_REL_TOL"

_KERNELS = ("dirac", "euler", "oscillator", "mehler", "halfplane")
_NEEDS_A = {"euler", "oscillator", "mehler"}

_DEFAULT_BOUNDARY_POINTS = {
    "dirac": (-1.0, -0.5, 0.0, 0.5, 1.0),
    "euler": (0.9, 1.3, 1.7, 2.2),
    "oscillator": (-0.8, 0.0, 0.6),
}

# config-file keys accepted per command (long option names)
_CONFIG_KEYS = {
    "kernel": {"kernel", "a", "y", "t", "target", "source", "target-grid",
               "source-grid", "rel-tol", "format", "output"},
    "solve": {"problem", "data", "a", "y", "y-grid", "target", "target-grid",
              "rel-tol", "format", "output"},
    "verify": {"suite", "oscillator-prefactor-scale", "tolerance-override",
               "rel-tol", "format", "output"},
    "limit": {"study", "problem", "data", "a", "y", "target", "source",
              "a-seq", "y-seq", "points", "rel-tol", "format", "output"},
}


class _InputError(Exception):
    """Invalid input detected after argument parsing; maps to exit 2."""


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    return str(v)


def _render(records: list[dict], columns: Sequence[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c]) for c in columns])
        return buf.getvalue()
    lines = ["["]
    for i, rec in enumerate(records):
        body = ", ".join(f"{json.dumps(c)}: {_json_value(rec[c])}"
                         for c in columns)
        comma = "," if i + 1 < len(records) else ""
        lines.append("  {" + body + "}" + comma)
    lines.append("]")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _InputError(f"grid spec must be min:max:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _InputError(f"malformed grid spec {spec!r}") from None
    if count < 1:
        raise _InputError(f"grid count must be >= 1, got {count}")
    if count > 1 and not lo < hi:
        raise _InputError(f"grid needs min < max, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _InputError(f"grid endpoints must be finite, got {spec!r}")
    if count == 1:
        return [lo]
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_seq(text: str, name: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip() != ""]
    if not items:
        raise _InputError(f"{name} must not be empty")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise _InputError(f"{name} must be a comma-separated float list, "
                          f"got {text!r}") from None


def _load_sampled(path: str) -> InitialData:
    grid, values = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise _InputError(f"cannot read sampled data file {path!r}: {exc}")
    for i, row in enumerate(rows):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) < 2:
            raise _InputError(f"{path}: line {i + 1} needs two columns")
        try:
            x, v = float(row[0]), float(row[1])
        except ValueError:
            if i == 0:
                continue  # header line
            raise _InputError(f"{path}: line {i + 1} is not numeric") from None
        grid.append(x)
        values.append(v)
    try:
        return InitialData.sampled(grid, values)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _parse_data(descriptor: str) -> InitialData:
    kind, sep, rest = descriptor.partition(":")
    if not sep:
        raise _InputError(
            f"data descriptor must be kind:params, got {descriptor!r}")
    try:
        if kind == "gaussian":
            center, width = (float(p) for p in rest.split(","))
            return InitialData.gaussian(center, width)
        if kind == "bump":
            center, radius = (float(p) for p in rest.split(","))
            return InitialData.bump(center, radius)
        if kind == "exponential":
            return InitialData.exponential(float(rest))
        if kind == "power":
            return InitialData.power(float(rest))
        if kind == "eigenfunction":
            return InitialData.eigenfunction(int(rest))
        if kind == "sampled":
            return _load_sampled(rest)
    except _InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad data descriptor {descriptor!r}: {exc}") from None
    raise _InputError(
        f"unknown data kind {kind!r}; choose gaussian, bump, exponential, "
        "power, eigenfunction, or sampled")


def _quad_config(ns) -> QuadratureConfig:
    rel_tol = ns.rel_tol
    if rel_tol is None:
        raw = os.environ.get(_ENV_REL_TOL)
        if raw is not None:
            try:
                rel_tol = float(raw)
            except ValueError:
                raise _InputError(
                    f"{_ENV_REL_TOL} must be a float, got {raw!r}") from None
        else:
            rel_tol = 1e-10
    return QuadratureConfig(rel_tol=float(rel_tol))


def _resolve_axis(scalar, grid_spec, name: str) -> list[float]:
    if (scalar is None) == (grid_spec is None):
        raise _InputError(f"provide exactly one of --{name} or --{name}-grid")
    if scalar is not None:
        return [finite_real(scalar, f"--{name}")]
    return _parse_grid(grid_spec)


# ---------------------------------------------------------------------------
# commands


def _run_kernel(ns) -> int:
    cfg = _quad_config(ns)
    kernel = ns.kernel
    if kernel not in _KERNELS:
        raise _InputError(f"--kernel must be one of {', '.join(_KERNELS)}")
    if kernel in _NEEDS_A:
        if ns.a is None:
            raise _InputError(f"--a is required for the {kernel} kernel")
        param = OscillatorParam(positive_real(ns.a, "--a"))
    else:
        if ns.a is not None:
            raise _InputError(f"--a does not apply to the {kernel} kernel")
        param = None
    if kernel == "mehler":
        if ns.y is not None:
            raise _InputError("the mehler heat kernel takes --t, not --y")
        if ns.t is None:
            raise _InputError("--t is required for the mehler kernel")
        level = positive_real(ns.t, "--t")
    else:
        if ns.t is not None:
            raise _InputError("--t applies only to the mehler kernel")
        if ns.y is None:
            raise _InputError("--y is required")
        level = positive_real(ns.y, "--y")

    targets = _resolve_axis(ns.target, ns.target_grid, "target")
    sources = _resolve_axis(ns.source, ns.source_grid, "source")
    if kernel == "euler":
        for v in targets + sources:
            if v == 0.0:
                raise _InputError(
                    "euler kernel arguments must avoid the invariant line 0")

    records = []
    all_converged = True
    for tgt in targets:
        if kernel == "oscillator":
            row = oscillator_poisson_kernel_batch(level, [tgt] * len(sources),
                                                  sources, param, cfg)
        elif kernel == "dirac":
            row = [dirac_kernel(EvaluationPoint(level, tgt, src))
                   for src in sources]
        elif kernel == "euler":
            row = [euler_kernel(EvaluationPoint(level, tgt, src), param)
                   for src in sources]
        elif kernel == "mehler":
            row = [mehler_heat_kernel(level, tgt, src, param) for src in sources]
        else:
            row = [halfplane_poisson_kernel(EvaluationPoint(level, tgt, src))
                   for src in sources]
        for src, kv in zip(sources, row):
            all_converged = all_converged and kv.converged
            records.append({
                "level": level, "target": tgt, "source": src,
                "value": kv.value, "error_estimate": kv.error_estimate,
                "converged": kv.converged,
            })
    _emit(_render(records, ("level", "target", "source", "value",
                            "error_estimate", "converged"), ns.format),
          ns.output)
    return 0 if all_converged else 3


def _run_solve(ns) -> int:
    cfg = _quad_config(ns)
    if ns.problem not in PROBLEMS:
        raise _InputError(f"--problem must be one of {', '.join(PROBLEMS)}")
    if ns.data is None:
        raise _InputError("--data is required")
    data = _parse_data(ns.data)
    y_levels = _resolve_axis(ns.y, ns.y_grid, "y")
    targets = _resolve_axis(ns.target, ns.target_grid, "target")
    req = SolveRequest(problem=ns.problem, data=data, y_levels=tuple(y_levels),
                       spatial_points=tuple(targets), a=ns.a, cfg=cfg)
    grid = solve_grid(req)
    records = []
    for i, y in enumerate(grid.y_levels):
        for j, x in enumerate(grid.spatial_points):
            records.append({
                "y": y, "target": x,
                "value": float(grid.values[i, j]),
                "error_estimate": float(grid.error_estimates[i, j]),
                "converged": bool(grid.converged[i, j]),
            })
    _emit(_render(records, ("y", "target", "value", "error_estimate",
                            "converged"), ns.format), ns.output)
    return 0 if bool(grid.converged.all()) else 3


def _run_verify(ns) -> int:
    cfg = _quad_config(ns)
    if ns.suite is None:
        raise _InputError(f"--suite must be one of {', '.join(suite_names())}")
    scale = positive_real(ns.oscillator_prefactor_scale,
                          "--oscillator-prefactor-scale")
    override = ns.tolerance_override
    if override is not None:
        override = positive_real(override, "--tolerance-override")
    reports = run_suite(ns.suite, cfg, prefactor_scale=scale,
                        tolerance_override=override)
    records = [{
        "check_name": r.check_name, "measured": r.measured,
        "tolerance": r.tolerance, "passed": r.passed,
    } for r in reports]
    _emit(_render(records, ("check_name", "measured", "tolerance", "passed"),
                  ns.format), ns.output)
    return 0 if all(r.passed for r in reports) else 1


def _run_limit(ns) -> int:
    cfg = _quad_config(ns)
    if ns.study not in ("a-to-zero", "boundary"):
        raise _InputError("--study must be a-to-zero or boundary")
    if ns.study == "a-to-zero":
        y = positive_real(ns.y if ns.y is not None else 1.0, "--y")
        target = float(ns.target) if ns.target is not None else 0.3
        source = float(ns.source) if ns.source is not None else -0.2
        seq = _parse_seq(ns.a_seq, "--a-seq")
        report = limit_a_to_zero_gap(y, target, source, seq, cfg)
        params = report.context["a_sequence"]
        study = "a-to-zero"
    else:
        if ns.problem not in PROBLEMS:
            raise _InputError("--problem is required for the boundary study "
                              f"and must be one of {', '.join(PROBLEMS)}")
        data = _parse_data(ns.data)
        seq = _parse_seq(ns.y_seq, "--y-seq")
        if ns.points is not None:
            points = _parse_seq(ns.points, "--points")
        else:
            points = list(_DEFAULT_BOUNDARY_POINTS[ns.problem])
        report = boundary_limit_gap(ns.problem, data, seq, points, a=ns.a,
                                    cfg=cfg)
        params = report.context["y_sequence"]
        study = "boundary"
    gaps = report.context["gaps"]
    records = [{
        "study": study, "step": i, "parameter": p, "gap": g,
    } for i, (p, g) in enumerate(zip(params, gaps))]
    _emit(_render(records, ("study", "step", "parameter", "gap"), ns.format),
          ns.output)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="output file (default stdout)")
    sub.add_argument("--rel-tol", type=float, default=None, metavar="TOL",
                     help="quadrature relative tolerance (default 1e-10, "
                          f"or ${_ENV_REL_TOL})")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="flat key=value file supplying defaults for any "
                          "long option of this command")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonline",
        description="Poisson-type extension kernels on the line: evaluate, "
                    "solve, verify, study limits.")
    subs = parser.add_subparsers(dest="command", required=True)

    k = subs.add_parser(
        "kernel", help="evaluate one kernel over a (target, source) grid",
        description="Emits one record per grid cell, row-major with target "
                    "on the outer axis.  Columns: level (y, or t for the "
                    "mehler heat kernel), target, source, value, "
                    "error_estimate, converged.")
    k.add_argument("--kernel", choices=_KERNELS, default=None)
    k.add_argument("--a", type=float, default=None,
                   help="frequency (euler, oscillator, mehler)")
    k.add_argument("--y", type=float, default=None, help="boundary distance")
    k.add_argument("--t", type=float, default=None,
                   help="heat time (mehler only)")
    k.add_argument("--target", type=float, default=None)
    k.add_argument("--target-grid", default=None, metavar="MIN:MAX:COUNT",
                   help="inclusive target grid")
    k.add_argument("--source", type=float, default=None)
    k.add_argument("--source-grid", default=None, metavar="MIN:MAX:COUNT",
                   help="inclusive source grid")
    _add_common(k)
    k.set_defaults(func=_run_kernel)

    s = subs.add_parser(
        "solve", help="apply a solution operator to boundary data",
        description="Emits the solution grid row-major (y outer).  Columns: "
                    "y, target, value, error_estimate, converged.  Data "
                    "descriptors: gaussian:center,width  bump:center,radius  "
                    "exponential:rate  power:exponent  eigenfunction:n  "
                    "sampled:csvpath (two columns x,value; optional header).")
    s.add_argument("--problem", choices=tuple(PROBLEMS), default=None)
    s.add_argument("--data", default=None, metavar="KIND:PARAMS")
    s.add_argument("--a", type=float, default=None,
                   help="frequency (euler, oscillator)")
    s.add_argument("--y", type=float, default=None)
    s.add_argument("--y-grid", default=None, metavar="MIN:MAX:COUNT")
    s.add_argument("--target", type=float, default=None)
    s.add_argument("--target-grid", default=None, metavar="MIN:MAX:COUNT")
    _add_common(s)
    s.set_defaults(func=_run_solve)

    v = subs.add_parser(
        "verify", help="run a verification suite",
        description="Runs the named suite and emits one record per check: "
                    "check_name, measured, tolerance, passed.  Exit 0 only "
                    "if every check passed.")
    v.add_argument("--suite", choices=suite_names(), default=None)
    v.add_argument("--oscillator-prefactor-scale", type=float, default=1.0,
                   metavar="S",
                   help="fault injection: scale the oscillator kernel "
                        "prefactor (1.0 = correct; sqrt(2) reproduces the "
                        "classic miscalibration)")
    v.add_argument("--tolerance-override", type=float, default=None,
                   metavar="TOL",
                   help="fault injection: replace every check tolerance")
    _add_common(v)
    v.set_defaults(func=_run_verify)

    li = subs.add_parser(
        "limit", help="run a limit study",
        description="a-to-zero: oscillator kernel against the half-plane "
                    "kernel along a decreasing frequency sequence.  "
                    "boundary: solution against its datum along a "
                    "decreasing height sequence.  Columns: study, step, "
                    "parameter, gap.  Exit 0 only if the study passed.")
    li.add_argument("--study", choices=("a-to-zero", "boundary"),
                    default=None)
    li.add_argument("--problem", choices=tuple(PROBLEMS), default=None,
                    help="boundary study problem")
    li.add_argument("--data", default="gaussian:0,1", metavar="KIND:PARAMS",
                    help="boundary study datum (default gaussian:0,1)")
    li.add_argument("--a", type=float, default=None,
                    help="frequency for euler/oscillator boundary study")
    li.add_argument("--y", type=float, default=None,
                    help="a-to-zero boundary distance (default 1)")
    li.add_argument("--target", type=float, default=None,
                    help="a-to-zero target (default 0.3)")
    li.add_argument("--source", type=float, default=None,
                    help="a-to-zero source (default -0.2)")
    li.add_argument("--a-seq", default="1e-1,1e-2,1e-3", metavar="LIST",
                    help="decreasing frequency sequence")
    li.add_argument("--y-seq", default="0.2,0.1,0.05", metavar="LIST",
                    help="decreasing height sequence")
    li.add_argument("--points", default=None, metavar="LIST",
                    help="boundary study spatial points (defaults per "
                         "problem)")
    _add_common(li)
    li.set_defaults(func=_run_limit)
    return parser


def _load_config(path: str, command: str) -> dict:
    allowed = _CONFIG_KEYS[command]
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise _InputError(f"cannot read config file {path!r}: {exc}")
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise _InputError(f"{path}: line {i + 1} must be key=value")
        if key not in allowed:
            raise _InputError(
                f"{path}: unknown key {key!r} for command {command!r}")
        out[key.replace("-", "_")] = value
    return out


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            defaults = _load_config(ns.config, ns.command)
            # reparse so that explicit flags still win over config values;
            # argparse applies each option's type converter to string
            # defaults, so the config file needs no typing of its own
            sub = next(a for a in parser._subparsers._group_actions
                       if isinstance(a, argparse._SubParsersAction))
            sub.choices[ns.command].set_defaults(**defaults)
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except (_InputError, ValueError) as exc:
        # the library's input errors (InvalidDataError,
        # DegenerateCharacteristicError, ...) are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, IntegrandEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
