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
from .numerics import finite_real
from .oracles import boundary_limit_gap, limit_a_to_zero_gap
from .quadrature import IntegrandEvaluationError, NonConvergenceError, QuadratureConfig
from .solvers import PROBLEMS, InitialData, SolveRequest, solve_grid
from .suites import run_suite, suite_names

__all__ = ["main"]

_ENV_REL_TOL = "POISSONLINE_REL_TOL"

# The options that vary with the kernel and with the limit study: per
# kernel or study, the options (by dest) that it takes, with their
# defaults.  An option of a table that the chosen kernel or study does not
# take is rejected, whether it came from the command line or a config file.
_REQUIRED = object()
_KERNEL_OPTIONS = {
    "dirac": {"y": _REQUIRED},
    "euler": {"y": _REQUIRED, "a": _REQUIRED},
    "oscillator": {"y": _REQUIRED, "a": _REQUIRED},
    "mehler": {"t": _REQUIRED, "a": _REQUIRED},
    "halfplane": {"y": _REQUIRED},
}
_STUDY_OPTIONS = {
    "a-to-zero": {"y": 1.0, "target": 0.3, "source": -0.2,
                  "a_seq": "1e-1,1e-2,1e-3"},
    "boundary": {"problem": _REQUIRED, "data": "gaussian:0,1", "a": None,
                 "y_seq": "0.2,0.1,0.05", "points": None},
}

_DEFAULT_BOUNDARY_POINTS = {
    "dirac": (-1.0, -0.5, 0.0, 0.5, 1.0),
    "euler": (0.9, 1.3, 1.7, 2.2),
    "oscillator": (-0.8, 0.0, 0.6),
}

# argument types of the data presets that take them inline
_PRESET_ARGS = {
    "gaussian": (float, float),
    "bump": (float, float),
    "exponential": (float,),
    "power": (float,),
    "eigenfunction": (int,),
}


class _InputError(Exception):
    """Invalid input detected after argument parsing; maps to exit 2."""


def _fmt(v, fmt: str) -> str:
    """One record field as text in output format `fmt`."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str) and fmt == "json":
        return json.dumps(v)
    return str(v)


def _render(records: list[dict], columns: Sequence[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec[c], fmt) for c in columns])
        return buf.getvalue()
    lines = ["["]
    for i, rec in enumerate(records):
        body = ", ".join(f"{json.dumps(c)}: {_fmt(rec[c], fmt)}"
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
    if kind == "sampled":
        return _load_sampled(rest)
    if kind not in _PRESET_ARGS:
        raise _InputError(f"unknown data kind {kind!r}; choose "
                          f"{', '.join(_PRESET_ARGS)}, or sampled")
    types, params = _PRESET_ARGS[kind], rest.split(",")
    try:
        if len(params) != len(types):
            raise ValueError(f"{kind} takes {len(types)} parameter(s)")
        return getattr(InitialData, kind)(*(t(p) for t, p in zip(types, params)))
    except (ValueError, TypeError) as exc:
        raise _InputError(f"bad data descriptor {descriptor!r}: {exc}") from None


def _quad_config(ns) -> QuadratureConfig:
    rel_tol = ns.rel_tol
    if rel_tol is None:
        raw = os.environ.get(_ENV_REL_TOL)
        if raw is None:
            return QuadratureConfig()
        try:
            rel_tol = float(raw)
        except ValueError:
            raise _InputError(
                f"{_ENV_REL_TOL} must be a float, got {raw!r}") from None
    return QuadratureConfig(rel_tol=float(rel_tol))


def _options(ns, selector: str, table: dict) -> dict:
    """The options, by dest, that the kernel or study named by the option
    `selector` of `ns` takes, with the defaults of `table` applied.

    Raises _InputError for a name not in `table`, for an option of `table`
    that the named kernel or study does not take but `ns` sets, and for a
    required option that `ns` leaves unset.
    """
    key = getattr(ns, selector)
    if key not in table:
        raise _InputError(f"--{selector} must be one of {', '.join(table)}")
    takes, what = table[key], f"the {key} {selector}"
    for dest in dict.fromkeys(d for options in table.values() for d in options):
        flag, value = "--" + dest.replace("_", "-"), getattr(ns, dest)
        if dest not in takes and value is not None:
            raise _InputError(f"{flag} does not apply to {what}")
        if takes.get(dest) is _REQUIRED and value is None:
            raise _InputError(f"{flag} is required for {what}")
    return {dest: default if getattr(ns, dest) is None else getattr(ns, dest)
            for dest, default in takes.items()}


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
    opts = _options(ns, "kernel", _KERNEL_OPTIONS)
    kernel = ns.kernel
    # the kernels check their own arguments, and the euler kernel raises
    # DegenerateCharacteristicError (a ValueError) on the invariant line,
    # before any record is written
    level = opts["t" if kernel == "mehler" else "y"]
    param = OscillatorParam(opts["a"]) if "a" in opts else None
    targets = _resolve_axis(ns.target, ns.target_grid, "target")
    sources = _resolve_axis(ns.source, ns.source_grid, "source")

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
    reports = run_suite(ns.suite, cfg,
                        prefactor_scale=ns.oscillator_prefactor_scale,
                        tolerance_override=ns.tolerance_override)
    records = [{
        "check_name": r.check_name, "measured": r.measured,
        "tolerance": r.tolerance, "passed": r.passed,
    } for r in reports]
    _emit(_render(records, ("check_name", "measured", "tolerance", "passed"),
                  ns.format), ns.output)
    return 0 if all(r.passed for r in reports) else 1


def _run_limit(ns) -> int:
    cfg = _quad_config(ns)
    opts = _options(ns, "study", _STUDY_OPTIONS)
    study = ns.study
    if study == "a-to-zero":
        seq = _parse_seq(opts["a_seq"], "--a-seq")
        report = limit_a_to_zero_gap(opts["y"], opts["target"], opts["source"],
                                     seq, cfg)
        params = report.context["a_sequence"]
    else:
        problem = opts["problem"]
        data = _parse_data(opts["data"])
        seq = _parse_seq(opts["y_seq"], "--y-seq")
        if opts["points"] is not None:
            points = _parse_seq(opts["points"], "--points")
        else:
            points = _DEFAULT_BOUNDARY_POINTS[problem]
        report = boundary_limit_gap(problem, data, seq, points, a=opts["a"],
                                    cfg=cfg)
        params = report.context["y_sequence"]
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
                     help="quadrature relative tolerance (default "
                          f"{QuadratureConfig.rel_tol:g}, or ${_ENV_REL_TOL})")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="flat key=value file supplying defaults for any "
                          "long option of this command")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the subparser of each command by name."""
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
    k.add_argument("--kernel", choices=tuple(_KERNEL_OPTIONS), default=None)
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
                   help="fault injection: scale every oscillator kernel "
                        "value the checks read (1.0 = correct; sqrt(2) "
                        "reproduces the classic miscalibration)")
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
    zero, bound = _STUDY_OPTIONS["a-to-zero"], _STUDY_OPTIONS["boundary"]
    li.add_argument("--study", choices=tuple(_STUDY_OPTIONS), default=None)
    li.add_argument("--problem", choices=tuple(PROBLEMS), default=None,
                    help="boundary study problem")
    li.add_argument("--data", default=None, metavar="KIND:PARAMS",
                    help=f"boundary study datum (default {bound['data']})")
    li.add_argument("--a", type=float, default=None,
                    help="frequency for euler/oscillator boundary study")
    li.add_argument("--y", type=float, default=None,
                    help=f"a-to-zero boundary distance (default {zero['y']:g})")
    li.add_argument("--target", type=float, default=None,
                    help=f"a-to-zero target (default {zero['target']:g})")
    li.add_argument("--source", type=float, default=None,
                    help=f"a-to-zero source (default {zero['source']:g})")
    li.add_argument("--a-seq", default=None, metavar="LIST",
                    help="a-to-zero decreasing frequency sequence (default "
                         f"{zero['a_seq']})")
    li.add_argument("--y-seq", default=None, metavar="LIST",
                    help="boundary study decreasing height sequence (default "
                         f"{bound['y_seq']})")
    li.add_argument("--points", default=None, metavar="LIST",
                    help="boundary study spatial points (defaults per "
                         "problem)")
    _add_common(li)
    li.set_defaults(func=_run_limit)
    return parser, subs.choices


def _load_config(path: str, ns) -> dict:
    """The key=value lines of a config file, by dest; the keys are the
    long options of the command whose parsed namespace is `ns`."""
    command = ns.command
    allowed = ({dest.replace("_", "-") for dest in vars(ns)}
               - {"command", "func", "config"})
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
    parser, commands = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.config is not None:
            defaults = _load_config(ns.config, ns)
            # reparse so that explicit flags still win over config values;
            # argparse applies each option's type converter to string
            # defaults, so the config file needs no typing of its own
            commands[ns.command].set_defaults(**defaults)
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
