"""poissonline benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see inputs.py for how each seed's requests are drawn):

  point-queries  single kernel / dirac / euler requests, as many as fit in S
  field-solve    oscillator solve_grid requests, whole four-request cycles
                 until S has passed (so at least one cycle)
  verify-gate    one `verify --suite all` through cli.main, in-process

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the loop for
half of S, repeats the same requests with every public function of the
package wrapped (tracing.py), prints the per-layer metrics and writes the
spans to .bench_out/.  Outputs are checked against the oracles in
checks.py after the timed region.  The last stdout line is the JSON
result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3
WARMUP_REQUESTS = 20
KERNEL_CHECKS = 120       # oscillator kernel points checked per run


def import_package():
    """Import poissonline from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import poissonline
        import poissonline.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        raise SystemExit(f"cannot import poissonline from {SRC}: {exc}")
    where = os.path.realpath(poissonline.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"poissonline was imported from {where}, not {SRC}")
    return poissonline


def closed_loop(issue, requests, seconds=None, count=None, batch=1,
                tracer=None):
    """Issue requests one after another until `seconds` have passed
    (checked only after whole batches, and never before the first request)
    or `count` are done.

    Returns [(request, result or exception)], per-request latencies in
    seconds, and the wall time of the loop.
    """
    done, latencies = [], []
    start = perf_counter()
    for req in requests:
        if done and len(done) % batch == 0 and (
                (count is not None and len(done) >= count)
                or (seconds is not None and perf_counter() - start >= seconds)):
            break
        if tracer is not None:
            tracer.request += 1
        t0 = perf_counter()
        try:
            result = issue(req)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        latencies.append(perf_counter() - t0)
        done.append((req, result))
    return done, latencies, perf_counter() - start


def report_exceptions(done) -> None:
    errors = [(req, res) for req, res in done if isinstance(res, Exception)]
    for req, exc in errors[:3]:
        print(f"# request {req!r:.200} raised:", file=sys.stderr)
        traceback.print_exception(type(exc), exc, exc.__traceback__,
                                  file=sys.stderr)


def verdict(check, *args):
    """Run one oracle check; a check that raises counts as a mismatch."""
    try:
        return check(*args)
    except Exception:  # reported, and the op counts as failed
        traceback.print_exc(file=sys.stderr)
        return False


def same_results(first, second) -> list:
    """Per request: did the traced pass return exactly what the untraced did?"""
    def key(res):
        if isinstance(res, Exception):
            return repr(res)
        if hasattr(res, "values"):  # SolutionGrid compares by identity
            return (res.values.tobytes(), res.error_estimates.tobytes(),
                    res.converged.tobytes())
        return res

    return [key(a) == key(b) for (_, a), (_, b) in zip(first, second)]


# ---------------------------------------------------------------------------
# workloads: each returns a dict with the requests `done` (and, traced, the
# `traced` closed_loop result), request `latencies`, timed `wall`, `rss_mb`,
# per-op verdicts `ok`, the op count `ops` and extra `info`


def call_point(pl):
    def issue(req):
        fn, fn_args = inputs.build_point(pl, req)
        return fn(*fn_args)
    return issue


def measure(issue, stream, args, tracer, batch=1) -> dict:
    """The timed closed loop over stream(seed) and, given a tracer, the
    traced replay of the same requests.  A traced run gives the untraced
    loop half of --seconds, so that both passes together take about as
    long as an untraced run."""
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    done, lat, wall = closed_loop(issue, stream(args.seed),
                                  seconds=seconds, batch=batch)
    run = {"done": done, "latencies": lat, "wall": wall,
           "rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.install()
        try:
            run["traced"] = closed_loop(issue, stream(args.seed),
                                        count=len(done), tracer=tracer)
        finally:
            tracer.uninstall()
    return run


def point_queries(pl, args, tracer):
    issue = call_point(pl)
    closed_loop(issue, inputs.point_stream(-1 - args.seed), count=WARMUP_REQUESTS)
    run = measure(issue, inputs.point_stream, args, tracer)
    done = run["done"]

    import checks  # scipy.integrate etc., kept out of the measured process
    checks_start = perf_counter()
    kernel_idx = [i for i, (req, _) in enumerate(done) if req[0] == "kernel"]
    stride = max(1, math.ceil(len(kernel_idx) / KERNEL_CHECKS))
    spectral = set(kernel_idx[::stride])
    ok = []
    for i, (req, res) in enumerate(done):
        if isinstance(res, Exception):
            ok.append(False)
        elif req[0] != "kernel":
            ok.append(verdict(checks.check_point_solve, req, res))
        elif i in spectral:
            ok.append(verdict(checks.check_kernel, pl.oracles, req, res))
        else:
            ok.append(res.converged and math.isfinite(res.value))
    run["ok"] = ok
    run["ops"] = len(done)
    run["info"] = {"kernel_points_checked": len(spectral),
                   "solves_checked": len(done) - len(kernel_idx),
                   "check_s": perf_counter() - checks_start}
    return run


def field_solve(pl, args, tracer):
    def issue(req):
        return pl.solve_grid(inputs.build_field(pl, req))

    warm = inputs.point_stream(-1 - args.seed)
    closed_loop(call_point(pl), (r for r in warm if r[0] == "kernel"),
                count=WARMUP_REQUESTS)
    def stream(seed):
        return itertools.islice(inputs.field_stream(seed),
                                args.max_requests or None)

    run = measure(issue, stream, args, tracer, batch=len(inputs.FIELD_DESIGN))

    import checks
    checks_start = perf_counter()
    ok = []
    for req, res in run["done"]:
        cells = len(req[2]) * len(req[3])
        cell_ok = (None if isinstance(res, Exception)
                   else verdict(checks.check_field, pl.oracles, req, res))
        ok.extend(cell_ok if cell_ok else [False] * cells)
    run["ok"] = ok
    run["ops"] = len(ok)
    run["info"] = {"check_s": perf_counter() - checks_start}
    return run


def verify_gate(pl, args, tracer):
    def issue(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pl.cli.main(argv)
        return code, out.getvalue()

    argv = inputs.gate_argv(args.gate_suite, args.gate_prefactor_scale)
    done, lat, wall = closed_loop(issue, [argv])
    run = {"latencies": lat, "wall": wall, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        # one cli.main / run_suite call per suite, for per-suite busy time
        suites = (inputs.GATE_SUITES if args.gate_suite == "all"
                  else (args.gate_suite,))
        tracer.install()
        try:
            parts, _, traced_wall = closed_loop(
                issue, [inputs.gate_argv(s, args.gate_prefactor_scale)
                        for s in suites], tracer=tracer)
        finally:
            tracer.uninstall()

    import checks

    def outcome(results):
        """(worst exit code, all records) of one or more cli.main calls."""
        errors = [r for _, r in results if isinstance(r, Exception)]
        if errors:
            return errors[0]
        return (max(code for _, (code, _) in results),
                [rec for _, (_, text) in results
                 for rec in checks.gate_records(text)])

    res = outcome(done)
    run["done"] = [(argv, res)]
    if tracer is not None:
        run["traced"] = ([(argv, outcome(parts))], None, traced_wall)
    expected = (sum(inputs.GATE_RECORDS.values()) if args.gate_suite == "all"
                else inputs.GATE_RECORDS[args.gate_suite])
    run["ok"] = [not isinstance(res, Exception)
                 and checks.check_gate(res[0], res[1], expected)]
    run["ops"] = 1
    if not isinstance(res, Exception):
        run["info"] = {"exit_code": res[0], "records": len(res[1]),
                       "passed": sum(r[3] == "true" for r in res[1])}
    return run


WORKLOADS = {"point-queries": point_queries, "field-solve": field_solve,
             "verify-gate": verify_gate}


# ---------------------------------------------------------------------------
# measurements


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples):
    """(q, value): the highest q <= 99 with at least 10 samples above the
    q-th percentile, or the median when the run has too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    q = min(99, math.floor(100 * (n - 10) / n))
    if q <= 50:
        return 50, statistics.median(ordered)
    return q, ordered[math.ceil(q * n / 100) - 1]


def setup_seconds(workload: str, seed: int) -> list:
    probe = os.path.join(HERE, "probe_setup.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate-suite", default="all",
                        choices=("all",) + inputs.GATE_SUITES,
                        help="verify-gate: suite to run (smoke test only)")
    parser.add_argument("--gate-prefactor-scale", type=float, default=1.0,
                        help="verify-gate: fault injection (negative control)")
    parser.add_argument("--max-requests", type=int, default=0,
                        help="field-solve: stop after this many requests "
                             "(smoke test only)")
    args = parser.parse_args(argv)

    pl = import_package()
    tracer = tracing.Tracer(pl) if args.trace else None
    run = WORKLOADS[args.workload](pl, args, tracer)
    report_exceptions(run["done"])

    ok = run["ok"]
    if "traced" in run:
        traced_done, _, traced_wall = run["traced"]
        agree = same_results(run["done"], traced_done)
        if args.workload == "field-solve":  # ok is per cell, agree per request
            cells = [len(req[2]) * len(req[3]) for req, _ in run["done"]]
            agree = [a for a, n in zip(agree, cells) for _ in range(n)]
        ok = [o and a for o, a in zip(ok, agree)]
    failed = ok.count(False)
    ops = run["ops"]
    q, tail = tail_percentile(run["latencies"])
    info = {"workload": args.workload, "seed": args.seed,
            "inputs_digest": inputs.digest(args.workload, args.seed,
                                           run["done"][0][0]),
            "requests": len(run["latencies"]), "ops": ops,
            "timed_wall_s": run["wall"], "tail_percentile": q,
            "failed_frac": failed / ops, **run.get("info", {})}

    if tracer is None:
        setups = setup_seconds(args.workload, args.seed)
        info["setup_samples_s"] = setups
        metrics = {
            "ops_per_s": (ops / run["wall"], "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(run["latencies"]), "ms"),
            "latency_p99_ms": (1e3 * tail, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["rss_mb"], "MB"),
            "ok_frac": (1.0 - failed / ops, "fraction"),
        }
    else:
        metrics = tracer.metrics(traced_wall, run["wall"])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        info["spans_file"] = os.path.relpath(path, ROOT)

    print("info " + json.dumps(info))
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0, "attempted": ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
