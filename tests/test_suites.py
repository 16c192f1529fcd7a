"""Helpers of the verification suites against the public kernels."""

import ast
import math
import os
import pickle
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonline
from poissonline.kernels import (
    EvaluationPoint,
    KernelValue,
    OscillatorParam,
    euler_kernel,
    halfplane_poisson_kernel,
    oscillator_poisson_kernel,
)
import poissonline.oracles as oracles
import poissonline.suites as suites
from poissonline.oracles import limit_a_to_zero_gap, make_report
from poissonline.quadrature import IntegrandEvaluationError, QuadratureConfig
from poissonline.suites import _euler_log_kernel, _oscillator_ck_gap, run_suite


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.1, 4.0), y=st.floats(0.05, 5.0),
       r=st.floats(0.1, 10.0), fractions=st.lists(st.floats(0.01, 0.99),
                                                   min_size=1, max_size=16))
def test_array_euler_closed_form_matches_public_kernel(a, y, r, fractions):
    # the Chapman-Kolmogorov check integrates this array form; sample by
    # sample it must agree with euler_kernel, which it is checked against
    rp = r * np.array(fractions)
    got = np.exp(_euler_log_kernel(y, r, rp, a))
    ref = [euler_kernel(EvaluationPoint(y, r, float(s)), OscillatorParam(a)).value
           for s in rp]
    for g, e in zip(got, ref):
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-300)


def test_sqrt2_prefactor_fails_both_oscillator_semigroup_records():
    # negative control of the batched Chapman-Kolmogorov oracle: scaling
    # the kernel by s turns the convolution into s^2 P and the direct
    # kernel into s P, so each gap reads s - 1
    reports = [r for r in run_suite("invariants", prefactor_scale=math.sqrt(2.0))
               if r.check_name.startswith("semigroup-oscillator(")]
    assert len(reports) == 2
    for r in reports:
        assert not r.passed
        assert r.measured == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-6)


@pytest.mark.parametrize("case", [(1.0, 0.5, 0.5, 0.3, -0.2),
                                  (1.0, 1.0, 0.6, 0.0, 0.8)])
def test_gate_oscillator_semigroup_gaps_stop_at_the_first_rung(case, monkeypatch):
    # cost guard: on both gate cases the K15 and G7 sums of the first rung
    # agree within the kernel error, so each batch covers that rung's
    # 18 panels x 15 nodes once; a second rung would add 1080 evaluations
    batch = suites.oscillator_poisson_kernel_batch
    pairs = []

    def counting(y, targets, sources, *args, **kwargs):
        pairs.append(len(targets))
        return batch(y, targets, sources, *args, **kwargs)

    monkeypatch.setattr(suites, "oscillator_poisson_kernel_batch", counting)
    gap = _oscillator_ck_gap(*case, QuadratureConfig(), 1.0)
    assert pairs == [270, 270]
    assert gap <= 1e-12


@pytest.mark.parametrize("check", [
    suites.check_poisson_oracle,
    partial(_oscillator_ck_gap, 1.0, 0.5, 0.5, 0.3, -0.2),
])
def test_the_fault_scales_every_kernel_value_the_gate_reads(check, monkeypatch):
    # the library kernels take no fault knob: under scale s every value the
    # gate reads, solo or batched, is exactly s times the library's, and
    # its error estimate too
    scale = math.sqrt(2.0)
    solo, batch, scaled = (suites.oscillator_poisson_kernel,
                           suites.oscillator_poisson_kernel_batch, suites._scaled)
    made, read = [], []

    def solo_spy(*args):
        made.append(solo(*args))
        return made[-1]

    def batch_spy(*args):
        kvs = batch(*args)
        made.extend(kvs)
        return kvs

    def scaled_spy(kv, s):
        read.append((kv, scaled(kv, s)))
        return read[-1][1]

    monkeypatch.setattr(suites, "oscillator_poisson_kernel", solo_spy)
    monkeypatch.setattr(suites, "oscillator_poisson_kernel_batch", batch_spy)
    monkeypatch.setattr(suites, "_scaled", scaled_spy)
    check(QuadratureConfig(), scale)
    assert len(read) == len(made) > 1
    for kv, (seen, got) in zip(made, read):
        assert seen is kv
        assert got == KernelValue(scale * kv.value, scale * kv.error_estimate,
                                  kv.converged)


def test_the_flat_limit_scales_the_kernel_value():
    scale = math.sqrt(2.0)
    point, seq = EvaluationPoint(1.0, 0.3, -0.2), (1e-1, 1e-2)
    ref = halfplane_poisson_kernel(point).value
    gaps = [abs(scale * oscillator_poisson_kernel(point, OscillatorParam(a)).value
                - ref) / ref for a in seq]
    report = limit_a_to_zero_gap(1.0, 0.3, -0.2, seq, prefactor_scale=scale)
    assert report.context["gaps"] == tuple(gaps)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="prefactor_scale"):
            limit_a_to_zero_gap(1.0, 0.3, -0.2, seq, prefactor_scale=bad)


def _fake_check(label, cfg, scale):
    # its report is the only trace of a call: what a forked worker does
    # to this process's objects stays in the worker
    return [make_report(label, 0.0, scale, pid=os.getpid())]


def _raising_check(label, cfg, scale):
    raise ValueError(label)


def _dying_check(parent, cfg, scale):
    if os.getpid() != parent:
        os._exit(7)
    return []


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # workers whatever the host: a pool of two runs on one CPU too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def test_all_runs_every_suite_in_registry_order(monkeypatch):
    # SUITES maps each suite to its check functions; `all` is their
    # concatenation, in order, each check run once with (cfg, scale)
    registry = {"first": (partial(_fake_check, "a"), partial(_fake_check, "b")),
                "second": (partial(_fake_check, "c"),)}
    monkeypatch.setattr(suites, "SUITES", registry)
    reports = run_suite("all", prefactor_scale=2.0)
    assert [r.check_name for r in reports] == ["a", "b", "c"]
    assert all(r.tolerance == 2.0 for r in reports)
    assert suites.suite_names() == ("first", "second", "all")


# the records that the sqrt(2) fault fails: every one that reads an
# oscillator kernel value, except the residual order of the kernel field
SQRT2_FAILURES = [
    "limit-a-to-zero",
    "limit-sqrt2-control",
    *(f"poisson-oracle(a={a},y={y})" for a in ("0.5", "1", "2")
      for y in ("0.5", "1", "2")),
    "poisson-frozen-origin",
    "semigroup-oscillator(a=1,y1=0.5,y2=0.5,x=0.3,xp=-0.2)",
    "semigroup-oscillator(a=1,y1=1,y2=0.6,x=0,xp=0.8)",
]


@pytest.mark.parametrize("scale", [1.0, math.sqrt(2.0)])
def test_worker_pool_reports_equal_the_in_process_reports(scale, monkeypatch):
    # on every usable CPU the checks run in forked workers; pinned to one
    # CPU they run in this process; the reports must not tell them apart
    failing = SQRT2_FAILURES if scale != 1.0 else []
    pooled = run_suite("all", prefactor_scale=scale)
    assert [r.check_name for r in pooled if not r.passed] == failing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    in_process = run_suite("all", prefactor_scale=scale)
    assert [r.check_name for r in in_process if not r.passed] == failing
    assert in_process == pooled
    assert_no_child_process()


def test_first_failing_check_in_registry_order_raises(two_cpus, monkeypatch):
    # as in-process, although the workers take the later checks first
    monkeypatch.setattr(suites, "SUITES", {"mixed": (
        partial(_fake_check, "a"), partial(_raising_check, "first"),
        partial(_raising_check, "second"), partial(_fake_check, "b"))})
    with pytest.raises(ValueError, match="^first$"):
        run_suite("mixed")
    assert_no_child_process()


def test_a_worker_that_dies_is_an_error(two_cpus, monkeypatch):
    monkeypatch.setattr(suites, "SUITES", {"dying": (
        partial(_fake_check, "a"), partial(_dying_check, os.getpid()))})
    with pytest.raises(RuntimeError, match="ended without sending"):
        run_suite("dying")
    assert_no_child_process()


def test_checks_stay_in_process_while_another_thread_runs(two_cpus,
                                                         monkeypatch):
    # a fork taken while another thread holds a lock can deadlock the child
    monkeypatch.setattr(suites, "SUITES", {"pids": (
        partial(_fake_check, "a"), partial(_fake_check, "b"))})
    pooled = run_suite("pids")
    assert os.getpid() not in {r.context["pid"] for r in pooled}
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        reports = run_suite("pids")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert {r.context["pid"] for r in reports} == {os.getpid()}


def test_public_exceptions_survive_pickling():
    # a worker sends a check's exception back to the parent by pickle
    public = ([getattr(poissonline, name) for name in poissonline.__all__]
              + [getattr(oracles, name) for name in oracles.__all__])
    classes = [c for c in public
               if isinstance(c, type) and issubclass(c, BaseException)]
    assert len(classes) == 6
    for cls in classes:
        exc = cls(1.5) if cls is IntegrandEvaluationError else cls("message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert back.args == exc.args and str(back) == str(exc)
        assert vars(back) == vars(exc)


def test_import_loads_no_process_pool(package_env):
    # the gate's workers are plain forks: importing the package and the
    # CLI loads no process-pool machinery (~17 ms of imports)
    code = ("import sys, poissonline, poissonline.cli\n"
            "print('multiprocessing' in sys.modules,"
            " 'concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_import_loads_no_verification_module(package_env):
    code = ("import sys, poissonline\n"
            "print('poissonline.oracles' in sys.modules,"
            " 'poissonline.suites' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


LIBRARY = ("__init__", "numerics", "quadrature", "kernels", "solvers")


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_imports_nothing_of_the_gate(module):
    gate = {"oracles", "suites", "cli"}
    path = Path(poissonline.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(part for alias in node.names
                            for part in alias.name.split("."))
    assert imported and not imported & gate


def test_package_namespace_holds_library_names_only():
    assert len(poissonline.__all__) == 28
    gate = set(oracles.__all__) | set(suites.__all__)
    assert gate & set(poissonline.__all__) == {"hermite_function"}
    assert poissonline.hermite_function is oracles.hermite_function


def test_registry_holds_the_module_check_functions():
    checks = [c for s in suites.SUITES.values() for c in s]
    assert len(set(checks)) == len(checks) == 9
    for c in checks:
        assert getattr(suites, c.__name__) is c
