"""Command-line contract: examples, formats, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import poissonline.cli as cli
import poissonline.suites as suites
from poissonline.kernels import EvaluationPoint, OscillatorParam, oscillator_poisson_kernel
from poissonline.oracles import hermite_function, make_report
from poissonline.quadrature import IntegrandEvaluationError
from poissonline.solvers import SolutionGrid


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestKernelCommand:
    def test_halfplane_example(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                             "--target", "0", "--source", "0"], capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert float(rec["value"]) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert rec["converged"] == "true"

    def test_oscillator_example(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "oscillator", "--a", "1",
                             "--y", "1", "--target", "0", "--source", "0"],
                            capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert float(rec["value"]) == pytest.approx(0.2595532719943308,
                                                    rel=1e-10)
        assert float(rec["error_estimate"]) <= 1e-8

    def test_grid_is_row_major_target_outer(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                             "--target-grid", "0:1:3",
                             "--source-grid", "0:1:2"], capsys)
        assert code == 0
        recs = read_csv(out)
        assert [(r["target"], r["source"]) for r in recs] == [
            ("0", "0"), ("0", "1"),
            ("0.5", "0"), ("0.5", "1"),
            ("1", "0"), ("1", "1"),
        ]

    def test_csv_round_trips_doubles(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "oscillator", "--a", "1",
                             "--y", "0.8", "--target", "0.3",
                             "--source-grid", "0:0.9:3"], capsys)
        assert code == 0
        a = OscillatorParam(1.0)
        for rec in read_csv(out):
            direct = oscillator_poisson_kernel(
                EvaluationPoint(0.8, 0.3, float(rec["source"])), a)
            assert float(rec["value"]) == direct.value
            assert float(rec["error_estimate"]) == direct.error_estimate

    def test_json_round_trips_doubles(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "dirac", "--y", "1",
                             "--target", "0", "--source-grid", "0.5:2:4",
                             "--format", "json"], capsys)
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 4
        from poissonline.kernels import dirac_kernel

        for rec in recs:
            direct = dirac_kernel(EvaluationPoint(1.0, 0.0, rec["source"]))
            assert rec["value"] == direct.value

    def test_mehler_uses_t(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "mehler", "--a", "1",
                             "--t", "0.5", "--target", "0", "--source", "0"],
                            capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert float(rec["value"]) == pytest.approx(0.3680051987075608,
                                                    rel=1e-14)

    @pytest.mark.parametrize("args", [
        ["kernel", "--kernel", "mehler", "--a", "1", "--y", "0.5",
         "--target", "0", "--source", "0"],
        ["kernel", "--kernel", "dirac", "--y", "1", "--t", "0.5",
         "--target", "0", "--source", "1"],
        ["kernel", "--kernel", "dirac", "--y", "1", "--a", "1",
         "--target", "0", "--source", "1"],
        ["kernel", "--kernel", "euler", "--a", "1", "--y", "1",
         "--target", "1", "--source", "0"],
        ["kernel", "--kernel", "oscillator", "--y", "1",
         "--target", "0", "--source", "0"],  # missing a
        ["kernel", "--kernel", "dirac", "--y", "1", "--target", "0"],
        ["kernel", "--kernel", "dirac", "--y", "1", "--target", "0",
         "--target-grid", "0:1:2", "--source", "1"],
    ])
    def test_invalid_inputs_exit_2(self, args, capsys):
        code, _ = run_cli(args, capsys)
        assert code == 2

    @pytest.mark.parametrize("spec", ["1:0:3", "0:1:0", "0:1", "a:b:c",
                                      "0:inf:4"])
    def test_malformed_grid_exits_2(self, spec, capsys):
        code, _ = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                           "--target", "0", "--source-grid", spec], capsys)
        assert code == 2

    def test_non_finite_integrand_exits_3(self, capsys, monkeypatch):
        # a quadrature that meets a non-finite sample cannot go on, and no
        # record is written
        def fail(*args, **kwargs):
            raise IntegrandEvaluationError(0.5)

        monkeypatch.setattr(cli, "oscillator_poisson_kernel_batch", fail)
        code = cli.main(["kernel", "--kernel", "oscillator", "--a=1",
                         "--y=1", "--target=0", "--source=0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "error: non-finite integrand sample")

    def test_overflowing_mehler_spread_gives_zero(self, capsys):
        # at a = 1e300 the spread (a/2)(x - x')^2 overflows: the kernel is
        # exactly 0.0 there, and no quadrature is run
        code, out = run_cli(["kernel", "--kernel", "oscillator", "--a=1e300",
                             "--y=1", "--target=1e5", "--source=-1e5"], capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert (rec["value"], rec["error_estimate"], rec["converged"]) == (
            "0", "0", "true")

    def test_huge_a_warns_nothing(self, package_env):
        # at a = 1e300 the Mehler 2at overflows inside the quadrature; the
        # kernel is 0.0, and numpy's overflow warning must not reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "poissonline", "kernel", "--kernel",
             "oscillator", "--a=1e300", "--y=1", "--target=0", "--source=0"],
            capture_output=True, text=True, timeout=120, env=package_env)
        assert (proc.returncode, proc.stderr) == (0, "")
        (rec,) = read_csv(proc.stdout)
        assert rec["value"] == "0"

    def test_single_point_grid(self, capsys):
        code, out = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                             "--target", "0", "--source-grid", "0.25:0.25:1"],
                            capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert rec["source"] == "0.25"


class TestSolveCommand:
    def test_dirac_exponential_example(self, capsys):
        code, out = run_cli(["solve", "--problem", "dirac", "--data",
                             "exponential:1", "--y", "1", "--target", "0"],
                            capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert float(rec["value"]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_oscillator_eigenfunction_grid_example(self, capsys):
        code, out = run_cli(["solve", "--problem", "oscillator", "--a", "1",
                             "--data", "eigenfunction:0",
                             "--y-grid", "0.5:1:2", "--target", "0"], capsys)
        assert code == 0
        recs = read_csv(out)
        phi0 = hermite_function(0, 1.0, 0.0)
        assert float(recs[0]["value"]) == pytest.approx(
            math.exp(-0.5) * phi0, rel=1e-10)
        assert float(recs[1]["value"]) == pytest.approx(
            math.exp(-1.0) * phi0, rel=1e-10)

    def test_euler_power_example(self, capsys):
        code, out = run_cli(["solve", "--problem", "euler", "--a", "1",
                             "--data", "power:0.5", "--y", "1",
                             "--target", "1"], capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert float(rec["value"]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_sampled_data_from_file(self, tmp_path, capsys):
        path = tmp_path / "datum.csv"
        xs = np.linspace(-3.0, 3.0, 31)
        lines = ["x,value"] + [f"{x},{math.exp(-x * x)}" for x in xs]
        path.write_text("\n".join(lines) + "\n")
        code, out = run_cli(["solve", "--problem", "dirac", "--data",
                             f"sampled:{path}", "--y", "0.5", "--target",
                             "-1", "--rel-tol", "1e-8"], capsys)
        assert code == 0
        (rec,) = read_csv(out)
        assert 0.0 < float(rec["value"]) < 1.0

    @pytest.mark.parametrize("args", [
        ["solve", "--problem", "dirac", "--data", "nonsense:1",
         "--y", "1", "--target", "0"],
        ["solve", "--problem", "dirac", "--data", "gaussian:0",
         "--y", "1", "--target", "0"],
        ["solve", "--problem", "dirac", "--data", "power:1",
         "--y", "1", "--target", "0"],  # incompatible preset
        ["solve", "--problem", "euler", "--a", "1", "--data", "gaussian:1,1",
         "--y", "1", "--target", "0"],  # invariant line
        ["solve", "--problem", "oscillator", "--data", "eigenfunction:0",
         "--y", "1", "--target", "0"],  # missing a
        ["solve", "--problem", "dirac", "--data", "sampled:/no/such/file",
         "--y", "1", "--target", "0"],
        ["solve", "--problem", "dirac", "--a", "1", "--data", "gaussian:0,1",
         "--y", "1", "--target", "0"],  # dirac takes no a
        ["solve", "--problem", "oscillator", "--a", "1",
         "--data", "eigenfunction:1.5", "--y", "1", "--target", "0"],
        ["solve", "--problem", "dirac", "--data", "exponential:1,2",
         "--y", "1", "--target", "0"],  # one parameter too many
    ])
    def test_invalid_inputs_exit_2(self, args, capsys):
        code, _ = run_cli(args, capsys)
        assert code == 2

    def test_unconverged_cells_exit_3(self, capsys, monkeypatch):
        def fake(req):
            shape = (1, 1)
            return SolutionGrid(req.y_levels, req.spatial_points,
                                np.full(shape, 0.5), np.full(shape, 1e-3),
                                np.zeros(shape, dtype=bool))

        monkeypatch.setattr(cli, "solve_grid", fake)
        code, out = run_cli(["solve", "--problem", "dirac", "--data",
                             "exponential:1", "--y", "1", "--target", "0"],
                            capsys)
        assert code == 3
        (rec,) = read_csv(out)  # records still written
        assert rec["converged"] == "false"


def _passing_check(cfg, scale):
    return [make_report("passing", 0.0, 1.0)]


def _failing_check(cfg, scale):
    raise IntegrandEvaluationError(0.25)


class TestVerifyCommand:
    def test_check_error_in_a_worker_exits_3(self, capsys, monkeypatch):
        # two usable CPUs put the checks in forked workers: the error
        # crosses back by pickle, and no worker outlives the call
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setitem(suites.SUITES, "identities",
                            (_passing_check, _failing_check))
        code = cli.main(["verify", "--suite", "identities"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: non-finite integrand sample at u=0.25")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_identities_suite_passes(self, capsys):
        code, out = run_cli(["verify", "--suite", "identities"], capsys)
        assert code == 0
        recs = read_csv(out)
        assert len(recs) >= 50
        assert all(r["passed"] == "true" for r in recs)

    def test_prefactor_injection_fails(self, capsys):
        code, out = run_cli(["verify", "--suite", "identities",
                             "--oscillator-prefactor-scale",
                             "1.4142135623730951"], capsys)
        assert code == 1
        recs = read_csv(out)
        failing = [r["check_name"] for r in recs if r["passed"] == "false"]
        assert "limit-a-to-zero" in failing
        assert "limit-sqrt2-control" in failing

    def test_tolerance_override_fails(self, capsys):
        code, out = run_cli(["verify", "--suite", "identities",
                             "--tolerance-override", "1e-20"], capsys)
        assert code == 1
        recs = read_csv(out)
        assert all(float(r["tolerance"]) == 1e-20 for r in recs)

    def test_requires_suite(self, capsys):
        code, _ = run_cli(["verify"], capsys)
        assert code == 2

    def test_rejects_bad_scale(self, capsys):
        code, _ = run_cli(["verify", "--suite", "identities",
                           "--oscillator-prefactor-scale", "-1"], capsys)
        assert code == 2


class TestLimitCommand:
    def test_a_to_zero_defaults(self, capsys):
        code, out = run_cli(["limit", "--study", "a-to-zero"], capsys)
        assert code == 0
        recs = read_csv(out)
        gaps = [float(r["gap"]) for r in recs]
        assert len(gaps) == 3
        assert gaps[0] > gaps[1] > gaps[2]

    def test_boundary_study(self, capsys):
        code, out = run_cli(["limit", "--study", "boundary", "--problem",
                             "dirac"], capsys)
        assert code == 0
        recs = read_csv(out)
        params = [float(r["parameter"]) for r in recs]
        assert params == [0.2, 0.1, 0.05]

    def test_empty_sequence_exits_2(self, capsys):
        code, _ = run_cli(["limit", "--study", "a-to-zero", "--a-seq", ""],
                          capsys)
        assert code == 2

    def test_non_decreasing_sequence_exits_2(self, capsys):
        code, _ = run_cli(["limit", "--study", "a-to-zero", "--a-seq",
                           "1e-3,1e-2"], capsys)
        assert code == 2

    def test_boundary_requires_problem(self, capsys):
        code, _ = run_cli(["limit", "--study", "boundary"], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--problem", "dirac", "--a", "1"],     # dirac takes no a
        ["--problem", "euler"],                 # euler requires a
    ])
    def test_boundary_a_rule_exits_2(self, args, capsys):
        code, _ = run_cli(["limit", "--study", "boundary"] + args, capsys)
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--study", "a-to-zero", "--problem", "dirac", "--y-seq", "5,6",
         "--points", "1"],
        ["--study", "boundary", "--problem", "dirac", "--a-seq", "1"],
        ["--study", "boundary", "--problem", "euler", "--a", "1",
         "--target", "0"],
    ])
    def test_options_of_the_other_study_exit_2(self, args, capsys):
        code, out = run_cli(["limit"] + args, capsys)
        assert code == 2
        assert out == ""

    def test_options_of_the_other_study_from_config_exit_2(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y-seq=0.3,0.2\n")
        code, _ = run_cli(["limit", "--study", "a-to-zero", "--config",
                           str(cfg)], capsys)
        assert code == 2


class TestOutputPlumbing:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["kernel", "--kernel", "oscillator", "--a", "1", "--y", "0.7",
                "--target-grid", "0:1:2", "--source", "0.2"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(p1)]) == 0
        assert cli.main(args + ["--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert capsys.readouterr().out == ""  # file output, not stdout

    def test_json_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--suite", "identities", "--format", "json"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(p1)]) == 0
        assert cli.main(args + ["--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # well-formed

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\nsuite=identities\nformat=json\n")
        code, out = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\nsuite=identities\n")
        code, out = run_cli(["verify", "--config", str(cfg), "--format",
                             "csv"], capsys)
        assert code == 0
        assert out.startswith("check_name,")

    # per command: arguments of a valid run, and a config value for each of
    # its long options (the arguments win over the config values)
    _CONFIG_CASES = {
        "kernel": (["--kernel", "halfplane", "--y", "1", "--target", "0",
                    "--source", "0"],
                   {"kernel": "halfplane", "a": "1", "y": "1", "t": "0.5",
                    "target": "0", "target-grid": "0:1:2", "source": "0",
                    "source-grid": "0:1:2", "rel-tol": "1e-9",
                    "format": "json", "output": "-"}),
        "solve": (["--problem", "dirac", "--data", "exponential:1", "--y", "1",
                   "--target", "0"],
                  {"problem": "dirac", "data": "exponential:1", "a": "1",
                   "y": "1", "y-grid": "1:2:2", "target": "0",
                   "target-grid": "0:1:2", "rel-tol": "1e-9",
                   "format": "json", "output": "-"}),
        "verify": (["--suite", "identities", "--tolerance-override", "1"],
                   {"suite": "identities", "oscillator-prefactor-scale": "1",
                    "tolerance-override": "1", "rel-tol": "1e-9",
                    "format": "json", "output": "-"}),
        "limit": (["--study", "a-to-zero"],
                  {"study": "a-to-zero", "problem": "dirac",
                   "data": "gaussian:0,1", "a": "1", "y": "1", "target": "0.3",
                   "source": "-0.2", "a-seq": "1e-1,1e-2", "y-seq": "0.2,0.1",
                   "points": "0", "rel-tol": "1e-9", "format": "json",
                   "output": "-"}),
    }

    @pytest.mark.parametrize("command", list(_CONFIG_CASES))
    def test_every_long_option_is_a_config_key(self, command, tmp_path,
                                               capsys):
        base, values = self._CONFIG_CASES[command]
        parser, commands = cli._build_parser()
        longs = {opt[2:] for action in commands[command]._actions
                 for opt in action.option_strings if opt.startswith("--")}
        assert set(values) == longs - {"help", "config"}
        cfg = tmp_path / "run.cfg"
        for key, value in list(values.items()) + [("volume", "11")]:
            cfg.write_text(f"{key}={value}\n")
            cli.main([command, "--config", str(cfg)] + base)
            # a key the command does not take exits 2 before the command runs
            err = capsys.readouterr().err
            assert ("unknown key" in err) == (key == "volume"), (key, err)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume=11\n")
        code, _ = run_cli(["verify", "--suite", "identities", "--config",
                           str(cfg)], capsys)
        assert code == 2

    def test_env_tolerance_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("POISSONLINE_REL_TOL", "1e-6")
        code, out = run_cli(["kernel", "--kernel", "oscillator", "--a", "1",
                             "--y", "1", "--target", "0", "--source", "0"],
                            capsys)
        assert code == 0
        (rec,) = read_csv(out)
        # looser tolerance shows up as a larger reported error estimate
        assert float(rec["error_estimate"]) > 1e-10

    def test_env_tolerance_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("POISSONLINE_REL_TOL", "not-a-float")
        code, _ = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                           "--target", "0", "--source", "0"], capsys)
        assert code == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POISSONLINE_REL_TOL", "not-a-float")
        code, _ = run_cli(["kernel", "--kernel", "halfplane", "--y", "1",
                           "--target", "0", "--source", "0",
                           "--rel-tol", "1e-9"], capsys)
        assert code == 0

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kernel", "--frobnicate"])
        assert exc.value.code == 2


def test_module_entry_point(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "poissonline", "kernel", "--kernel",
         "halfplane", "--y", "1", "--target", "0", "--source", "0"],
        capture_output=True, text=True, timeout=120, env=package_env)
    assert proc.returncode == 0
    assert "0.31830988618379069" in proc.stdout
