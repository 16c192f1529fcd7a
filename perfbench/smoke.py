"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload untraced and traced at tiny sizes and checks that each
metric named in BENCHMARK.json is printed with its unit and that the seed
code passes every correctness check.  Then two negative controls: the
sqrt(2)-corrupted oscillator prefactor must drive the verify-gate failure
fraction to 1, and a directory holding only the benchmark (no program)
must make it exit non-zero without printing a result.  Exits 1 on the
first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out")

TINY = {
    "point-queries": ["--seconds", "0.5"],
    "field-solve": ["--seconds", "0.5", "--max-requests", "1"],
    "verify-gate": ["--seconds", "0.5", "--gate-suite", "identities"],
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc) -> dict:
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for workload, extra in TINY.items():
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out = result(run(["--workload", workload, "--seed", "7",
                              "--trace", str(trace)] + extra))
            metrics = out["metrics"]
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail(f"{workload} trace={trace}: {m['name']} [{m['unit']}] "
                         f"printed as {got}")
            if set(metrics) != {m["name"] for m in listed}:
                fail(f"{workload} trace={trace}: unlisted metrics "
                     f"{sorted(set(metrics) - {m['name'] for m in listed})}")
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] > 0):
                fail(f"{workload} trace={trace}: {out}")
            print(f"ok {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{out['attempted']} ops correct")

    out = result(run(["--workload", "verify-gate", "--seed", "7", "--seconds",
                      "0.5", "--trace", "0", "--gate-suite", "identities",
                      "--gate-prefactor-scale", "1.4142135623730951"]))
    if out["correct"] or out["failed"] != out["attempted"] \
            or out["metrics"]["ok_frac"]["value"] != 0.0:
        fail(f"negative control was not caught: {out}")
    print("ok negative control: failed_frac = 1")

    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "point-queries", "--seed", "7",
                    "--seconds", "0.5", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"benchmark without the program: exit {proc.returncode}, "
                 f"stdout {proc.stdout[-500:]!r}")
    print("ok without the program: exit non-zero, no result")


if __name__ == "__main__":
    main()
