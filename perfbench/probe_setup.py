"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/probe_setup.py WORKLOAD SEED

Set-up is `import poissonline` from this checkout plus building the
objects of the workload's first request.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402  (stdlib only; not part of what is timed)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import poissonline
    inputs.build_first(poissonline, workload, seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
