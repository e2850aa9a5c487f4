"""Run one workload of the svrb benchmark and print its result line.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload chains-u4 --seed 1 --seconds 50 --trace 0

The workload itself runs in one child process (``perfbench/worker.py``) whose
environment pins the BLAS thread count and imports svrb from ``./src`` of the
checkout, so nothing needs installing.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is the worker's, or nonzero when the checkout
holds no svrb sources or the worker overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1  # the workloads are timed single-threaded
WORKER_TIMEOUT_S = 170
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SVRB_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main():
    args = parse_args()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "svrb", "__init__.py")):
        print("perfbench: ./src/svrb not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("SVRB_OUTPUT_DIR", None)  # would override the per-run output dirs
    env.update({var: str(min(BLAS_THREADS, os.cpu_count() or 1)) for var in _THREAD_VARS})
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
