"""Layer benchmarks of svrb, run with pytest-benchmark.

    pytest benchmarks --benchmark-json=BENCH_factorization.json

The directory sits outside the ``testpaths`` of the test suite, so a plain
``pytest`` run does not time anything.  svrb is imported from ``src`` of
this checkout.  The machine facts each timing depends on are added to the
``machine_info`` block of the JSON file.
"""

import os
import sys

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["nproc"] = os.cpu_count()
    machine_info["numpy"] = np.__version__
    machine_info["scipy"] = scipy.__version__
    machine_info["blas_threads"] = {var: os.environ.get(var) for var in _THREAD_VARS}
