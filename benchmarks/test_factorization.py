"""Sparse factorization and one high-fidelity evaluation, timed per mesh size.

Each factorization is one high-fidelity solve in the paper's cost currency;
``extra_info`` records the solve count and the LU fill next to the time.
"""

import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from svrb import hifi
from svrb.cases import assemble_problem, uniform4_case

THETA = np.array([0.4, -0.3, 0.2, 0.1])  # coercive, inside the prior box


@functools.lru_cache(maxsize=None)
def _problem(n):
    return assemble_problem(uniform4_case(n))


def _fill(lu):
    return int(lu.L.nnz + lu.U.nnz)


@pytest.mark.parametrize("n", [32, 63, 128])
def test_factorization(benchmark, n):
    problem = _problem(n)
    op = benchmark(hifi.Factorization, problem, THETA)
    benchmark.extra_info.update(dofs=problem.n_dofs, hifi_solves=1, fill=_fill(op._lu))


@pytest.mark.parametrize("n", [32, 63, 128])
def test_colamd_reference(benchmark, n):
    """SuperLU's default column ordering on the same operator, for comparison."""
    problem = _problem(n)
    A = hifi.Factorization(problem, THETA).A.tocsc()
    lu = benchmark(spla.splu, A)
    benchmark.extra_info.update(dofs=problem.n_dofs, hifi_solves=1, fill=_fill(lu))


def test_evaluate(benchmark):
    problem = _problem(128)
    ev = benchmark(hifi.evaluate, problem, THETA)
    assert np.isfinite(ev.eta)
    benchmark.extra_info.update(dofs=problem.n_dofs, hifi_solves=1)
