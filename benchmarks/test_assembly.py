"""Problem assembly, timed per mesh size.

``assemble_problem`` does every piece of structure work of a problem once:
element geometry, the shared sparsity structure of all stiffness blocks
and the Gram matrix, the fill-reducing dof numbering, and the blocks,
loads and observation matrix in that numbering.  It also makes the
reference solves of the synthetic data (one for ``uniform4``, whose data
parameter is its reference parameter), which ``extra_info`` records as
high-fidelity solves next to the size of the shared structure and the
bytes of the arrays the problem keeps.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from svrb.cases import assemble_problem, gaussian9_case, uniform4_case

CASES = {"uniform4": uniform4_case, "gaussian9": gaussian9_case}


def stored_bytes(problem):
    """Bytes of the distinct arrays the problem and its mesh hold, an
    array shared by several objects counted once."""
    arrays = {}

    def collect(value):
        if isinstance(value, np.ndarray):
            arrays[value.__array_interface__["data"][0]] = value.nbytes
        elif sp.issparse(value):
            for part in (value.data, value.indices, value.indptr):
                collect(part)
        elif isinstance(value, (list, tuple, dict)):
            for part in value.values() if isinstance(value, dict) else value:
                collect(part)

    for value in list(vars(problem).values()) + list(vars(problem.mesh).values()):
        collect(value)
    return sum(arrays.values())


@pytest.mark.parametrize("case, n", [("uniform4", 32), ("gaussian9", 63), ("uniform4", 128)])
def test_assemble_problem(benchmark, case, n):
    problem = benchmark(assemble_problem, CASES[case](n))
    benchmark.extra_info.update(dofs=problem.n_dofs, hifi_solves=1,
                                nnz=problem.A_data.shape[1],
                                blocks=problem.n_diffusion_terms,
                                stored_bytes=stored_bytes(problem),
                                A_data_bytes=problem.A_data.nbytes)
