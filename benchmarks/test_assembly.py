"""Problem assembly, timed per mesh size.

``assemble_problem`` does every piece of structure work of a problem once:
element geometry, the shared sparsity structure of all stiffness blocks
and the Gram matrix, the fill-reducing dof numbering, and the blocks,
loads and observation matrix in that numbering.  It also makes the
reference solves of the synthetic data (one for ``uniform4``, whose data
parameter is its reference parameter), which ``extra_info`` records as
high-fidelity solves next to the size of the shared structure.
"""

import pytest

from svrb.cases import assemble_problem, gaussian9_case, uniform4_case

CASES = {"uniform4": uniform4_case, "gaussian9": gaussian9_case}


@pytest.mark.parametrize("case, n", [("uniform4", 32), ("gaussian9", 63), ("uniform4", 128)])
def test_assemble_problem(benchmark, case, n):
    problem = benchmark(assemble_problem, CASES[case](n))
    benchmark.extra_info.update(dofs=problem.n_dofs, hifi_solves=1,
                                nnz=int(problem.A_blocks[0].nnz),
                                blocks=problem.n_diffusion_terms)
