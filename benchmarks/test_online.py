"""The reduced-basis online pass on a particle stack, timed per basis size.

One reduced model on uniform4 at n=32 is enriched at N random coercive
prior draws (N = 16, 40, 72; seeded), and a fixed stack of M=64 coercive
prior draws is evaluated three ways: the corrected potentials
(``ReducedModel.potential``), the full evaluation with both gradients
(``ReducedModel.evaluate``) and one greedy indicator pass (``greedy_sweep``
with ``tol=inf``, which scores every particle once and enriches at none).
None of them solves a high-fidelity system, so ``extra_info`` records
``hifi_solves=0`` next to the basis sizes and the stack size.
"""

import functools

import numpy as np
import pytest

from svrb.adaptive import greedy_sweep
from svrb.cases import assemble_problem, uniform4_case
from svrb.verify import build_small_rb, draw_coercive

MESH, M = 32, 64


@functools.lru_cache(maxsize=None)
def _problem_and_stack():
    problem = assemble_problem(uniform4_case(MESH))
    return problem, draw_coercive(problem, np.random.default_rng(1), M)


@functools.lru_cache(maxsize=None)
def _model(n_snapshots):
    return build_small_rb(_problem_and_stack()[0], np.random.default_rng(0), n_snapshots)


CALLS = {
    "potential": lambda rm, problem, thetas: rm.potential(problem, thetas),
    "evaluate": lambda rm, problem, thetas: rm.evaluate(problem, thetas),
    "indicator_pass": lambda rm, problem, thetas: greedy_sweep(rm, problem, thetas, tol=np.inf),
}


@pytest.mark.parametrize("n_snapshots", [16, 40, 72])
@pytest.mark.parametrize("call", list(CALLS))
def test_online(benchmark, call, n_snapshots):
    problem, thetas = _problem_and_stack()
    rm = _model(n_snapshots)
    n_state = rm.n_state
    benchmark(CALLS[call], rm, problem, thetas)
    assert rm.n_state == n_state  # the indicator pass enriched nothing
    benchmark.extra_info.update(N=rm.n_state, N_adjoint=rm.n_adjoint, M=M,
                                dofs=problem.n_dofs, hifi_solves=0)
