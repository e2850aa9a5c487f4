"""The reduced-basis online pass on a particle stack, timed per basis size.

One reduced model on uniform4 at n=32 is enriched at N random coercive
prior draws (N = 16, 40, 72; seeded), and a stack of M=64 coercive prior
draws is evaluated three ways: the corrected potentials
(``ReducedModel.potential``), the full evaluation with both gradients
(``ReducedModel.evaluate``) and one greedy indicator pass (``greedy_sweep``
with ``tol=inf``, which scores every particle once and enriches at none).

The model hands out its last online pass again when asked for the same
stack, so every timed call gets a stack other than the one before it: the
stack and its row-reversed copy alternate.  ``evaluate_after_potential``
times the sampler's pattern instead: ``evaluate`` right after an untimed
``potential`` on the same stack, which reuses that pass and adds only the
incremental solves and the gradients.  None of them solves a
high-fidelity system, so ``extra_info`` records ``hifi_solves=0`` next to
the basis sizes and the stack size.
"""

import functools
import itertools

import numpy as np
import pytest

from svrb.adaptive import greedy_sweep
from svrb.cases import assemble_problem, uniform4_case
from svrb.verify import build_small_rb, draw_coercive

MESH, M = 32, 64
ROUNDS = {16: 300, 40: 120, 72: 60}  # fewer where a call takes longer


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

# entry -> (the timed call, the untimed call made just before it on the same stack)
ENTRIES = {
    "potential": ("potential", None),
    "evaluate": ("evaluate", None),
    "evaluate_after_potential": ("evaluate", "potential"),
    "indicator_pass": ("indicator_pass", None),
}


@pytest.mark.parametrize("n_snapshots", [16, 40, 72])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_online(benchmark, entry, n_snapshots):
    problem, thetas = _problem_and_stack()
    rm = _model(n_snapshots)
    n_state = rm.n_state
    timed, before = ENTRIES[entry]
    stacks = itertools.cycle([thetas[::-1], thetas])
    CALLS["potential"](rm, problem, next(stacks))  # the first timed stack is not the held one

    def setup():
        stack = next(stacks)
        if before:
            CALLS[before](rm, problem, stack)
        return (rm, problem, stack), {}

    benchmark.pedantic(CALLS[timed], setup=setup, rounds=ROUNDS[n_snapshots], warmup_rounds=1)
    assert rm.n_state == n_state  # the indicator pass enriched nothing
    benchmark.extra_info.update(N=rm.n_state, N_adjoint=rm.n_adjoint, M=M,
                                dofs=problem.n_dofs, hifi_solves=0)
