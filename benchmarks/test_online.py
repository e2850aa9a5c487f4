"""The reduced-basis online pass on a particle stack, timed per basis size.

    pytest benchmarks/test_online.py --benchmark-json=BENCH_online.json

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
incremental solves and the gradients.  ``indicator_pass_after_enrich``
times the greedy sweep's pattern: on a copy of the model whose held stack
had an untimed indicator pass, one enrichment (a fixed high-fidelity
snapshot) followed by one indicator pass on that stack, which grows the held
factors by a row and a column.

``extra_info`` records the basis sizes and the stack size, ``hifi_solves=0``
(no timed call solves a high-fidelity system) and ``minor_faults``, the
median over rounds of the ``ru_minflt`` growth across one timed call.
"""

import functools
import itertools
import resource
import statistics

import numpy as np
import pytest

from svrb import hifi
from svrb.adaptive import greedy_sweep
from svrb.cases import assemble_problem, uniform4_case
from svrb.reduced import ReducedModel
from svrb.verify import build_small_rb, draw_coercive

MESH, M = 32, 64
ROUNDS = {16: 300, 40: 120, 72: 60}  # fewer where a call takes longer
_ARRAYS = ("basis_u", "basis_psi", "Au", "Ap", "Aup", "fu", "fp", "Ou", "Op")


@functools.lru_cache(maxsize=None)
def _problem_and_stack():
    problem = assemble_problem(uniform4_case(MESH))
    return problem, draw_coercive(problem, np.random.default_rng(1), M)


@functools.lru_cache(maxsize=None)
def _model(n_snapshots):
    return build_small_rb(_problem_and_stack()[0], np.random.default_rng(0), n_snapshots)


@functools.lru_cache(maxsize=None)
def _snapshot():
    problem = _problem_and_stack()[0]
    theta = draw_coercive(problem, np.random.default_rng(2), 1)[0]
    ev = hifi.evaluate(problem, theta)
    return ev.u, ev.psi, theta


def _indicator_pass(rm, problem, thetas):
    return greedy_sweep(rm, problem, thetas, tol=np.inf)


def _enrich_then_pass(rm, problem, thetas):
    rm.enrich(problem, *_snapshot())
    return _indicator_pass(rm, problem, thetas)


CALLS = {
    "potential": lambda rm, problem, thetas: rm.potential(problem, thetas),
    "evaluate": lambda rm, problem, thetas: rm.evaluate(problem, thetas),
    "indicator_pass": _indicator_pass,
    "enrich_then_pass": _enrich_then_pass,
}

# entry -> (the timed call, the untimed call made just before it on the same
# stack, whether each round starts from a copy of the model)
ENTRIES = {
    "potential": ("potential", None, False),
    "evaluate": ("evaluate", None, False),
    "evaluate_after_potential": ("evaluate", "potential", False),
    "indicator_pass": ("indicator_pass", None, False),
    "indicator_pass_after_enrich": ("enrich_then_pass", "indicator_pass", True),
}


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("n_snapshots", [16, 40, 72])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_online(benchmark, entry, n_snapshots):
    problem, thetas = _problem_and_stack()
    base = _model(n_snapshots)
    n_state = base.n_state
    timed, before, copy = ENTRIES[entry]
    stacks = itertools.cycle([thetas[::-1], thetas])
    rm = base
    CALLS["potential"](rm, problem, next(stacks))  # the first timed stack is not the held one
    if copy:
        _snapshot()  # its high-fidelity solve is not timed

    def setup():
        nonlocal rm
        stack = next(stacks)
        if copy:
            rm = ReducedModel(**{name: getattr(base, name) for name in _ARRAYS},
                              provenance=list(base.provenance))
        if before:
            CALLS[before](rm, problem, stack)
        return (rm, problem, stack), {}

    faults = []

    def counted(*args):
        start = _minflt()
        out = CALLS[timed](*args)
        faults.append(_minflt() - start)
        return out

    benchmark.pedantic(counted, setup=setup, rounds=ROUNDS[n_snapshots], warmup_rounds=1)
    assert base.n_state == n_state  # the timed calls did not grow the shared model
    assert rm.n_state == n_state + copy
    benchmark.extra_info.update(N=n_state, N_adjoint=base.n_adjoint, M=M,
                                dofs=problem.n_dofs, hifi_solves=0,
                                minor_faults=statistics.median(faults))
