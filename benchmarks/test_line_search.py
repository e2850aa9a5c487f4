"""One high-fidelity backtracking line search, timed from a fixed state.

The state is the first sampler iteration on gaussian9 at n=63 with M=4
particles drawn with seed 0: one batched high-fidelity evaluation gives the
Stein direction, and the timed call searches along it from ``alpha = 1``.
``extra_info`` records the factorizations one search spends (the paper's
cost currency), the accepted step and the number of halvings.  The second
benchmark runs the same search with a backend that evaluates every row of
every trial, for comparison.
"""

import functools

import numpy as np
import pytest

from svrb.backends import HiFiBackend
from svrb.cases import assemble_problem, gaussian9_case
from svrb.svgd import (draw_prior, line_search, median_bandwidth, prior_score,
                       svgd_direction)

N_PARTICLES, SEED = 4, 0


class FullEvaluation(HiFiBackend):
    """Ignores the budget: every trial evaluates every particle."""

    def potential_batch(self, thetas, budget=np.inf):
        return super().potential_batch(thetas)


@functools.lru_cache(maxsize=None)
def _state():
    problem = assemble_problem(gaussian9_case(63))
    particles = draw_prior(problem.prior, N_PARTICLES, SEED)
    _, grads = HiFiBackend(problem).evaluate_batch(particles)
    scores = prior_score(problem.prior, particles) - grads
    direction = svgd_direction(particles, scores, median_bandwidth(particles))
    return problem, particles, direction


def _search(backend):
    problem, particles, direction = _state()
    return line_search(particles, direction, backend.potential_batch, problem.prior)


@pytest.mark.parametrize("backend_cls", [HiFiBackend, FullEvaluation],
                         ids=["budget", "full"])
def test_line_search(benchmark, backend_cls):
    problem = _state()[0]
    counted = backend_cls(problem)
    alpha, exhausted, _ = _search(counted)
    assert not exhausted
    benchmark(_search, backend_cls(problem))
    benchmark.extra_info.update(dofs=problem.n_dofs, particles=N_PARTICLES,
                                hifi_solves=counted.n_evaluations, alpha=alpha,
                                halvings=int(round(np.log2(1.0 / alpha))))
