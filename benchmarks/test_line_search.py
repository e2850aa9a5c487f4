"""One high-fidelity backtracking line search, timed from a fixed state.

The state is the first sampler iteration on gaussian9 at n=63 with M=4
particles drawn with seed 0: one batched high-fidelity evaluation gives the
Stein direction, and the timed call searches along it from ``alpha = 1``.
``extra_info`` records the factorizations one search spends (the paper's
cost currency), the accepted step and the number of halvings.  The second
benchmark runs the same search with a backend that evaluates every row of
every trial, for comparison.  The third times the second iteration's search,
from the state the first accepted step leads to: once from ``alpha = 1`` and
once from twice the first accepted step, where the sampler starts it.
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


def _direction(problem, particles):
    _, grads = HiFiBackend(problem).evaluate_batch(particles)
    scores = prior_score(problem.prior, particles) - grads
    return svgd_direction(particles, scores, median_bandwidth(particles))


@functools.lru_cache(maxsize=None)
def _state():
    problem = assemble_problem(gaussian9_case(63))
    particles = draw_prior(problem.prior, N_PARTICLES, SEED)
    return problem, particles, _direction(problem, particles)


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


@functools.lru_cache(maxsize=None)
def _second_state():
    """Iteration 1 of the sampler: its particles, direction and the start step
    that the first accepted step gives it."""
    problem, particles, direction = _state()
    alpha, _, _ = line_search(particles, direction, HiFiBackend(problem).potential_batch,
                              problem.prior)
    particles, _ = problem.prior.clamp(particles + alpha * direction)
    return problem, particles, _direction(problem, particles), min(1.0, 2.0 * alpha)


def _second_search(backend, start):
    problem, particles, direction, _ = _second_state()
    return line_search(particles, direction, backend.potential_batch, problem.prior, start)


@pytest.mark.parametrize("warm", [False, True], ids=["alpha_init", "warm"])
def test_second_line_search(benchmark, warm):
    problem, _, _, warm_start = _second_state()
    start = warm_start if warm else 1.0
    counted = HiFiBackend(problem)
    alpha, exhausted, _ = _second_search(counted, start)
    assert not exhausted
    benchmark(_second_search, HiFiBackend(problem), start)
    benchmark.extra_info.update(dofs=problem.n_dofs, particles=N_PARTICLES, start=start,
                                hifi_solves=counted.n_evaluations, alpha=alpha,
                                halvings=int(round(np.log2(start / alpha))))
