"""The greedy reduced-basis build of the speedup acceptance test, timed.

    pytest benchmarks/test_greedy.py --benchmark-json=BENCH_greedy.json

The build is that of ``test_criterion_8_speedup``: uniform4 at n=128, the
M=64 prior draw of sampler seed 1, the reduced model seeded at its first
particle and one greedy sweep to tolerance ``eps0=1.0``
(``adaptive.build_fixed_rb``).  Its cost splits into the high-fidelity
factorizations of the snapshots and the rest: online indicator passes,
orthogonalization and the growth of the reduced blocks.  The rest is what
the speedup gate's margin depends on, so ``extra_info`` records it as
``outside_factor_s`` (median over rounds) next to the basis size ``N_r``
and the factorization count ``hifi_solves``.
"""

import functools
import statistics
import time

import pytest

from svrb import hifi
from svrb.adaptive import build_fixed_rb
from svrb.cases import assemble_problem, uniform4_case
from svrb.svgd import SVGDConfig

MESH, M, EPS0, SEED = 128, 64, 1.0, 1


@functools.lru_cache(maxsize=None)
def _problem():
    return assemble_problem(uniform4_case(MESH))


def test_greedy_build(benchmark, monkeypatch):
    problem = _problem()
    factor = {"s": 0.0, "n": 0}
    init = hifi.Factorization.__init__

    def timed_init(self, *args, **kwargs):
        t0 = time.perf_counter()
        init(self, *args, **kwargs)
        factor["s"] += time.perf_counter() - t0
        factor["n"] += 1

    monkeypatch.setattr(hifi.Factorization, "__init__", timed_init)
    rounds = []

    def build():
        factor.update(s=0.0, n=0)
        t0 = time.perf_counter()
        rm, _ = build_fixed_rb(problem, SVGDConfig(n_particles=M, seed=SEED), EPS0)
        rounds.append((time.perf_counter() - t0 - factor["s"], factor["n"]))
        return rm

    rm = benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=0)
    assert len({n for _, n in rounds}) == 1  # every round builds the same model
    benchmark.extra_info.update(
        N_r=rm.n_state, N_adjoint=rm.n_adjoint, M=M, dofs=problem.n_dofs,
        hifi_solves=rounds[0][1],
        outside_factor_s=statistics.median(s for s, _ in rounds))
