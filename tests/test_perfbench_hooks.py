"""The benchmark in ``perfbench/`` wraps svrb functions by name; a rename breaks it."""

import json
import os
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from svrb import adaptive, cli, hifi, verify
from svrb.backends import GaussianBackend, HiFiBackend, RBBackend
from svrb.cases import StandardGaussian, assemble_problem, uniform4_case
from svrb.fem import CoercivityLost
from svrb.reduced import ReducedModel
from svrb.svgd import SVGDConfig, draw_prior, line_search, svgd_run

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_every_traced_name_exists_and_is_restored():
    tracing = _tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.SPANS]
    splu = spla.splu
    tracer = tracing.Tracer(tracing.SPANS)
    tracer.close()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.SPANS] == originals
    assert spla.splu is splu


def test_hifi_stacks_give_one_span_each():
    """The benchmark reconciles factorizations with per-stack backend calls:
    a stack that fails its coercivity guard factorizes nothing, so only a
    stack whose solve failed after its factorization adds one."""
    tracing = _tracing()
    problem = assemble_problem(uniform4_case(8))
    backend = HiFiBackend(problem)
    # long first steps leave the coercive set, so some trials fail
    cfg = SVGDConfig(n_particles=4, max_steps=2, tol=1e-12, alpha_init=64.0, seed=1)
    tracer = tracing.Tracer(tracing.PROBES)
    try:
        _, log = svgd_run(backend, problem.prior, cfg)
    finally:
        tracer.close()
    calls = [r for r in tracer.spans if r[tracing.NAME].startswith("backends.")]
    evaluates = [r for r in calls if r[tracing.NAME] == "backends.evaluate"]
    assert len(evaluates) == len(log.records) > 0
    assert all(r[tracing.SPLU1] - r[tracing.SPLU0] == cfg.n_particles for r in evaluates)
    failed = [r for r in calls if r[tracing.ERROR] is not None]
    assert failed
    assert all(r[tracing.SPLU1] == r[tracing.SPLU0] for r in failed
               if r[tracing.ERROR] == "CoercivityLost")
    factorized_then_failed = sum(r[tracing.SPLU1] > r[tracing.SPLU0] for r in failed)
    assert tracer.splu_calls == backend.n_evaluations + factorized_then_failed


def test_line_search_spans_match_the_records():
    """The benchmark counts trials and backtracks from ``line_search``'s
    positional argument 4, the start step; under warm starts that is not
    ``alpha_init``, and the counts must still match the run's records."""
    tracing = _tracing()
    # some searches start below alpha_init, some exhaust and restart
    backend, prior = GaussianBackend(np.array([1.0, -0.5])), StandardGaussian(2)
    cfg = SVGDConfig(n_particles=4, max_steps=10, tol=1e-12, alpha_init=3.0,
                     max_backtracks=3, seed=0)
    table = [entry for entry in tracing.SPANS if entry[2] == "svgd.line_search"]
    tracer = tracing.Tracer(table)
    try:
        _, log = svgd_run(backend, prior, cfg)
    finally:
        tracer.close()
    spans = [r[tracing.EXTRA] for r in tracer.spans]
    assert len(spans) == len(log.records) > 0
    assert any(r.alpha < cfg.alpha_init * 2.0**-r.backtracks for r in log.records)
    assert any("line_search_exhausted" in r.flags for r in log.records)
    for extra, record in zip(spans, log.records):
        exhausted = "line_search_exhausted" in record.flags
        assert extra["exhausted"] == int(exhausted)
        assert extra["backtracks"] == record.backtracks
        assert extra["trials"] == record.backtracks + (not exhausted)


def test_extractors_read_real_return_values():
    """Each extractor ``--trace 1`` applies reads what its call returns, so a
    changed return shape fails here and not only under the benchmark."""
    tracing = _tracing()
    problem = assemble_problem(uniform4_case(8))
    particles = np.vstack([verify.draw_coercive(problem, np.random.default_rng(4), 5),
                           -1.7 * np.ones(4)])  # the last row is not coercive
    rm = adaptive.initialize(problem, particles[0])
    args = (rm, problem, particles, 1e-6)
    sweep = adaptive.greedy_sweep(*args)
    assert tracing._sweep_out(args, {}, sweep) == {
        "passes": len(sweep.history), "enriched": sweep.n_enriched, "skipped": 1}
    assert tracing._model_out(rm) == {"n_state": rm.n_state, "n_adjoint": rm.n_adjoint,
                                      "provenance": 1 + sweep.n_enriched}

    backend, prior = GaussianBackend(np.array([1.0, -0.5])), StandardGaussian(2)
    start = np.array([[0.0, 0.0], [0.5, 0.5]])
    for sign, expected in ((1.0, {"trials": 2, "backtracks": 1, "exhausted": 0}),
                           (-1.0, {"trials": 3, "backtracks": 3, "exhausted": 1})):
        args = (start, sign * (backend.mean - start), backend.potential, prior, 2.0, 3)
        assert tracing._line_search_out(args, {}, line_search(*args)) == expected

    args = (backend, prior, SVGDConfig(n_particles=4, max_steps=3, tol=1e-12, seed=0))
    ensemble, log = out = svgd_run(*args)
    extra = tracing._svgd_run_out(args, {}, out)
    assert np.array_equal(extra.pop("final"), ensemble.particles)
    assert extra == {"stamps": [r.timestamp for r in log.records], "iterations": 3,
                     "backend_evaluations": backend.n_evaluations}


TINY_RUNS = {
    "chains-u4": {"case": {"name": "uniform4", "n": 8}, "particles": 8, "max_steps": 3,
                  "backend": {"kind": "rb-adaptive", "eps0": 0.01, "update_every": 2}},
    "hifi-g9": {"case": {"name": "gaussian9", "n": 9}, "particles": 4, "max_steps": 2,
                "backend": {"kind": "hifi"}},
}


@pytest.mark.parametrize("workload", sorted(TINY_RUNS))
def test_rb_run_fires_every_predicted_span(tmp_path, workload):
    """A tiny run of each workload's configuration opens every span it predicts."""
    tracing = _tracing()
    with open(os.path.join(PERFBENCH, "spec.json")) as fh:
        predicted = json.load(fh)["workloads"][workload]["spans"]
    cfg = dict(TINY_RUNS[workload], svgd_tol=1e-12, seed=0, output_dir=str(tmp_path / "out"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer(tracing.SPANS)
    try:
        assert cli.main(["run", "--config", str(path)]) == 0
    finally:
        tracer.close()
    fired = {r[tracing.NAME] for r in tracer.spans}
    assert not set(predicted) - fired
    if workload == "chains-u4":
        # the benchmark checks the model of the one sampler-building span against rb.npz
        built = [r for r in tracer.spans
                 if r[tracing.NAME] in ("adaptive.run_svrb", "adaptive.build_fixed_rb")]
        assert len(built) == 1
        stored = ReducedModel.load(tmp_path / "out" / "rb.npz")
        assert built[0][tracing.EXTRA]["n_state"] == stored.n_state


def test_an_abort_is_the_first_row_that_fails_alone():
    """The benchmark accepts a chains-u4 exit 3 only if some row of the prior
    draw fails ``check_coercive`` alone; the guarded batch must then raise, at
    the first such row, and only then."""
    problem = assemble_problem(uniform4_case(32))
    backend = RBBackend(problem, verify.build_small_rb(problem, np.random.default_rng(0), 2))
    outcomes = set()
    for seed in range(40):
        draw = draw_prior(problem.prior, 64, seed)
        bad = []
        for theta in draw:
            try:
                problem.check_coercive(theta)
            except CoercivityLost:
                bad.append(theta)
        outcomes.add(bool(bad))
        if not bad:
            etas, grads = backend.evaluate(draw)
            assert etas.shape == (64,) and grads.shape == (64, 4)
            continue
        with pytest.raises(CoercivityLost) as err:
            backend.evaluate(draw)
        assert np.array_equal(err.value.theta, bad[0])
    assert outcomes == {False, True}


def test_shapes_the_worker_reads():
    """``perfbench/worker.py`` calls these directly for its surrogate error."""
    problem = assemble_problem(uniform4_case(8))
    theta = verify.draw_coercive(problem, np.random.default_rng(1), 1)[0]
    out = verify.build_small_rb(problem, np.random.default_rng(2), 2).potential(problem, theta)
    assert len(out) == 4 and np.ndim(out[1]) == 0
    eta_h, u = hifi.potential(problem, theta)
    assert np.ndim(eta_h) == 0 and u.shape == (problem.n_dofs,)
