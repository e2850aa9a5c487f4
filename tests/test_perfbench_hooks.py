"""The benchmark in ``perfbench/`` wraps svrb functions by name; a rename breaks it."""

import json
import os
import sys

import pytest
import scipy.sparse.linalg as spla

from svrb import cli
from svrb.backends import HiFiBackend
from svrb.cases import assemble_problem, uniform4_case
from svrb.reduced import ReducedModel
from svrb.svgd import SVGDConfig, svgd_run

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


def test_hifi_batches_give_one_span_per_parameter():
    """The benchmark reconciles factorizations with per-parameter backend calls."""
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
    assert len(evaluates) == cfg.n_particles * len(log.records) > 0
    failed = [r for r in calls if r[tracing.ERROR] is not None]
    assert failed
    assert len(calls) == backend.n_evaluations + len(failed)
    factorized_then_failed = sum(r[tracing.SPLU1] > r[tracing.SPLU0] for r in failed)
    assert tracer.splu_calls == backend.n_evaluations + factorized_then_failed
    assert all(r[tracing.SPLU1] - r[tracing.SPLU0] == 1 for r in calls
               if r[tracing.ERROR] is None)


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
