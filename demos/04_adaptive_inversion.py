"""End-to-end adaptive surrogate-driven Bayesian inversion, desk scale.

The sampler's particles train the surrogate: every few iterations the
greedy loop re-certifies the dual-weighted-residual indicator on the
current particles under a tolerance that shrinks with the sampler's own
convergence indicator.  The particles should concentrate near the
data-generating parameter (all ones) at a tiny fraction of the
high-fidelity cost.
"""

import numpy as np

from svrb.adaptive import AdaptiveConfig, run_svrb
from svrb.cases import assemble_problem, uniform4_case
from svrb.svgd import SVGDConfig

problem = assemble_problem(uniform4_case(32))
svgd_config = SVGDConfig(n_particles=64, max_steps=60, tol=1e-3, seed=1,
                         alpha_init=0.05)
adaptive_config = AdaptiveConfig(eps0=0.01, update_every=10, rule="normalized")

ensemble, model, log = run_svrb(problem, svgd_config, adaptive_config)

print("update-step certification (indicator vs tolerance):")
for record in log.records:
    if record.certified_max_indicator is not None:
        print(f"  l={record.l:>3}  max |dwr| = {record.certified_max_indicator:.3e}"
              f"  <=  eps_r = {record.eps_r:.3e}   (N_r = {record.n_state})")

print(f"\nfinal basis size: {model.n_state} state / {model.n_adjoint} adjoint "
      f"vectors from {len(model.provenance)} snapshots")
print(f"data-generating parameter: {problem.theta_data}")
print(f"posterior mean:            "
      f"{np.array2string(ensemble.particles.mean(axis=0), precision=3)}")
print(f"posterior std:             "
      f"{np.array2string(ensemble.particles.std(axis=0), precision=3)}")
offline = log.meta["rb_offline_seconds"]
online = sum(record.timers["evaluate"] + record.timers["line_search"] for record in log.records)
print(f"\nsurrogate build time: {offline:.2f}s, online evaluation time: {online:.2f}s")
