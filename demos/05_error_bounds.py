"""Certified error analysis: constants, residual bounds, divergence terms.

Evaluates the computable stability constants at a random parameter, checks
every a-posteriori inequality with both sides printed, and estimates the
sampling-free upper-bound terms for the posterior divergence induced by
the surrogate.
"""

import numpy as np

from svrb.adaptive import greedy_sweep, initialize
from svrb.cases import assemble_problem, uniform4_case
from svrb.errorlab import bound_constants, kl_bound_estimate, verify_bounds
from svrb.verify import draw_coercive

problem = assemble_problem(uniform4_case(16))
thetas = draw_coercive(problem, np.random.default_rng(3), 32)
train, held_out = thetas[:24], thetas[24:]

model = initialize(problem, train[0])
sweep = greedy_sweep(model, problem, train, tol=1e-4)
print(f"greedy build: {model.n_state} basis vectors, "
      f"max indicator {sweep.max_indicator:.2e}\n")

theta = held_out[0]
constants = bound_constants(problem, theta)
print(f"constants at theta = {np.array2string(theta, precision=3)}:")
print(f"  coercivity alpha    = {constants.alpha:.4f}")
print(f"  continuity gamma    = {constants.gamma:.4f}")
print(f"  state stability C_u = {constants.C_u:.4f}")
print(f"  adjoint stability   = {constants.C_psi:.4e}")
print(f"  data constant C_y   = {constants.C_y:.4e}")
print(f"  obs constant C_O    = {constants.C_O:.4e}")

print("\ninequality battery (lhs <= rhs):")
report = verify_bounds(problem, model, theta)
for check in report.checks:
    mark = "ok " if check.passed else "VIOLATED"
    print(f"  {mark} {check.name:<32} {check.lhs:>12.4e} <= {check.rhs:>12.4e}")
print(f"all passed: {report.all_passed}")

rhs_plain, rhs_corrected = kl_bound_estimate(problem, model, held_out)
print("\nposterior-divergence bound terms (held-out sample averages):")
print(f"  plain potential:     {rhs_plain:.4e}")
print(f"  corrected potential: {rhs_corrected:.4e}")
