"""Built-in verification suite behind ``svrb verify``.

Checks finite-difference gradient consistency (high-fidelity and corrected
reduced), the dual-weighted-residual identities, basis orthonormality, and
the full inequality battery on random coercive parameters.  Each entry
returns an independent pass/fail so one failure never masks another.
"""

import numpy as np

from . import adaptive, errorlab, hifi
from .cases import assemble_problem, gaussian9_case, uniform4_case


def draw_coercive(problem, rng, count):
    """Rejection-sample prior parameters that pass the coercivity check."""
    out = []
    while len(out) < count:
        theta = problem.prior.sample(rng, 1)[0]
        if problem.coercive_rows(theta)[0]:
            out.append(theta)
    return np.array(out)


def fd_gradient(fun, theta, step=1e-5):
    """Central finite differences of a scalar function of the parameter."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = step
        grad[j] = (fun(theta + e) - fun(theta - e)) / (2 * step)
    return grad


def max_rel_componentwise(approx, exact, floor=1e-12):
    scale = np.maximum(np.abs(exact), floor * max(np.abs(exact).max(), 1.0))
    return float(np.max(np.abs(approx - exact) / scale))


def build_small_rb(problem, rng, n_snapshots=5):
    """Reduced model enriched at a few random coercive prior samples."""
    thetas = draw_coercive(problem, rng, n_snapshots)
    rm = adaptive.initialize(problem, thetas[0])
    for theta in thetas[1:]:
        ev = hifi.evaluate(problem, theta)
        rm.enrich(problem, ev.u, ev.psi, theta)
    return rm


def check_hifi_gradient(problem, thetas, rtol=1e-5):
    worst = 0.0
    for theta in thetas:
        grad = hifi.evaluate(problem, theta).grad_eta
        fd = fd_gradient(lambda t: hifi.potential(problem, t)[0], theta)
        worst = max(worst, max_rel_componentwise(fd, grad))
    return worst < rtol, worst


def check_rb_gradient(problem, rm, thetas, rtol=1e-5):
    worst = 0.0
    for theta in thetas:
        ev = rm.evaluate(problem, theta)
        fd = fd_gradient(lambda t: rm.potential(problem, t)[1], theta)
        worst = max(worst, max_rel_componentwise(fd, ev.grad_eta_delta))
    return worst < rtol, worst


def dwr_identity_gap(problem, rm, theta):
    """Relative gap of the two dual-weighted-residual identities.

    Returns ``(gap_dwr, gap_corrected)`` where the first compares the online
    indicator with the full-space pairing of the state error and the reduced
    adjoint, and the second compares the corrected-potential error with its
    exact quadratic expansion.
    """
    h = hifi.evaluate(problem, theta)
    ev, u_r, psi_r, e_u, e_psi = errorlab.compare(problem, rm, theta, h.u, h.psi)
    A, _ = problem.operator(theta)

    paired = -float(psi_r @ (A @ e_u))
    scale = abs(float(psi_r @ (A @ u_r))) + abs(ev.eta_r) + abs(h.eta) + 1e-300
    gap_dwr = abs(ev.delta - paired) / max(abs(ev.delta), abs(paired), scale * 1e-3)

    obs_e = problem.observe(e_u)
    quad = -float(e_psi @ (A @ e_u)) - 0.5 * float(obs_e @ problem.misfit_weighted(obs_e))
    e_delta = h.eta - ev.eta_delta
    gap_corr = abs(e_delta - quad) / max(abs(e_delta), abs(quad), scale * 1e-3)
    return gap_dwr, gap_corr


def check_dwr_identities(problem, rm, thetas, rtol=1e-9):
    worst = 0.0
    for theta in thetas:
        g1, g2 = dwr_identity_gap(problem, rm, theta)
        worst = max(worst, g1, g2)
    return worst < rtol, worst


def check_bounds(problem, rm, thetas):
    for theta in thetas:
        report = errorlab.verify_bounds(problem, rm, theta)
        if not report.all_passed:
            return False, [c.name for c in report.failed()]
    return True, []


def run_verification(quick=False, seed=0):
    """Full pass/fail matrix; ``quick`` keeps meshes at n <= 16."""
    rng = np.random.default_rng(seed)
    n_u = 16 if quick else 32
    n_g = 9 if quick else 15
    n_theta = 4 if quick else 10
    results = []

    for label, case in (("uniform4", uniform4_case(n_u)),
                        ("gaussian9", gaussian9_case(n_g))):
        problem = assemble_problem(case)
        thetas = draw_coercive(problem, rng, n_theta)
        rm = build_small_rb(problem, rng)
        ok, _ = check_hifi_gradient(problem, thetas)
        results.append((f"{label}: hifi gradient vs finite differences", ok))
        ok, _ = check_rb_gradient(problem, rm, thetas)
        results.append((f"{label}: corrected rb gradient vs finite differences", ok))
        ok, _ = check_dwr_identities(problem, rm, thetas)
        results.append((f"{label}: dual-weighted-residual identities", ok))
        ok, _ = check_bounds(problem, rm, thetas[: 4 if quick else 8])
        results.append((f"{label}: a-posteriori bound suite", ok))
        results.append((f"{label}: basis orthonormality",
                        rm.orthonormality_error(problem) < 1e-10))
        results.append((f"{label}: reduced block consistency",
                        rm.verify_blocks(problem) < 1e-9))
    return results
