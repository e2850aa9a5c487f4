"""True errors, residual dual norms, stability constants, and bound checks.

Everything here compares the reduced surrogate against the high-fidelity
reference: exact state/adjoint/potential/gradient errors, Riesz dual norms
of the state and adjoint residuals (and of their parameter derivatives),
computable stability constants, and a battery of a-posteriori inequalities
evaluated with both sides made explicit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hifi
from .reduced import ReducedModel

# Poincare constant of the unit square with Dirichlet data on two opposite
# sides: ||w||_{L2} <= (1/pi) |w|_{H1}.  Used to pass from the seminorm
# coercivity of the diffusion form to the full H^1 norm.
POINCARE = 1.0 / np.pi


@dataclass
class ConstantsBundle:
    """Computable stability constants at one parameter."""

    alpha: float
    gamma: float
    rho: np.ndarray
    dF_dual: np.ndarray
    C_u: float
    C_psi: float
    C_y: float
    C_O: float
    C_alpha_u: float
    C_alpha_gamma: float
    C_alpha_gamma_O: float


@dataclass
class ErrorReport:
    """Exact reduced-basis errors and residual norms at one parameter."""

    e_u_V: float
    e_psi_V: float
    e_eta: float
    e_delta: float
    eta_h: float
    grad_e_eta_l1: float
    grad_e_delta_l1: float
    res_u_dual: float
    res_psi_dual: float
    res_u_j_dual: np.ndarray
    res_psi_j_dual: np.ndarray
    grad_e_u_Vd: float
    grad_e_psi_Vd: float
    u_h_V: float
    psi_h_V: float
    u_r_V: float
    psi_r_V: float
    grad_u_h_Vd: float
    grad_u_r_Vd: float
    grad_psi_h_Vd: float
    grad_psi_r_Vd: float


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    floor: float = 0.0  # absolute roundoff allowance for exactness points

    @property
    def passed(self):
        return self.lhs <= self.rhs * (1.0 + 1e-8) + self.floor


@dataclass
class BoundReport:
    checks: list

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]


def bound_constants(problem, theta):
    """Evaluate the stability constants at a coercive parameter.

    The coercivity proxy divides the minimum of the diffusion field over
    the quadrature points by ``1 + C_P^2`` (Poincare); the continuity proxy
    is the field maximum; the derivative-form bounds take the sup of each
    parameter derivative of the field.
    """
    coeffs = problem.eval_coefficients(theta)
    _, f_theta = problem.operator(theta, coeffs)  # check_coercive raises off the coercive set
    lo, hi = problem.field_range(theta, coeffs)
    alpha = lo / (1.0 + POINCARE**2)
    gamma = hi
    _, _, dcA, _ = coeffs
    rho = np.abs(problem.coeff_at_quad @ dcA).max(axis=0)

    F_dual = problem.dual_norm(f_theta)
    _, dF = problem.operator_derivatives(theta, coeffs)
    dF_dual = np.array([problem.dual_norm(dF_j) for dF_j in dF])

    o_dual = problem.obs_dual_norms
    O_dual = float(np.sqrt(np.sum(o_dual**2)))
    gamma_inv_norm = float(np.max(problem.noise_precision))
    y_norm = float(np.linalg.norm(problem.y))

    C_u = F_dual / alpha
    C_y = gamma_inv_norm * O_dual * y_norm
    C_O = gamma_inv_norm * O_dual**2
    C_psi = C_y / alpha + C_O * C_u / alpha
    return ConstantsBundle(
        alpha=alpha,
        gamma=gamma,
        rho=rho,
        dF_dual=dF_dual,
        C_u=C_u,
        C_psi=C_psi,
        C_y=C_y,
        C_O=C_O,
        C_alpha_u=(C_y + C_O * C_u) / alpha,
        C_alpha_gamma=gamma / alpha**2,
        C_alpha_gamma_O=(2 * gamma * C_O + alpha * C_O) / (2 * alpha**3),
    )


def residual_vectors(problem, theta, u_r_full, psi_r_full, du_r_full=None, dpsi_r_full=None):
    """Full-space residual functionals of the reduced solutions.

    Returns ``(r_u, r_psi, r_u_j, r_psi_j)``; the per-derivative residuals
    are only formed when the reduced sensitivities are supplied.
    """
    coeffs = problem.eval_coefficients(theta)
    A, f = problem.operator(theta, coeffs)
    r_u = A @ u_r_full - f
    misfit = problem.misfit_weighted(problem.y - problem.observe(u_r_full))
    r_psi = A.T @ psi_r_full - problem.obs_matrix @ misfit

    r_u_j = r_psi_j = None
    if du_r_full is not None:
        dA, dF = problem.operator_derivatives(theta, coeffs)
        r_u_j = np.array([A @ du - (dF_j - dA_j @ u_r_full)
                          for du, dA_j, dF_j in zip(du_r_full, dA, dF)])
        r_psi_j = np.array([
            A.T @ dpsi + dA_j.T @ psi_r_full
            + problem.obs_matrix @ problem.misfit_weighted(problem.observe(du))
            for du, dpsi, dA_j in zip(du_r_full, dpsi_r_full, dA)
        ])
    return r_u, r_psi, r_u_j, r_psi_j


def compare(problem, rm, theta, u_h, psi_h):
    """The reduced model against given high-fidelity fields.

    ``theta`` is one parameter ``(d,)`` or a stack ``(M, d)``, and ``u_h``,
    ``psi_h`` are the high-fidelity state and adjoint there, ``(N,)`` or
    ``(M, N)``.  One reduced evaluation, its state and adjoint lifted to the
    full space, and their errors: returns ``(ev, u_r, psi_r, e_u, e_psi)``
    with ``e_u = u_h - u_r`` and ``e_psi = psi_h - psi_r``.
    """
    ev = rm.evaluate(problem, theta)
    u_r = rm.reconstruct(ev.u_r, "state")
    psi_r = rm.reconstruct(ev.psi_r, "adjoint")
    return ev, u_r, psi_r, u_h - u_r, psi_h - psi_r


def true_errors(problem, rm, theta):
    """High-fidelity vs reduced errors, their parameter derivatives, and
    residual norms at one parameter."""
    theta = np.asarray(theta, dtype=float)
    op = hifi.Factorization(problem, theta)
    h = hifi.evaluate(problem, theta, op)
    ev, u_r, psi_r, e_u, e_psi = compare(problem, rm, theta, h.u, h.psi)
    du_h, dpsi_h = hifi.solve_sensitivities(problem, op, h.u, h.psi)
    du_r, dpsi_r = rm.sensitivities(problem, theta, ev.u_r, ev.psi_r)
    du_r_full = rm.reconstruct(du_r, "state")
    dpsi_r_full = rm.reconstruct(dpsi_r, "adjoint")
    # True derivative of the plain reduced potential (chain rule through
    # the reduced sensitivities); the adjoint shortcut is only exact when
    # the state and adjoint bases span the same space.
    misfit_r = problem.misfit_weighted(problem.y - rm.Ou.T @ ev.u_r)
    grad_r_true = -(du_r @ rm.Ou) @ misfit_r
    r_u, r_psi, r_u_j, r_psi_j = residual_vectors(
        problem, theta, u_r, psi_r, du_r_full, dpsi_r_full)

    def v_sum(vectors):  # summed over the parameter derivatives
        return sum(problem.v_norm(v) for v in vectors)

    def duals(functionals):
        return np.array([problem.dual_norm(r) for r in functionals])

    return ErrorReport(
        e_u_V=problem.v_norm(e_u),
        e_psi_V=problem.v_norm(e_psi),
        e_eta=h.eta - ev.eta_r,
        e_delta=h.eta - ev.eta_delta,
        eta_h=h.eta,
        grad_e_eta_l1=float(np.abs(h.grad_eta - grad_r_true).sum()),
        grad_e_delta_l1=float(np.abs(h.grad_eta - ev.grad_eta_delta).sum()),
        res_u_dual=problem.dual_norm(r_u),
        res_psi_dual=problem.dual_norm(r_psi),
        res_u_j_dual=duals(r_u_j),
        res_psi_j_dual=duals(r_psi_j),
        grad_e_u_Vd=v_sum(du_h - du_r_full),
        grad_e_psi_Vd=v_sum(dpsi_h - dpsi_r_full),
        u_h_V=problem.v_norm(h.u),
        psi_h_V=problem.v_norm(h.psi),
        u_r_V=problem.v_norm(u_r),
        psi_r_V=problem.v_norm(psi_r),
        grad_u_h_Vd=v_sum(du_h),
        grad_u_r_Vd=v_sum(du_r_full),
        grad_psi_h_Vd=v_sum(dpsi_h),
        grad_psi_r_Vd=v_sum(dpsi_r_full),
    )


def verify_bounds(problem, rm, theta):
    """Evaluate both sides of every a-posteriori inequality at ``theta``.

    Each check carries an absolute floor at the roundoff level of its
    left-hand side: at snapshot parameters both sides vanish analytically,
    and the floor keeps cancellation noise from drowning products of
    machine-size errors.
    """
    report = true_errors(problem, rm, theta)
    c = bound_constants(problem, theta)
    rho_sum = float(c.rho.sum())
    d = problem.dim
    floor = 1e-9 * max(1.0, abs(report.eta_h))

    def check(name, lhs, rhs):
        return BoundCheck(name, lhs, rhs, floor=floor)

    checks = [
        check("stability_state_hifi", report.u_h_V, c.C_u),
        check("stability_state_rb", report.u_r_V, c.C_u),
        check("stability_adjoint_hifi", report.psi_h_V, c.C_psi),
        check("stability_adjoint_rb", report.psi_r_V, c.C_psi),
        check(
            "potential_error",
            abs(report.e_eta),
            (c.C_y + c.C_O * c.C_u) * report.e_u_V,
        ),
        check(
            "corrected_potential_error",
            abs(report.e_delta),
            c.gamma * report.e_u_V * report.e_psi_V + 0.5 * c.C_O * report.e_u_V**2,
        ),
        check(
            "state_error_vs_residual",
            report.e_u_V,
            report.res_u_dual / c.alpha,
        ),
        check(
            "adjoint_error_vs_residual",
            report.e_psi_V,
            report.res_psi_dual / c.alpha + c.C_O / c.alpha * report.e_u_V,
        ),
        check(
            "grad_state_stability_hifi",
            report.grad_u_h_Vd,
            c.C_u / c.alpha * rho_sum + float(c.dF_dual.sum()) / c.alpha,
        ),
        check(
            "grad_state_stability_rb",
            report.grad_u_r_Vd,
            c.C_u / c.alpha * rho_sum + float(c.dF_dual.sum()) / c.alpha,
        ),
        check(
            "grad_adjoint_stability_hifi",
            report.grad_psi_h_Vd,
            c.C_psi / c.alpha * rho_sum + d * c.C_y / c.alpha
            + c.C_O / c.alpha * report.grad_u_h_Vd,
        ),
        check(
            "grad_adjoint_stability_rb",
            report.grad_psi_r_Vd,
            c.C_psi / c.alpha * rho_sum + d * c.C_y / c.alpha
            + c.C_O / c.alpha * report.grad_u_r_Vd,
        ),
        check(
            "grad_potential_error",
            report.grad_e_eta_l1,
            (c.C_y + c.C_O * c.C_u) * report.grad_e_u_Vd
            + c.C_O * report.grad_u_r_Vd * report.e_u_V,
        ),
        check(
            "grad_corrected_error",
            report.grad_e_delta_l1,
            c.gamma * report.grad_e_u_Vd * report.e_psi_V
            + c.gamma * report.grad_e_psi_Vd * report.e_u_V
            + rho_sum * report.e_u_V * report.e_psi_V
            + c.C_O * report.e_u_V * report.grad_e_u_Vd,
        ),
        check(
            "grad_state_error_vs_residual",
            report.grad_e_u_Vd,
            float(report.res_u_j_dual.sum()) / c.alpha
            + rho_sum * report.e_u_V / c.alpha,
        ),
        check(
            "grad_adjoint_error_vs_residual",
            report.grad_e_psi_Vd,
            float(report.res_psi_j_dual.sum()) / c.alpha
            + rho_sum * report.e_psi_V / c.alpha
            + c.C_O / c.alpha * report.grad_e_u_Vd,
        ),
        check("kl_rhs_nonneg_plain", 0.0, kl_terms(report.e_eta)),
        check("kl_rhs_nonneg_corrected", 0.0, kl_terms(report.e_delta)),
        check(
            "kl_potential_vs_residual",
            abs(report.e_eta),
            c.C_alpha_u * report.res_u_dual,
        ),
        check(
            "kl_corrected_vs_residual",
            abs(report.e_delta),
            c.C_alpha_gamma * report.res_u_dual * report.res_psi_dual
            + c.C_alpha_gamma_O * report.res_u_dual**2,
        ),
    ]
    return BoundReport(checks=checks)


def kl_terms(e):
    """Divergence-bound integrand ``|e| + |exp(e) - 1|`` with overflow guard."""
    if e > 700.0:
        return np.inf
    return abs(e) + abs(math.expm1(e))


def kl_bound_estimate(problem, rm, reference_samples):
    """Monte Carlo estimate of the posterior-divergence bound terms.

    Averages :func:`kl_terms` over the given samples, for the plain and the
    corrected potential error; the divergence itself is not estimated.  Only
    potentials enter: one high-fidelity state solve per sample and one
    reduced pass over the whole stack.
    """
    samples = np.atleast_2d(reference_samples)
    eta_h = np.array([hifi.potential(problem, theta)[0] for theta in samples])
    eta_r, eta_delta, _, _ = rm.potential(problem, samples)
    return (float(np.mean([kl_terms(e) for e in eta_h - eta_r])),
            float(np.mean([kl_terms(e) for e in eta_h - eta_delta])))


def sample_discrepancy(traj_a, traj_b):
    """Per-iteration max and mean l1 particle distances of two trajectories.

    Both trajectories must come from runs sharing the seed, particle count,
    and step-size sequence (enforce via step replay).  Returns arrays of
    shape ``(n_iterations,)``.
    """
    a = np.asarray(traj_a, dtype=float)
    b = np.asarray(traj_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    dist = np.abs(a - b).sum(axis=-1)  # (L, M)
    return dist.max(axis=-1), dist.mean(axis=-1)


def error_decay_study(problem, snapshots, eval_thetas):
    """Mean error decay over the greedy enrichment stages.

    Rebuilds the reduced model snapshot by snapshot (in the given order) and
    reports, per stage, sample means over ``eval_thetas`` of the potential
    errors, the indicator, and the bound surrogates.  High-fidelity
    references are computed once; each stage is one :func:`compare` over
    the whole stack.  Returns a list of row dicts.
    """
    eval_thetas = np.atleast_2d(eval_thetas)
    refs = [hifi.evaluate(problem, theta) for theta in eval_thetas]
    u_h, psi_h = np.array([h.u for h in refs]), np.array([h.psi for h in refs])
    eta_h = np.array([h.eta for h in refs])

    rm = ReducedModel.empty(problem)
    rows = []
    for theta_snap in snapshots:
        ev_snap = hifi.evaluate(problem, theta_snap)
        rm.enrich(problem, ev_snap.u, ev_snap.psi, theta_snap)
        ev, _, _, e_u, e_psi = compare(problem, rm, eval_thetas, u_h, psi_h)
        e_u_V = np.array([problem.v_norm(e) for e in e_u])
        e_psi_V = np.array([problem.v_norm(e) for e in e_psi])
        rows.append({
            "n_state": rm.n_state,
            "n_adjoint": rm.n_adjoint,
            "mean_abs_e_eta": float(np.mean(np.abs(eta_h - ev.eta_r))),
            "mean_abs_e_delta": float(np.mean(np.abs(eta_h - ev.eta_delta))),
            "mean_abs_dwr": float(np.mean(np.abs(ev.delta))),
            "mean_e_u_V": float(np.mean(e_u_V)),
            "mean_e_u_e_psi": float(np.mean(e_u_V * e_psi_V)),
        })
    return rows
