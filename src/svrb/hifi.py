"""High-fidelity state/adjoint solves, potential, gradient, sensitivities.

One sparse factorization per parameter value serves the state solve, the
adjoint solve, and all ``2d`` parameter-sensitivity solves.  It is an LU
with a symmetric fill-reducing ordering and diagonal pivots
(:func:`~svrb.fem.spd_lu`); the residual check after every solve is the
safety net.  The affine coefficients are evaluated once per factorization
and shared by the coercivity guard, the assembly, the gradient and the
sensitivities.  :func:`evaluate` is the one state-then-adjoint sequence:
callers read the adjoint and the gradient from its result.
:func:`solve_state` and :func:`potential` need only the state.  The
operator here is symmetric, but adjoint solves are routed through a
transpose-solve entry point so a non-symmetric extension stays correct.
"""

from dataclasses import dataclass, field

import numpy as np

from .fem import SolveFailed, spd_lu

RESIDUAL_RTOL = 1e-10


class Factorization:
    """Assembled operator at one parameter with a reusable factorization.

    ``coeffs`` is the one evaluation of the affine coefficients at ``theta``.
    """

    def __init__(self, problem, theta):
        self.theta = np.asarray(theta, dtype=float)
        self.coeffs = problem.eval_coefficients(self.theta)
        self.A, self.f = problem.operator(self.theta, self.coeffs)
        self._lu = spd_lu(self.A)

    def _check(self, x, b, transpose):
        op = self.A.T if transpose else self.A
        r = np.linalg.norm(op @ x - b)
        scale = np.linalg.norm(b)
        if r > RESIDUAL_RTOL * (scale if scale > 0 else 1.0):
            raise SolveFailed(
                f"linear solve residual {r:.3e} exceeds {RESIDUAL_RTOL:.1e} * {scale:.3e}"
            )

    def solve(self, b, transpose=False):
        x = self._lu.solve(b, trans="T" if transpose else "N")
        self._check(x, b, transpose)
        return x


@dataclass
class HiFiEvaluation:
    """State, adjoint, potential, and gradient at one parameter."""

    theta: np.ndarray
    u: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    eta: float = 0.0
    grad_eta: np.ndarray = None


def solve_state(problem, theta, op=None):
    """Solve the forward problem at ``theta``."""
    op = op or Factorization(problem, theta)
    return op.solve(op.f)


def adjoint_rhs(problem, u):
    """Right-hand side of the adjoint problem: the misfit functional."""
    residual = problem.y - problem.observe(u)
    return problem.obs_matrix @ problem.misfit_weighted(residual)


def potential_of_state(problem, u):
    """Noise-weighted half squared misfit of a state vector."""
    residual = problem.y - problem.observe(u)
    return 0.5 * float(residual @ problem.misfit_weighted(residual))


def potential(problem, theta, op=None):
    """Potential (negative log-likelihood) at ``theta``; returns ``(eta, u)``."""
    u = solve_state(problem, theta, op)
    return potential_of_state(problem, u), u


def gradient_from_solutions(problem, theta, u, psi, coeffs=None):
    """Parameter gradient of the potential by the adjoint formula.

    Component ``j`` is ``psi^T (d_j A) u - psi^T (d_j f)`` expanded through
    the affine coefficient gradients.
    """
    _, _, dcA, dcF = coeffs or problem.eval_coefficients(theta)
    a_terms = np.array([psi @ (blk @ u) for blk in problem.A_blocks])
    f_terms = np.array([psi @ vec for vec in problem.f_blocks])
    return dcA.T @ a_terms - dcF.T @ f_terms


def solve_sensitivities(problem, theta, u, psi, op=None):
    """Parameter sensitivities of the state and adjoint.

    ``du[j]`` solves ``A du_j = d_j f - (d_j A) u`` and ``dpsi[j]`` solves
    ``A^T dpsi_j = -(d_j A)^T psi - O P O^T du_j`` with ``P`` the noise
    precision; the factorization is reused across all ``2d`` solves.
    """
    op = op or Factorization(problem, theta)
    dA, dF = problem.operator_derivatives(theta, op.coeffs)
    du = np.empty((problem.dim, problem.n_dofs))
    dpsi = np.empty((problem.dim, problem.n_dofs))
    for j in range(problem.dim):
        du[j] = op.solve(dF[j] - dA[j] @ u)
        rhs_psi = -(dA[j].T @ psi) - problem.obs_matrix @ problem.misfit_weighted(
            problem.observe(du[j]))
        dpsi[j] = op.solve(rhs_psi, transpose=True)
    return du, dpsi


def evaluate(problem, theta, op=None):
    """Full evaluation (state, adjoint, potential, gradient) at ``theta``.

    Pass ``op`` to reuse a factorization at the same ``theta``, e.g. for
    :func:`solve_sensitivities` afterwards.
    """
    op = op or Factorization(problem, theta)
    u = op.solve(op.f)
    psi = op.solve(adjoint_rhs(problem, u), transpose=True)
    return HiFiEvaluation(
        theta=np.asarray(theta, dtype=float),
        u=u,
        psi=psi,
        eta=potential_of_state(problem, u),
        grad_eta=gradient_from_solutions(problem, theta, u, psi, op.coeffs),
    )
