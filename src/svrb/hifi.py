"""High-fidelity state/adjoint solves, potential, gradient, sensitivities.

One sparse factorization per parameter value serves the state solve, the
adjoint solve, and all ``2d`` parameter-sensitivity solves.  It is an LU
with diagonal pivots in the problem's own dof numbering, which assembly
made fill-reducing once (:func:`~svrb.fem.spd_lu`), so no factorization
orders its matrix; the residual check after every solve is the safety
net.  The affine coefficients are evaluated once per factorization
and shared by the coercivity guard, the assembly, the gradient and the
sensitivities.  :func:`evaluate` is the one state-then-adjoint pass
(potential, adjoint); its gradient is formed from the block products
``A_j u`` on first read, so the greedy snapshots, which need only the two
fields, never pay for it.  :func:`solve_sensitivities` reuses its
factorization, and :func:`solve_state` and :func:`potential` need only the
state.  One misfit helper forms the observation residual for both passes.
The operator is symmetric (problem assembly rejects a non-symmetric block),
so one solve serves the state and the adjoint equations alike.
"""

from dataclasses import dataclass, field
from functools import cached_property

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

    def _check(self, x, b):
        r = np.linalg.norm(self.A @ x - b)
        scale = np.linalg.norm(b)
        if r > RESIDUAL_RTOL * (scale if scale > 0 else 1.0):
            raise SolveFailed(
                f"linear solve residual {r:.3e} exceeds {RESIDUAL_RTOL:.1e} * {scale:.3e}"
            )

    def solve(self, b):
        x = self._lu.solve(b)
        self._check(x, b)
        return x


@dataclass
class HiFiEvaluation:
    """State, adjoint, potential, and gradient at one parameter.  Gradient
    component ``j``, formed on first read, is ``psi^T (d_j A) u - psi^T (d_j f)``
    expanded through the gradients of the affine coefficients ``coeffs``."""

    u: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    eta: float
    problem: object = field(repr=False)
    coeffs: tuple = field(repr=False)

    @cached_property
    def grad_eta(self):
        _, _, dcA, dcF = self.coeffs
        a_terms = np.array([self.psi @ Aj_u for Aj_u in self.problem.block_products(self.u)])
        f_terms = np.array([self.psi @ vec for vec in self.problem.f_data])
        return dcA.T @ a_terms - dcF.T @ f_terms


def solve_state(problem, theta):
    """Solve the forward problem at ``theta``."""
    op = Factorization(problem, theta)
    return op.solve(op.f)


def _misfit(problem, u):
    """Potential of a state, the noise-weighted half squared observation
    misfit, and the weighted residual it is formed from."""
    residual = problem.y - problem.observe(u)
    weighted = problem.misfit_weighted(residual)
    return 0.5 * float(residual @ weighted), weighted


def potential(problem, theta):
    """Potential (negative log-likelihood) at ``theta``; returns ``(eta, u)``."""
    u = solve_state(problem, theta)
    return _misfit(problem, u)[0], u


def evaluate(problem, theta, op=None):
    """Full evaluation (state, adjoint, potential, gradient) at ``theta``.

    The adjoint's right-hand side is the misfit functional.  Pass ``op`` to
    reuse a factorization at the same ``theta``, e.g. for
    :func:`solve_sensitivities` afterwards.
    """
    op = op or Factorization(problem, theta)
    u = op.solve(op.f)
    eta, weighted = _misfit(problem, u)
    psi = op.solve(problem.obs_matrix @ weighted)
    return HiFiEvaluation(u=u, psi=psi, eta=eta, problem=problem, coeffs=op.coeffs)


def solve_sensitivities(problem, op, u, psi):
    """Parameter sensitivities of the state and adjoint at the parameter
    of the factorization ``op``.

    ``du[j]`` solves ``A du_j = d_j f - (d_j A) u`` and ``dpsi[j]`` solves
    ``A^T dpsi_j = -(d_j A)^T psi - O P O^T du_j`` with ``P`` the noise
    precision; ``op`` serves all ``2d`` solves.
    """
    dA, dF = problem.operator_derivatives(op.theta, op.coeffs)
    du = np.empty((problem.dim, problem.n_dofs))
    dpsi = np.empty((problem.dim, problem.n_dofs))
    for j in range(problem.dim):
        du[j] = op.solve(dF[j] - dA[j] @ u)
        rhs_psi = -(dA[j].T @ psi) - problem.obs_matrix @ problem.misfit_weighted(
            problem.observe(du[j]))
        dpsi[j] = op.solve(rhs_psi)
    return du, dpsi
