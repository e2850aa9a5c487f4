"""Reduced-basis surrogate with dual-weighted-residual correction.

Two reduced spaces are maintained: one for the state and one for the
adjoint, each spanned by orthonormalized high-fidelity snapshots (in the
H^1 inner product).  All parameter-independent projections of the affine
blocks are kept up to date incrementally on enrichment, so every online
evaluation -- reduced state, reduced adjoint, the dual-weighted residual,
the corrected potential, incremental solves, and both gradients -- costs
work independent of the high-fidelity dimension.

One online pass over a stack of parameters (the particles) assembles the
reduced operators once and yields the reduced states, their weighted
observation misfits, the reduced adjoints, the plain potentials and the
dual-weighted residuals.  Each reduced operator is the Galerkin projection
of a coercive operator, so it is symmetric positive definite: the pass
factors the state and the adjoint operator of every row once, by Cholesky
in place, and every solve with that operator reuses the factor.
:meth:`ReducedModel.potential` and the greedy indicator read the pass as it
is; :meth:`ReducedModel.evaluate` adds the two incremental solves and both
gradients.  A single parameter is a stack of one.

The pass evaluates the affine coefficients and, as the high-fidelity model
does, refuses a non-coercive row (:class:`~svrb.fem.CoercivityLost`).  The
model holds the last guarded stack and its pass, read-only, and hands them
out again when the same problem object asks for a bitwise-equal stack; a
basis growth drops the pass but keeps the stack, so a greedy sweep guards
its particles once.  The sampler asks for one stack several times in a row:
the line search's reference merit at the particles just evaluated, the next
evaluation at the accepted trial's particles (when clamping left them
unchanged), and the first evaluation after a greedy sweep at the particles
of its last indicator pass; none of these builds a new pass.

Conventions: reduced matrices follow the Galerkin layout ``B[m, n] =
A(basis_n, basis_m)``; the cross block maps state coefficients to adjoint
test functions, ``C[m, n] = A(state_n, adjoint_m)``.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack


class RBSolveFailed(RuntimeError):
    """A reduced operator is not positive definite, or its basis is empty."""


# version of the problem fingerprint stored in ``rb.npz``; 2: basis rows follow
# the fill-reducing dof numbering of problem assembly
ARTIFACT_SCHEMA = 2

# the bases and reduced blocks, in constructor and ``rb.npz`` order
_ARRAYS = ("basis_u", "basis_psi", "Au", "Ap", "Aup", "fu", "fp", "Ou", "Op")

# a snapshot whose remainder after orthogonalization has at most this
# fraction of its norm is already in the span and is not appended
DEFLATION_TOL = 1e-10


def problem_fingerprint(problem):
    """What a stored reduced model must match to be used with ``problem``:
    case name, sizes, and a hash of the observation points and data."""
    digest = hashlib.sha256(problem.obs_points.tobytes() + problem.y.tobytes()).hexdigest()
    return {"schema": ARTIFACT_SCHEMA, "case": problem.name, "n_dofs": problem.n_dofs,
            "J_A": problem.n_diffusion_terms, "J_F": problem.n_load_terms,
            "dim": problem.dim, "data_sha256": digest}


class _Online(NamedTuple):
    """Quantities every online evaluation of a parameter stack shares;
    each has a leading particle axis."""

    coeffs: tuple         # (cA, cF, dcA, dcF) from ``eval_coefficients``
    solve: tuple          # solvers with the state and the adjoint operator (_factor)
    fp: np.ndarray        # (M, N_p) reduced load tested with the adjoint basis
    u_r: np.ndarray       # (M, N_u)
    psi_r: np.ndarray     # (M, N_p)
    misfit: np.ndarray    # (M, s) noise-weighted observation residual of the reduced state
    eta_r: np.ndarray     # (M,)
    delta: np.ndarray     # (M,) dual-weighted residual, the greedy indicator up to sign


def _stack(theta):
    """``theta`` as an ``(M, d)`` stack, and whether it was a single ``(d,)`` parameter."""
    theta = np.asarray(theta, dtype=float)
    return np.atleast_2d(theta), theta.ndim == 1


def _unstack(x, single):
    return x[0] if single else x


@dataclass
class RBEvaluation:
    """All online quantities at one parameter, or per row of a stack."""

    u_r: np.ndarray = field(repr=False)
    psi_r: np.ndarray = field(repr=False)
    u_hat: np.ndarray = field(repr=False)
    psi_hat: np.ndarray = field(repr=False)
    eta_r: float = 0.0
    delta: float = 0.0
    eta_delta: float = 0.0
    grad_eta_r: np.ndarray = None
    grad_eta_delta: np.ndarray = None


class ReducedModel:
    """Orthonormal state/adjoint bases plus all reduced affine blocks."""

    def __init__(self, basis_u, basis_psi, Au, Ap, Aup, fu, fp, Ou, Op,
                 provenance):
        self.basis_u = basis_u      # (N_h, N_u)
        self.basis_psi = basis_psi  # (N_h, N_p)
        self.Au = Au                # (J_A, N_u, N_u)
        self.Ap = Ap                # (J_A, N_p, N_p)
        self.Aup = Aup              # (J_A, N_p, N_u)
        self.fu = fu                # (J_F, N_u)
        self.fp = fp                # (J_F, N_p)
        self.Ou = Ou                # (N_u, s)
        self.Op = Op                # (N_p, s)
        self.provenance = provenance
        self.deflated = []          # (which, theta) for skipped snapshots
        self.fingerprint = None     # problem_fingerprint of the problem it was built for
        self._held_stack = None     # (problem, key, coefficients) of the last guarded stack
        self._held_pass = None      # the _Online of that stack on the current bases

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(cls, problem):
        """Model with zero-size bases, ready for enrichment."""
        n, ja, jf, s = problem.n_dofs, problem.n_diffusion_terms, problem.n_load_terms, problem.n_obs
        shapes = dict(basis_u=(n, 0), basis_psi=(n, 0), Au=(ja, 0, 0), Ap=(ja, 0, 0),
                      Aup=(ja, 0, 0), fu=(jf, 0), fp=(jf, 0), Ou=(0, s), Op=(0, s))
        rm = cls(**{name: np.zeros(shape) for name, shape in shapes.items()}, provenance=[])
        rm.fingerprint = problem_fingerprint(problem)
        return rm

    @property
    def n_state(self):
        return self.basis_u.shape[1]

    @property
    def n_adjoint(self):
        return self.basis_psi.shape[1]

    def _orthogonalize(self, problem, snapshot, basis):
        """Modified Gram-Schmidt in the H^1 inner product, one re-pass.

        Returns the normalized remainder, or None if the snapshot is
        (numerically) already in the span.
        """
        ref = problem.v_norm(snapshot)
        v = snapshot.astype(float, copy=True)
        for _ in range(2):
            if basis.shape[1]:
                v = v - basis @ (basis.T @ (problem.gram @ v))
        nrm = problem.v_norm(v)
        if nrm <= DEFLATION_TOL * ref or nrm == 0.0:
            return None
        return v / nrm

    def enrich(self, problem, u_h, psi_h, theta):
        """Add a state and an adjoint snapshot taken at ``theta``.

        Each snapshot is orthogonalized against its basis and appended only
        if the remainder is not negligible; all reduced blocks grow by one
        row/column without any full recomputation.  Returns
        ``(state_added, adjoint_added)``.
        """
        theta = np.asarray(theta, dtype=float)
        added = []
        for which, snapshot in (("state", u_h), ("adjoint", psi_h)):
            v = self._orthogonalize(problem, snapshot,
                                    self.basis_u if which == "state" else self.basis_psi)
            if v is None:
                self.deflated.append((which, theta))
            else:
                self._append(problem, v, which)
            added.append(v is not None)
        self.provenance.append(theta.copy())
        return tuple(added)

    def _append(self, problem, v, which):
        """Append the orthonormalized ``v`` to the ``which`` basis.

        Its own Galerkin block gains a row and a column and its load and
        observation projections one entry each; the cross block gains a
        column for a new state vector and a row for a new adjoint vector.
        The diffusion blocks are symmetric (checked at problem assembly), so
        ``A(v, old_m) = A(old_m, v)``: the products ``A_j v`` of all blocks,
        formed once as the columns of one matrix, fill both the new row and
        the new column with one matrix product, and the cross block with
        another.
        """
        self._held_pass = None  # a pass on the old bases is stale; its guarded stack is not
        state = which == "state"
        old, other = (self.basis_u, self.basis_psi) if state else (self.basis_psi, self.basis_u)
        k = old.shape[1]
        # (N_h, J_A) and C-contiguous: a transposed layout rounds the products below differently
        Av = np.ascontiguousarray(problem.block_products(v).T)
        own = np.zeros((Av.shape[1], k + 1, k + 1))
        own[:, :k, :k] = self.Au if state else self.Ap
        own[:, :k, k] = own[:, k, :k] = (old.T @ Av).T
        own[:, k, k] = v @ Av
        cross = (other.T @ Av).T
        grown = (
            np.column_stack([old, v]),
            own,
            np.column_stack([self.fu if state else self.fp, problem.f_data @ v]),
            np.vstack([self.Ou if state else self.Op, problem.obs_matrix.T @ v]),
        )
        if state:
            self.basis_u, self.Au, self.fu, self.Ou = grown
            self.Aup = np.concatenate([self.Aup, cross[:, :, None]], axis=2)
        else:
            self.basis_psi, self.Ap, self.fp, self.Op = grown
            self.Aup = np.concatenate([self.Aup, cross[:, None, :]], axis=1)

    # -- online evaluation ---------------------------------------------------
    #
    # Every public method below takes one parameter ``(d,)`` or a stack
    # ``(M, d)`` and returns per-row results with the same leading shape.
    # Reduced operators are built for the whole stack at once and factored
    # once per pass; the cross block is only ever applied term by term, so
    # no ``(M, N_p, N_u)`` array is formed.

    def _online_operators(self, cA, cF):
        """Reduced state and adjoint operators and loads, the affine sums
        over coefficient rows ``cA``, ``cF``."""
        Au = np.tensordot(cA, self.Au, axes=1)
        Ap = np.tensordot(cA, self.Ap, axes=1)
        return Au, Ap, cF @ self.fu, cF @ self.fp

    @staticmethod
    def _apply(cA, blocks, x, transpose=False):
        """``sum_j cA[m, j] * blocks[j] @ x[m]`` (or with ``blocks[j].T``) per row."""
        per_term = np.tensordot(x, blocks, axes=([1], [1 if transpose else 2]))
        return np.einsum("mj,mjk->mk", cA, per_term)

    @staticmethod
    def _per_term(left, blocks, right):
        """``left[m] @ blocks[j] @ right[m]`` for every row m and term j."""
        return np.einsum("mk,mjk->mj", left, np.tensordot(right, blocks, axes=([1], [2])))

    @staticmethod
    def _factor(A, what):
        """Cholesky-factor every row of the symmetric positive definite stack
        ``A`` ``(M, N, N)`` in place: row m read in Fortran order is its own
        transpose, which LAPACK overwrites.  Returns the solver ``b -> x`` with
        ``A[m] x[m].T = b[m].T`` for every row, in place; ``b[m]`` is ``(N,)`` or ``(k, N)``."""
        if A.shape[-1] == 0:
            raise RBSolveFailed(f"{what}: reduced basis is empty")
        rows = np.swapaxes(np.ascontiguousarray(A), 1, 2)  # Fortran-ordered views
        # arguments by position (lower=0, clean=0, overwrite=1): at small N,
        # parsing keywords costs a third of each call
        for m, row in enumerate(rows):
            info = lapack.dpotrf(row, 0, 0, 1)[1]
            if info:
                raise RBSolveFailed(f"{what}: reduced operator of row {m} is not positive "
                                    f"definite (LAPACK dpotrf info {info})")

        def solve(b):
            x = np.array(b, dtype=float)
            for row, xm in zip(rows, x):
                lapack.dpotrs(row, xm.T, 0, 1)  # a block's transpose is Fortran-ordered
            return x
        return solve

    def dwr(self, problem, theta, u_r, psi_r, coeffs=None):
        """Dual-weighted residual: state residual tested with the adjoint."""
        thetas, single = _stack(theta)
        cA, cF, _, _ = coeffs or problem.eval_coefficients(thetas)
        u_r, psi_r = np.atleast_2d(u_r), np.atleast_2d(psi_r)
        delta = (np.einsum("mp,mp->m", psi_r, self._apply(cA, self.Aup, u_r))
                 - np.einsum("mp,mp->m", psi_r, cF @ self.fp))
        return _unstack(delta, single)

    def _solve_online(self, problem, thetas):
        """The one online pass over the stack ``thetas``: coefficients and
        coercivity guard, operators, reduced state, weighted misfit, reduced
        adjoint, plain potential and dual-weighted residual, behind
        :meth:`potential`, :meth:`evaluate` and the greedy indicator.  Asked
        again by the same ``problem`` object for a stack with the same bytes,
        it returns the held pass, or builds one on the held coefficients after
        a basis growth.  Its arrays are read-only."""
        key = (thetas.dtype.str, thetas.shape, thetas.tobytes())
        held = self._held_stack
        if held is None or held[0] is not problem or held[1] != key:
            self._held_stack = self._held_pass = None  # freed before the new pass is built
            coeffs = problem.eval_coefficients(thetas)
            problem.check_coercive(thetas, coeffs)
            self._held_stack = (problem, key, coeffs)
        elif self._held_pass is not None:
            return self._held_pass
        coeffs = self._held_stack[2]
        Au, Ap, fu, fp = self._online_operators(coeffs[0], coeffs[1])
        solve = self._factor(Au, "state"), self._factor(Ap, "adjoint")
        u_r = solve[0](fu)
        residual = problem.y - u_r @ self.Ou
        misfit = problem.misfit_weighted(residual)
        psi_r = solve[1](misfit @ self.Op.T)  # A_p is its own transpose
        eta_r = 0.5 * np.einsum("ms,ms->m", residual, misfit)
        delta = self.dwr(problem, thetas, u_r, psi_r, coeffs)
        on = _Online(coeffs, solve, fp, u_r, psi_r, misfit, eta_r, delta)
        for array in (*coeffs, fp, u_r, psi_r, misfit, eta_r, delta):
            array.flags.writeable = False
        self._held_pass = on
        return on

    def potential(self, problem, theta):
        """Plain and corrected reduced potentials: ``(eta_r, eta_delta, u_r, psi_r)``."""
        thetas, single = _stack(theta)
        on = self._solve_online(problem, thetas)
        return tuple(_unstack(x, single)
                     for x in (on.eta_r, on.eta_r + on.delta, on.u_r, on.psi_r))

    def evaluate(self, problem, theta):
        """All online quantities at ``theta`` in one pass.

        On top of the online pass, the incremental adjoint (carrying the
        state residual) and the incremental state (collecting the adjoint
        residual, the misfit functional and the observation coupling of the
        incremental adjoint) give the gradients of the plain and the
        corrected reduced potentials.
        """
        thetas, single = _stack(theta)
        on = self._solve_online(problem, thetas)
        u_r, psi_r = on.u_r, on.psi_r
        solve_u, solve_p = on.solve
        cA, _, dcA, dcF = on.coeffs
        psi_hat = solve_p(on.fp - self._apply(cA, self.Aup, u_r))
        rhs = (
            -self._apply(cA, self.Aup, psi_r, transpose=True)
            + on.misfit @ self.Ou.T
            - problem.misfit_weighted(psi_hat @ self.Op) @ self.Ou.T
        )
        u_hat = solve_u(rhs)  # A_u is its own transpose

        def chain(dc, terms):  # sum over terms of coefficient gradient times term
            return np.einsum("mjd,mj->md", dc, terms)

        grad_r = chain(dcA, self._per_term(psi_r, self.Aup, u_r)) - chain(dcF, psi_r @ self.fp.T)
        corr = self._per_term(u_hat, self.Au, u_r) + self._per_term(psi_r, self.Ap, psi_hat)
        grad_delta = grad_r + chain(dcA, corr) - chain(dcF, u_hat @ self.fu.T)
        fields = dict(u_r=u_r, psi_r=psi_r, u_hat=u_hat, psi_hat=psi_hat,
                      eta_r=on.eta_r, delta=on.delta, eta_delta=on.eta_r + on.delta,
                      grad_eta_r=grad_r, grad_eta_delta=grad_delta)
        return RBEvaluation(**{k: _unstack(v, single) for k, v in fields.items()})

    def reconstruct(self, coeffs, which="state"):
        """Lift reduced coefficients ``(N_r,)``, or one row each ``(M, N_r)``,
        back to the high-fidelity space."""
        basis = self.basis_u if which == "state" else self.basis_psi
        return coeffs @ basis.T

    # -- diagnostics -------------------------------------------------------

    def orthonormality_error(self, problem):
        """Largest deviation of either basis Gramian from the identity."""
        err = 0.0
        for basis in (self.basis_u, self.basis_psi):
            if basis.shape[1]:
                g = basis.T @ (problem.gram @ basis)
                err = max(err, float(np.abs(g - np.eye(basis.shape[1])).max()))
        return err

    def verify_blocks(self, problem):
        """Largest deviation of any stored block from a direct projection."""
        U, P = self.basis_u, self.basis_psi
        AU = problem.block_products(U)
        pairs = ((self.Au, U.T @ AU), (self.Ap, P.T @ problem.block_products(P)),
                 (self.Aup, P.T @ AU), (self.fu, problem.f_data @ U), (self.fp, problem.f_data @ P),
                 (self.Ou, (problem.obs_matrix.T @ U).T), (self.Op, (problem.obs_matrix.T @ P).T))
        return max(np.abs(stored - direct).max(initial=0.0) for stored, direct in pairs)

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """Write bases, blocks, and provenance to a ``.npz`` artifact."""
        np.savez(
            path, **{name: getattr(self, name) for name in _ARRAYS},
            provenance=np.array(self.provenance) if self.provenance else np.zeros((0, 0)),
            meta=json.dumps({"problem": self.fingerprint}),
        )

    @classmethod
    def load(cls, path):
        """Read a ``.npz`` artifact; its ``fingerprint`` is None if it has none."""
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["meta"]))
        prov = [row.copy() for row in data["provenance"]] if data["provenance"].size else []
        rm = cls(**{name: data[name] for name in _ARRAYS}, provenance=prov)
        rm.fingerprint = meta.get("problem")
        return rm
