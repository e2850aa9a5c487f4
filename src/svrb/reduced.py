"""Reduced-basis surrogate with dual-weighted-residual correction.

Two reduced spaces are maintained: one for the state and one for the
adjoint, each spanned by orthonormalized high-fidelity snapshots (in the
H^1 inner product).  All parameter-independent projections of the affine
blocks are kept up to date incrementally on enrichment, so every online
evaluation -- reduced state, reduced adjoint, the dual-weighted residual,
the corrected potential, incremental solves, and both gradients -- costs
work independent of the high-fidelity dimension.

One online pass over a stack of parameters (the particles) assembles the
reduced operators once and yields the reduced states and adjoints, the
plain potentials and the dual-weighted residuals, with one stacked dense
solve per system; :meth:`ReducedModel.potential`,
:meth:`ReducedModel.evaluate` and the greedy indicator all read from it.
A single parameter is a stack of one.

Conventions: reduced matrices follow the Galerkin layout ``B[m, n] =
A(basis_n, basis_m)``; the cross block maps state coefficients to adjoint
test functions, ``C[m, n] = A(state_n, adjoint_m)``.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class RBSolveFailed(RuntimeError):
    """The reduced dense system is singular or empty."""


ARTIFACT_SCHEMA = 1  # version of the problem fingerprint stored in ``rb.npz``


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
    ops: tuple            # (Au, Ap, fu, fp) assembled at every parameter
    u_r: np.ndarray       # (M, N_u)
    psi_r: np.ndarray     # (M, N_p)
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

    theta: np.ndarray
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
                 provenance, deflation_tol=1e-10):
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
        self.deflation_tol = deflation_tol
        self.deflated = []          # (which, theta) for skipped snapshots
        self.fingerprint = None     # problem_fingerprint of the problem it was built for

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(cls, problem, deflation_tol=1e-10):
        """Model with zero-size bases, ready for enrichment."""
        n, ja, jf, s = problem.n_dofs, problem.n_diffusion_terms, problem.n_load_terms, problem.n_obs
        rm = cls(
            basis_u=np.zeros((n, 0)),
            basis_psi=np.zeros((n, 0)),
            Au=np.zeros((ja, 0, 0)),
            Ap=np.zeros((ja, 0, 0)),
            Aup=np.zeros((ja, 0, 0)),
            fu=np.zeros((jf, 0)),
            fp=np.zeros((jf, 0)),
            Ou=np.zeros((0, s)),
            Op=np.zeros((0, s)),
            provenance=[],
            deflation_tol=deflation_tol,
        )
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
        if nrm <= self.deflation_tol * ref or nrm == 0.0:
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
        """
        state = which == "state"
        old, other = (self.basis_u, self.basis_psi) if state else (self.basis_psi, self.basis_u)
        k = old.shape[1]
        Av = [blk @ v for blk in problem.A_blocks]
        Atv = [blk.T @ v for blk in problem.A_blocks]
        own = np.zeros((len(Av), k + 1, k + 1))
        own[:, :k, :k] = self.Au if state else self.Ap
        for j in range(len(Av)):
            own[j, :k, k] = old.T @ Av[j]       # column: A(v, old_m)
            own[j, k, :k] = old.T @ Atv[j]      # row: A(old_n, v)
            own[j, k, k] = v @ Av[j]
        # A(v, adjoint_m) for a new state vector, A(state_n, v) for a new adjoint one
        cross = np.stack([other.T @ a for a in (Av if state else Atv)])
        grown = (
            np.column_stack([old, v]),
            own,
            np.column_stack([self.fu if state else self.fp, [vec @ v for vec in problem.f_blocks]]),
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
    # Every method below takes one parameter ``(d,)`` or a stack ``(M, d)``
    # and returns per-row results with the same leading shape.  Reduced
    # operators are built for the whole stack at once and each system is
    # solved in one stacked call; the cross block is only ever applied term
    # by term, so no ``(M, N_p, N_u)`` array is formed.

    def _online_operators(self, problem, thetas, coeffs=None):
        cA, cF, _, _ = coeffs or problem.eval_coefficients(thetas)
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
    def _dense_solve(A, b, what):
        """Solve ``A[m] x[m] = b[m]`` for every row in one stacked call."""
        if A.shape[-1] == 0:
            raise RBSolveFailed(f"{what}: reduced basis is empty")
        try:
            return np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RBSolveFailed(f"{what}: singular reduced system ({exc})") from exc

    def solve_state(self, problem, theta, operators=None):
        """Reduced state coefficients at ``theta``."""
        thetas, single = _stack(theta)
        Au, _, fu, _ = operators or self._online_operators(problem, thetas)
        return _unstack(self._dense_solve(Au, fu, "state"), single)

    def solve_adjoint(self, problem, theta, u_r, operators=None):
        """Reduced adjoint coefficients given the reduced state."""
        thetas, single = _stack(theta)
        _, Ap, _, _ = operators or self._online_operators(problem, thetas)
        residual = problem.y - np.atleast_2d(u_r) @ self.Ou
        b = problem.misfit_weighted(residual) @ self.Op.T
        return _unstack(self._dense_solve(np.swapaxes(Ap, 1, 2), b, "adjoint"), single)

    def dwr(self, problem, theta, u_r, psi_r, coeffs=None):
        """Dual-weighted residual: state residual tested with the adjoint."""
        thetas, single = _stack(theta)
        cA, cF, _, _ = coeffs or problem.eval_coefficients(thetas)
        u_r, psi_r = np.atleast_2d(u_r), np.atleast_2d(psi_r)
        delta = (np.einsum("mp,mp->m", psi_r, self._apply(cA, self.Aup, u_r))
                 - np.einsum("mp,mp->m", psi_r, cF @ self.fp))
        return _unstack(delta, single)

    def _solve_online(self, problem, thetas, coeffs=None):
        """Coefficients, operators, reduced state and adjoint, plain
        potential and dual-weighted residual for the stack ``thetas``: the
        one pass behind :meth:`potential`, :meth:`evaluate` and the greedy
        indicator.
        """
        coeffs = coeffs or problem.eval_coefficients(thetas)
        ops = self._online_operators(problem, thetas, coeffs)
        u_r = self.solve_state(problem, thetas, ops)
        psi_r = self.solve_adjoint(problem, thetas, u_r, ops)
        residual = problem.y - u_r @ self.Ou
        eta_r = 0.5 * np.einsum("ms,ms->m", residual, problem.misfit_weighted(residual))
        delta = self.dwr(problem, thetas, u_r, psi_r, coeffs)
        return _Online(coeffs, ops, u_r, psi_r, eta_r, delta)

    def potential(self, problem, theta, coeffs=None):
        """Plain and corrected reduced potentials.

        Returns ``(eta_r, eta_delta, u_r, psi_r)``.  ``coeffs``, if given,
        holds the coefficients of the stack ``(M, d)`` of ``theta``.
        """
        thetas, single = _stack(theta)
        on = self._solve_online(problem, thetas, coeffs)
        return tuple(_unstack(x, single)
                     for x in (on.eta_r, on.eta_r + on.delta, on.u_r, on.psi_r))

    def incrementals(self, problem, theta, u_r, psi_r, coeffs=None, operators=None):
        """Incremental adjoint and state solves for the corrected gradient.

        Returns ``(psi_hat, u_hat)``.  The incremental adjoint carries the
        state residual; the incremental state collects the adjoint residual,
        the misfit functional, and the observation coupling of the
        incremental adjoint.
        """
        thetas, single = _stack(theta)
        coeffs = coeffs or problem.eval_coefficients(thetas)
        Au, Ap, _, fp = operators or self._online_operators(problem, thetas, coeffs)
        cA = coeffs[0]
        u_r, psi_r = np.atleast_2d(u_r), np.atleast_2d(psi_r)
        psi_hat = self._dense_solve(Ap, fp - self._apply(cA, self.Aup, u_r),
                                    "incremental adjoint")
        residual = problem.y - u_r @ self.Ou
        rhs = (
            -self._apply(cA, self.Aup, psi_r, transpose=True)
            + problem.misfit_weighted(residual) @ self.Ou.T
            - problem.misfit_weighted(psi_hat @ self.Op) @ self.Ou.T
        )
        u_hat = self._dense_solve(np.swapaxes(Au, 1, 2), rhs, "incremental state")
        return _unstack(psi_hat, single), _unstack(u_hat, single)

    def evaluate(self, problem, theta, coeffs=None):
        """All online quantities at ``theta`` in one pass.

        The gradients of the plain and the corrected reduced potentials
        follow from the reduced state and adjoint and the incremental
        solutions.  ``coeffs`` is as in :meth:`potential`.
        """
        thetas, single = _stack(theta)
        on = self._solve_online(problem, thetas, coeffs)
        u_r, psi_r = on.u_r, on.psi_r
        _, _, dcA, dcF = on.coeffs
        psi_hat, u_hat = self.incrementals(problem, thetas, u_r, psi_r, on.coeffs, on.ops)

        def chain(dc, terms):  # sum over terms of coefficient gradient times term
            return np.einsum("mjd,mj->md", dc, terms)

        grad_r = chain(dcA, self._per_term(psi_r, self.Aup, u_r)) - chain(dcF, psi_r @ self.fp.T)
        corr = self._per_term(u_hat, self.Au, u_r) + self._per_term(psi_r, self.Ap, psi_hat)
        grad_delta = grad_r + chain(dcA, corr) - chain(dcF, u_hat @ self.fu.T)
        fields = dict(theta=thetas, u_r=u_r, psi_r=psi_r, u_hat=u_hat, psi_hat=psi_hat,
                      eta_r=on.eta_r, delta=on.delta, eta_delta=on.eta_r + on.delta,
                      grad_eta_r=grad_r, grad_eta_delta=grad_delta)
        return RBEvaluation(**{k: _unstack(v, single) for k, v in fields.items()})

    def reconstruct(self, coeffs, which="state"):
        """Lift reduced coefficients back to the high-fidelity space."""
        basis = self.basis_u if which == "state" else self.basis_psi
        return basis @ coeffs

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
        err = 0.0
        for j, blk in enumerate(problem.A_blocks):
            err = max(err, np.abs(self.Au[j] - self.basis_u.T @ (blk @ self.basis_u)).max(initial=0.0))
            err = max(err, np.abs(self.Ap[j] - self.basis_psi.T @ (blk @ self.basis_psi)).max(initial=0.0))
            err = max(err, np.abs(self.Aup[j] - self.basis_psi.T @ (blk @ self.basis_u)).max(initial=0.0))
        for k, vec in enumerate(problem.f_blocks):
            err = max(err, np.abs(self.fu[k] - self.basis_u.T @ vec).max(initial=0.0))
            err = max(err, np.abs(self.fp[k] - self.basis_psi.T @ vec).max(initial=0.0))
        err = max(err, np.abs(self.Ou - (problem.obs_matrix.T @ self.basis_u).T).max(initial=0.0))
        err = max(err, np.abs(self.Op - (problem.obs_matrix.T @ self.basis_psi).T).max(initial=0.0))
        return err

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        """Write bases, blocks, and provenance to a ``.npz`` artifact."""
        meta = {"deflation_tol": self.deflation_tol, "problem": self.fingerprint}
        np.savez_compressed(
            path,
            basis_u=self.basis_u,
            basis_psi=self.basis_psi,
            Au=self.Au,
            Ap=self.Ap,
            Aup=self.Aup,
            fu=self.fu,
            fp=self.fp,
            Ou=self.Ou,
            Op=self.Op,
            provenance=np.array(self.provenance) if self.provenance else np.zeros((0, 0)),
            meta=json.dumps(meta),
        )

    @classmethod
    def load(cls, path):
        """Read a ``.npz`` artifact; its ``fingerprint`` is None if it has none."""
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["meta"]))
        prov = [row.copy() for row in data["provenance"]] if data["provenance"].size else []
        rm = cls(
            basis_u=data["basis_u"],
            basis_psi=data["basis_psi"],
            Au=data["Au"],
            Ap=data["Ap"],
            Aup=data["Aup"],
            fu=data["fu"],
            fp=data["fp"],
            Ou=data["Ou"],
            Op=data["Op"],
            provenance=prov,
            deflation_tol=meta["deflation_tol"],
        )
        rm.fingerprint = meta.get("problem")
        return rm
