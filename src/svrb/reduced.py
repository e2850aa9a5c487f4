"""Reduced-basis surrogate with dual-weighted-residual correction.

Two reduced spaces are maintained: one for the state and one for the
adjoint, each spanned by orthonormalized high-fidelity snapshots (in the
H^1 inner product).  All parameter-independent projections of the affine
blocks are kept up to date incrementally on enrichment, so every online
evaluation -- reduced state, reduced adjoint, the dual-weighted residual,
the corrected potential, incremental solves, and both gradients -- costs
work independent of the high-fidelity dimension.

One online pass over a stack of parameters (the particles) yields the
reduced states, their weighted observation misfits, the reduced adjoints,
the plain potentials and the dual-weighted residuals.  Each reduced operator
is the Galerkin projection of a coercive operator, so it is symmetric
positive definite: the pass holds one upper Cholesky factor per row of the
stack for the state and for the adjoint operator, and every solve with that
operator reuses it (LAPACK ``dpptrs``, one right-hand side or a block of
them per row).  :meth:`ReducedModel.potential` and the greedy indicator read
the pass as it is; :meth:`ReducedModel.evaluate` adds the two incremental
solves and both gradients.  A single parameter is a stack of one.

Each system (state, adjoint) keeps its factors in its own workspace, in
LAPACK upper-packed storage: row m's factor is the leading ``N(N+1)/2``
entries of its row, column after column, so one more basis vector appends
entries and moves none.  The pass brings them up to date
(:meth:`_Factors.fit`): a new stack's operators are assembled straight into
that storage column by column, each column one product of the coefficient
rows and the blocks' column, and factored by ``dpptrf``.  An enrichment
only drops the held pass; the next pass on the held stack forms each new
column by that same product and extends each factor by it as ``dpptrf``
computes a column (``U^T l = a[:k]`` by ``dtpsv``, the pivot
``sqrt(a_k - l.l)``), so a grown factor is bitwise a fresh one.  A
pivot that is not positive refactors that system in full, which raises as
a fresh pass would.  No solver outlives its call, so none reads factors
that a later pass changed.

The pass evaluates the affine coefficients and, as the high-fidelity model
does, refuses a non-coercive row (:class:`~svrb.fem.CoercivityLost`).  The
model holds the last guarded stack and its pass, read-only, and hands them
out again when the same problem object asks for a bitwise-equal stack; a
basis growth drops the pass but keeps the stack and its factors, so a greedy
sweep guards its particles once and factors their operators once.  The
sampler asks for one stack several times in a row: the line search's
reference merit at the particles just evaluated, the next evaluation at the
accepted trial's particles (when clamping left them unchanged), and the
first evaluation after a greedy sweep at the particles of its last
indicator pass; none of these builds a new pass.

Conventions: reduced matrices follow the Galerkin layout ``B[m, n] =
A(basis_n, basis_m)``; the cross block maps state coefficients to adjoint
test functions, ``C[m, n] = A(state_n, adjoint_m)``.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack


class RBSolveFailed(RuntimeError):
    """A reduced operator is not positive definite, or its basis is empty."""


# version of the problem fingerprint stored in ``rb.npz``; 2: basis rows follow
# the fill-reducing dof numbering of problem assembly
ARTIFACT_SCHEMA = 2

# the bases and reduced blocks, in constructor and ``rb.npz`` order, and their
# shapes: fingerprint sizes, N_u and N_p basis vectors, s observations
_ARRAYS = {"basis_u": ("n_dofs", "N_u"), "basis_psi": ("n_dofs", "N_p"),
           "Au": ("J_A", "N_u", "N_u"), "Ap": ("J_A", "N_p", "N_p"), "Aup": ("J_A", "N_p", "N_u"),
           "fu": ("J_F", "N_u"), "fp": ("J_F", "N_p"), "Ou": ("N_u", "s"), "Op": ("N_p", "s")}

# a snapshot whose remainder after orthogonalization has at most this
# fraction of its norm is already in the span and is not appended
DEFLATION_TOL = 1e-10

# the factor workspace has room for this many more basis columns than it
# was sized for: a few, because numpy backs an array of 4 MiB or more with
# huge pages, which the unused ends of rows sized for twice the order fill
# (chains-u4 peak_rss_mb read +8 to +11 MB with such rows)
SPARE_ORDER = 8


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


class _Factors:
    """Upper Cholesky factors of one reduced system's operators (``what``:
    state or adjoint), one per row of the held stack, in one workspace.

    Row m's factor is ``buf[m, :n(n+1)/2]`` in LAPACK packed storage, column
    after column, so a factor of order n + 1 extends the one of order n in
    place.  ``order`` is the order held, 0 when no factors are.
    """

    def __init__(self, what):
        self.what = what
        self.buf = np.empty((0, 0))
        self.rows = 0
        self.order = 0

    def _reserve(self, rows, n, keep=0):
        """Room for ``rows`` factors of order ``n``, keeping the first
        ``keep`` entries of every held row."""
        have_rows, have = self.buf.shape
        if rows <= have_rows and n * (n + 1) // 2 <= have:
            return
        cap = n + SPARE_ORDER  # the order it can grow to before the next copy
        buf = np.empty((max(rows, have_rows), max(cap * (cap + 1) // 2, have)))
        buf[:self.rows, :keep] = self.buf[:self.rows, :keep]
        self.buf = buf

    def fit(self, cA, B):
        """Bring the factors up to date with the operators of the coefficient
        rows ``cA`` ``(M, J_A)`` and the blocks ``B`` ``(J_A, n, n)``.

        Every operator column enters packed storage the same way, as the
        product ``cA @ B[:, k, :k+1]`` of :meth:`_column`, so factors grown
        to order n are bitwise the ones a fresh fit at order n forms.
        Factors held at a lower order grow column by column, as ``dpptrf``
        computes column k from the operators' column ``a``: ``l`` solves
        ``U^T l = a[:k]`` (``dtpsv``) and the new pivot is
        ``sqrt(a[k] - l.l)``.  With no factors held, or after a pivot that is
        not positive, the operators are assembled column by column and
        factored in place; that raises as any fresh factorization would.
        """
        n = B.shape[-1]
        if n == 0:
            raise RBSolveFailed(f"{self.what}: reduced basis is empty")
        if 0 < self.order < n:
            self._reserve(self.rows, n, keep=self.order * (self.order + 1) // 2)
            while 0 < self.order < n:
                self._grow(cA, B)
        if self.order != n:
            self._factor(cA, B)

    def _column(self, cA, B, k):
        """Write the operators' column k, rows 0..k, into the packed storage
        of the first ``len(cA)`` rows; returns its start in each row.  The
        blocks' column is copied first: BLAS may round a product differently
        for another stride of an operand, and the blocks of a lower order,
        from which held columns were formed, are laid out for that order."""
        start = k * (k + 1) // 2
        column = np.ascontiguousarray(B[:, k, :k + 1])
        np.matmul(cA, column, out=self.buf[:len(cA), start:start + k + 1])
        return start

    def _grow(self, cA, B):
        k, self.order = self.order, 0  # held again once every row has its pivot
        start = self._column(cA, B, k)
        # arguments by position: at small n, parsing keywords costs a third of each call
        for ap in self.buf[:self.rows]:
            blas.dtpsv(k, ap, ap, 1, start, 0, 1, 0, 1)  # offx=start, trans=1, in place
            pivot = ap[start + k] - blas.ddot(ap, ap, k, start, 1, start, 1)
            if not pivot > 0.0:
                return
            ap[start + k] = math.sqrt(pivot)
        self.order = k + 1

    def _factor(self, cA, B):
        n, self.order = B.shape[-1], 0
        self._reserve(len(cA), n)
        for k in range(n):
            self._column(cA, B, k)
        rows = self.buf[:len(cA), :n * (n + 1) // 2]
        for m, ap in enumerate(rows):
            info = lapack.dpptrf(n, ap, 0, 1)[1]  # lower=0, overwrite=1
            if info:
                raise RBSolveFailed(f"{self.what}: reduced operator of row {m} is not positive "
                                    f"definite (LAPACK dpptrf info {info})")
        self.rows, self.order = len(cA), n

    def solve(self, b):
        """``x`` with ``A[m] x[m].T = b[m].T`` for every held row m, on a copy
        of ``b``; ``b[m]`` is ``(n,)`` or ``(k, n)``, one per held factor."""
        n = self.order
        x = np.array(b, dtype=float)
        for ap, xm in zip(self.buf[:self.rows, :n * (n + 1) // 2], x, strict=True):
            lapack.dpptrs(n, ap, xm.T, 0, 1)  # a block's transpose is Fortran-ordered
        return x


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
        self.fingerprint = None     # problem_fingerprint of the problem it was built for
        self._held_stack = None     # (problem, key, coefficients) of the last guarded stack
        self._held_pass = None      # the _Online of that stack on the current bases
        # the Cholesky factors of that stack's state and adjoint operators
        self._factors = (_Factors("state"), _Factors("adjoint"))

    # -- construction ----------------------------------------------------

    @classmethod
    def empty(cls, problem):
        """Model with zero-size bases, ready for enrichment."""
        fingerprint = problem_fingerprint(problem)
        sizes = dict(fingerprint, N_u=0, N_p=0, s=problem.n_obs)
        rm = cls(**{name: np.zeros([sizes[d] for d in dims]) for name, dims in _ARRAYS.items()},
                 provenance=[])
        rm.fingerprint = fingerprint
        return rm

    @property
    def n_state(self):
        return self.basis_u.shape[1]

    @property
    def n_adjoint(self):
        return self.basis_psi.shape[1]

    def _orthogonalize(self, problem, snapshot, basis):
        """Classical Gram-Schmidt in the H^1 inner product with one
        reorthogonalization: the snapshot is projected off the whole basis
        at once, twice.

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
            if v is not None:
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
        another.  The next pass on the held stack grows its factors.
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
    # Reduced operators are assembled for the whole stack at once, in packed
    # storage, and factored once per stack; the cross block is only ever
    # applied term by term, so no ``(M, N_p, N_u)`` array is formed.

    @staticmethod
    def _apply(cA, blocks, x, transpose=False):
        """``sum_j cA[m, j] * blocks[j] @ x[m]`` (or with ``blocks[j].T``) per row."""
        per_term = np.tensordot(x, blocks, axes=([1], [1 if transpose else 2]))
        return np.einsum("mj,mjk->mk", cA, per_term)

    @staticmethod
    def _per_term(left, blocks, right):
        """``left[m] @ blocks[j] @ right[m]`` for every row m and term j."""
        return np.einsum("mk,mjk->mj", left, np.tensordot(right, blocks, axes=([1], [2])))

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
        coercivity guard, factored operators, reduced state, weighted misfit,
        reduced adjoint, plain potential and dual-weighted residual, behind
        :meth:`potential`, :meth:`evaluate`, :meth:`sensitivities` and the
        greedy indicator.  Asked again by the same ``problem`` object for a
        stack with the same bytes, it returns the held pass, or builds one on
        the held coefficients after a basis growth, whose new columns it adds
        to the held factors.  Its arrays are read-only; ``self._factors``
        solve with its operators until the next pass."""
        key = (thetas.dtype.str, thetas.shape, thetas.tobytes())
        held = self._held_stack
        if held is None or held[0] is not problem or held[1] != key:
            self._held_stack = self._held_pass = None
            for factors in self._factors:  # they are the old stack's
                factors.order = 0
            coeffs = problem.eval_coefficients(thetas)
            problem.check_coercive(thetas, coeffs)
            self._held_stack = (problem, key, coeffs)
        elif self._held_pass is not None:
            return self._held_pass
        coeffs = self._held_stack[2]
        cA, cF = coeffs[:2]
        state, adjoint = self._factors
        state.fit(cA, self.Au)
        adjoint.fit(cA, self.Ap)
        fp = cF @ self.fp
        u_r = state.solve(cF @ self.fu)
        residual = problem.y - u_r @ self.Ou
        misfit = problem.misfit_weighted(residual)
        psi_r = adjoint.solve(misfit @ self.Op.T)  # A_p is its own transpose
        eta_r = 0.5 * np.einsum("ms,ms->m", residual, misfit)
        delta = self.dwr(problem, thetas, u_r, psi_r, coeffs)
        on = _Online(coeffs, fp, u_r, psi_r, misfit, eta_r, delta)
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
        state, adjoint = self._factors
        cA, _, dcA, dcF = on.coeffs
        psi_hat = adjoint.solve(on.fp - self._apply(cA, self.Aup, u_r))
        rhs = (
            -self._apply(cA, self.Aup, psi_r, transpose=True)
            + on.misfit @ self.Ou.T
            - problem.misfit_weighted(psi_hat @ self.Op) @ self.Ou.T
        )
        u_hat = state.solve(rhs)  # A_u is its own transpose

        def chain(dc, terms):  # sum over terms of coefficient gradient times term
            return np.einsum("mjd,mj->md", dc, terms)

        grad_r = chain(dcA, self._per_term(psi_r, self.Aup, u_r)) - chain(dcF, psi_r @ self.fp.T)
        corr = self._per_term(u_hat, self.Au, u_r) + self._per_term(psi_r, self.Ap, psi_hat)
        grad_delta = grad_r + chain(dcA, corr) - chain(dcF, u_hat @ self.fu.T)
        fields = dict(u_r=u_r, psi_r=psi_r, u_hat=u_hat, psi_hat=psi_hat,
                      eta_r=on.eta_r, delta=on.delta, eta_delta=on.eta_r + on.delta,
                      grad_eta_r=grad_r, grad_eta_delta=grad_delta)
        return RBEvaluation(**{k: _unstack(v, single) for k, v in fields.items()})

    def sensitivities(self, problem, theta, u_r, psi_r):
        """Parameter sensitivities of the reduced state ``u_r`` and adjoint
        ``psi_r`` at one parameter, ``(d, N_u)`` and ``(d, N_p)``, the reduced
        counterpart of :func:`svrb.hifi.solve_sensitivities`: one block of
        right-hand sides per system, one per parameter direction, solved with
        the factors of the online pass at ``theta``."""
        on = self._solve_online(problem, np.atleast_2d(np.asarray(theta, dtype=float)))
        # the derivative operators are the same affine sums over the coefficient
        # gradients, one direction per row, applied to one row broadcast over them
        dcA, dcF = on.coeffs[2][0].T, on.coeffs[3][0].T  # (d, J_A), (d, J_F)
        state, adjoint = self._factors
        du = state.solve((dcF @ self.fu - self._apply(dcA, self.Au, u_r[None]))[None])[0]
        rhs_p = (-self._apply(dcA, self.Ap, psi_r[None], transpose=True)
                 - problem.misfit_weighted(du @ self.Ou) @ self.Op.T)
        return du, adjoint.solve(rhs_p[None])[0]  # A_p is its own transpose

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
        """Read a ``.npz`` artifact; its ``fingerprint`` is None if it has none.
        Raises ``ValueError`` when the arrays' shapes, the provenance's
        included unless it is empty, disagree with each other or with the
        fingerprint's sizes."""
        data = np.load(path, allow_pickle=False)
        fingerprint = json.loads(str(data["meta"])).get("problem")
        arrays = {name: data[name] for name in _ARRAYS}
        prov = data["provenance"]
        checked = dict(arrays, provenance=prov) if prov.size else arrays  # empty: (0, 0)
        shapes = dict(_ARRAYS, provenance=("K", "dim"))  # K snapshot parameters
        sizes = dict(fingerprint or {})  # N_u, N_p, s and K are read off their first array
        for name, array in checked.items():
            shape, dims = array.shape, shapes[name]
            if len(shape) != len(dims) or any(sizes.setdefault(d, n) != n
                                               for d, n in zip(dims, shape)):
                raise ValueError(f"{path}: {name} has shape {shape}, not "
                                 f"{tuple(sizes.get(d, d) for d in dims)}")
        rm = cls(**arrays, provenance=[row.copy() for row in prov] if prov.size else [])
        rm.fingerprint = fingerprint
        return rm
