"""P1 finite elements on the unit square for affine-parametric diffusion.

The mesh is a uniform criss-cross triangulation of (0, 1)^2 with
homogeneous Dirichlet conditions on the bottom and top edges and natural
(do-nothing) conditions on the left and right edges.  Constrained degrees
of freedom are eliminated, so every assembled object lives on the free
nodes only.

The parametric operator is affine in the parameter: the stiffness matrix
is a linear combination ``sum_j cA_j(theta) * A_j`` of parameter-independent
sparse blocks, and likewise for the load vector.  Assembling the blocks,
the observation matrix, and the H^1 Gram matrix happens once; evaluating
the operator at a parameter is a cheap weighted sum.  All of these
matrices share one sparsity structure (:class:`Stencil`): the problem
stores it once, as that of the Gram matrix, with one row of values per
stiffness block on it.  The free nodes are numbered once by a
fill-reducing ordering of it, so every later factorization
(:func:`spd_lu`) is numeric work only.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CoercivityLost(RuntimeError):
    """The diffusion field of ``theta`` is not strictly positive at some
    quadrature point."""

    def __init__(self, theta, min_value, floor):
        self.theta = np.asarray(theta, dtype=float)
        self.min_value = float(min_value)
        self.floor = float(floor)
        super().__init__(self.theta, self.min_value, self.floor)

    def __str__(self):  # formatted when read: line-search trials swallow most of these
        return (f"diffusion field min {self.min_value:.3e} <= floor {self.floor:.1e} "
                f"at theta={np.array2string(self.theta, precision=4)}")


class SolveFailed(RuntimeError):
    """A linear solve did not meet the residual tolerance."""


class ConfigurationError(ValueError):
    """Invalid problem setup (bad observation point, singular Gram, ...)."""


def spd_lu(A):
    """Sparse LU of a symmetric positive definite CSR matrix in its own
    numbering, with diagonal pivots, which positive definiteness makes safe.

    Problem assembly numbers the degrees of freedom by a fill-reducing
    ordering (:func:`fill_reducing_order`), so the factorization orders
    nothing.  ``A`` must be exactly symmetric (assembly checks it): the
    LU is of the CSC view ``A.T``, which copies nothing.
    """
    return spla.splu(A.T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def fill_reducing_order(A):
    """Fill-reducing renumbering for the symmetric matrices of one pattern.

    SuperLU's minimum degree ordering of the pattern of ``A^T + A``, the
    one :func:`spd_lu` would compute for every factorization were the
    numbering left natural.  It depends on the pattern only; an incomplete
    LU that drops every entry computes it at a fraction of the cost of a
    full LU.  Returns ``order`` with ``order[k]`` the old index of new
    index ``k``, so ``A[order][:, order]`` factorized by :func:`spd_lu` has
    the fill of ordering each factorization anew.  SuperLU's column
    permutation maps old indices to new ones, hence the ``argsort``; used
    uninverted it multiplies the fill about twelvefold.
    """
    ilu = spla.spilu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, drop_tol=1e300,
                     fill_factor=1, options=dict(SymmetricMode=True))
    return np.argsort(ilu.perm_c)


# Quadrature on the reference triangle: barycentric coordinates and weights
# summing to one.  The 3-point rule is exact for quadratics; the centroid
# rule is what piecewise-constant coefficient fields need (one interior
# sample per triangle, never on a subdomain interface).
_QUAD_RULES = {
    "gauss3": (
        np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
        np.array([1 / 3, 1 / 3, 1 / 3]),
    ),
    "centroid": (
        np.array([[1 / 3, 1 / 3, 1 / 3]]),
        np.array([1.0]),
    ),
}


@dataclass(eq=False)
class MeshGrid:
    """Uniform criss-cross triangulation of the unit square.

    ``n`` subdivisions per side give ``(n+1)**2`` nodes (row-major, i.e.
    node ``j*(n+1)+i`` sits at ``(i/n, j/n)``) and ``2*n**2`` triangles,
    all positively oriented.
    """

    n: int
    nodes: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    boundary: dict = field(repr=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]


def build_mesh(n):
    """Build the uniform criss-cross mesh with ``n`` cells per side."""
    if n < 1:
        raise ConfigurationError("n must be a positive integer")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row-major: y varies along axis 0
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ii, jj = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (jj * (n + 1) + ii).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper])

    idx = np.arange((n + 1) ** 2)
    iy, ix = np.divmod(idx, n + 1)
    boundary = {
        "bottom": idx[iy == 0],
        "top": idx[iy == n],
        "left": idx[ix == 0],
        "right": idx[ix == n],
    }
    return MeshGrid(n=n, nodes=nodes, triangles=triangles, boundary=boundary)


P1_MASS = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float) / 12.0
"""Exact P1 element mass matrix of a triangle of unit area."""


def element_geometry(mesh):
    """Per-triangle areas and local P1 stiffness matrices.

    Returns ``(areas, stiffness)`` with ``stiffness[t, i, j]`` the dot
    product of the constant gradients of the barycentric basis functions
    attached to local vertices ``i`` and ``j`` of triangle ``t``.
    """
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    areas = 0.5 * (e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))
    if np.any(areas <= 0):
        raise ConfigurationError("mesh contains non-positively oriented triangles")
    rot = lambda e: np.column_stack([-e[:, 1], e[:, 0]])
    grads = np.stack([rot(e0), rot(e1), rot(e2)], axis=1) / (2.0 * areas)[:, None, None]
    return areas, np.einsum("tid,tjd->tij", grads, grads)


def quadrature_points(mesh, rule, areas):
    """Physical quadrature points and weights for all triangles.

    Returns ``(points, weights)`` of shapes ``(T*Q, 2)`` and ``(T*Q,)``;
    weights include the triangle ``areas``, so sums approximate integrals.
    """
    bary, w = _QUAD_RULES[rule]
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    pts = np.einsum("qi,tij->tqj", bary, p)  # (T, Q, 2)
    weights = areas[:, None] * w[None, :]
    return pts.reshape(-1, 2), weights.reshape(-1)


def element_loads(rule, f_at_quad, areas):
    """Per-triangle load contributions ``(T, 3)``: the integral over each
    triangle of a source sampled at the quadrature points times each
    barycentric basis function."""
    bary, w = _QUAD_RULES[rule]
    fq = f_at_quad.reshape(len(areas), len(w))
    return np.einsum("tq,q,qi->ti", fq, w, bary) * areas[:, None]


class Stencil:
    """One CSR sparsity structure for every P1 matrix on the free nodes.

    ``free[k]`` is the grid node of degree of freedom ``k``; the other
    nodes are eliminated.  The structure (sorted column indices) and the
    slot of every element-matrix entry in it are computed once, as a
    scatter matrix whose row ``s`` sums the element entries of slot ``s``.
    Each matrix after that is one sparse matrix-vector product, and all
    of them share the structure by construction.  Its indices are
    ``int32``, the index type scipy picks for these sizes, so matrices
    built on it share the arrays instead of copying them.
    """

    def __init__(self, mesh, free):
        n = len(free)
        dof = np.full(mesh.n_nodes, -1)
        dof[free] = np.arange(n)
        self.free = free
        self.shape = (n, n)
        local = self._local = dof[mesh.triangles]  # (T, 3), -1 on eliminated nodes
        free_local = local >= 0
        # element entry 9 t + 3 i + j couples local vertices i and j of triangle t
        kept = np.flatnonzero(free_local[:, :, None] & free_local[:, None, :])
        keys = (local[:, :, None] * n + local[:, None, :]).ravel()[kept]
        by_slot = np.argsort(keys, kind="stable")  # by (row, col), then triangle
        keys = keys[by_slot]
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        self.indices = (keys[first] % n).astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(keys[first] // n, minlength=n))]
                                     ).astype(np.int32)
        self._entries = kept[by_slot]
        self._scatter_ptr = np.append(first, len(keys))

    def data(self, local, weights):
        """CSR data ``(B, nnz)``, one row per row of ``weights`` ``(B, T)``:
        that of the matrix whose element matrix on triangle ``t`` is
        ``weights[b, t] * local[t]``, with ``local`` of shape ``(T, 3, 3)``."""
        scatter = sp.csr_matrix(
            (local.reshape(-1)[self._entries], self._entries // 9, self._scatter_ptr),
            shape=(len(self.indices), len(local)))
        out = np.empty((len(weights), len(self.indices)))
        for row, w in zip(out, weights):
            row[:] = scatter @ w
        return out

    def matrix(self, data):
        """Sparse matrix with this structure and the values ``data``."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def vector(self, element_vectors):
        """Vector on the free nodes from per-triangle contributions ``(T, 3)``."""
        kept = self._local >= 0
        return np.bincount(self._local[kept], weights=element_vectors[kept],
                           minlength=self.shape[0])


def point_eval_weights(mesh, points):
    """Barycentric interpolation weights for point evaluation functionals.

    Returns a sparse ``(n_nodes, s)`` matrix whose column ``i`` applied to a
    nodal vector evaluates the P1 field at ``points[i]``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n
    rows, cols, vals = [], [], []
    for i, (x, y) in enumerate(points):
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigurationError(f"observation point ({x}, {y}) outside the unit square")
        ix = min(int(x * n), n - 1)
        iy = min(int(y * n), n - 1)
        xi = x * n - ix
        eta = y * n - iy
        v00 = iy * (n + 1) + ix
        v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
        if xi >= eta:  # lower triangle (v00, v10, v11)
            lam = (1.0 - xi, xi - eta, eta)
            verts = (v00, v10, v11)
        else:  # upper triangle (v00, v11, v01)
            lam = (1.0 - eta, xi, eta - xi)
            verts = (v00, v11, v01)
        for v, l in zip(verts, lam):
            rows.append(v)
            cols.append(i)
            vals.append(l)
    return sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, len(points))).tocsr()


@dataclass(eq=False)
class AffineParametricProblem:
    """All parameter-independent objects of one inverse problem instance.

    Immutable after construction; the Gram factorization is created lazily
    on first use and shared read-only afterwards.  The stiffness blocks
    ``A_j`` are stored once, as the rows of ``A_data`` ``(J_A, nnz)``: their
    values on the sparsity structure of ``gram``, which every block shares
    (:meth:`stiffness` makes the matrix).  The load blocks ``f_j`` are the
    rows of ``f_data`` ``(J_F, N)``.
    """

    name: str
    mesh: MeshGrid
    free_dofs: np.ndarray = field(repr=False)
    A_data: np.ndarray = field(repr=False)
    diffusion_c: list = field(repr=False)
    diffusion_dc: list = field(repr=False)
    f_data: np.ndarray = field(repr=False)
    load_c: list = field(repr=False)
    load_dc: list = field(repr=False)
    obs_matrix: sp.csr_matrix = field(repr=False)
    obs_points: np.ndarray = field(repr=False)
    gram: sp.csr_matrix = field(repr=False)
    y: np.ndarray = field(repr=False)
    noise_precision: np.ndarray = field(repr=False)
    sigma: float
    prior: object
    dim: int
    coeff_at_quad: np.ndarray = field(repr=False)
    coercivity_floor: float
    theta_ref: np.ndarray = field(repr=False)
    theta_data: np.ndarray = field(repr=False)
    noise_seed: int

    def __post_init__(self):
        # per-term field extrema over quadrature points; these give an O(J)
        # lower bound on the diffusion field used by online-only evaluations
        self._coeff_lo = self.coeff_at_quad.min(axis=0)
        self._coeff_hi = self.coeff_at_quad.max(axis=0)
        aq = self.coeff_at_quad
        self._one_hot_fields = bool(
            np.all((aq == 0.0) | (aq == 1.0)) and np.allclose(aq.sum(axis=1), 1.0)
        )
        # the reduced model's incremental updates rely on symmetric blocks;
        # in the sorted structure assembly produces, stored entry k at
        # (row, col) is mirrored by entry mirror[k] at (col, row)
        indices, indptr = self.gram.indices, self.gram.indptr
        rows = np.repeat(np.arange(self.gram.shape[0]), np.diff(indptr))
        mirror = np.argsort(indices, kind="stable")
        if not (np.array_equal(indices[mirror], rows) and np.array_equal(rows[mirror], indices)
                and all(np.array_equal(data[mirror], data) for data in self.A_data)):
            raise ConfigurationError("stiffness blocks are not symmetric")
        # like the operator, the Gram matrix is factorized as its transpose (spd_lu)
        if not np.array_equal(self.gram.data[mirror], self.gram.data):
            raise ConfigurationError("the Gram matrix is not symmetric")
        # the blocks stacked as one (J_A N, N) matrix whose values are A_data itself
        n_terms, nnz = self.A_data.shape
        ptr = np.append((np.arange(n_terms)[:, None] * nnz + indptr[:-1]).ravel(), n_terms * nnz)
        self._blocks = sp.csr_matrix((self.A_data.reshape(-1), np.tile(indices, n_terms), ptr),
                                     shape=(n_terms * self.gram.shape[0], self.gram.shape[1]))

    # -- sizes ---------------------------------------------------------

    @property
    def n_dofs(self):
        """Constrained (free) degrees of freedom."""
        return len(self.free_dofs)

    @property
    def n_dofs_raw(self):
        """All grid nodes, counting the eliminated Dirichlet ones."""
        return self.mesh.n_nodes

    @property
    def n_diffusion_terms(self):
        return len(self.A_data)

    @property
    def n_load_terms(self):
        return len(self.f_data)

    @property
    def n_obs(self):
        return self.y.shape[0]

    # -- affine coefficients -------------------------------------------

    def eval_coefficients(self, theta):
        """Affine coefficient values and their exact parameter gradients.

        ``theta`` is one parameter ``(d,)`` or a stack ``(M, d)``.  Returns
        ``(cA, cF, dcA, dcF)`` with shapes ``(..., J_A)``, ``(..., J_F)``,
        ``(..., J_A, d)``, ``(..., J_F, d)``, where ``...`` is the stack
        shape (empty for a single parameter).  The methods below that take
        ``coeffs=None`` accept this tuple for the same ``theta`` instead of
        evaluating it again.
        """
        theta = np.asarray(theta, dtype=float)
        lead = theta.shape[:-1]

        def collect(maps, per_term):  # term axis first, then moved behind the stack axes
            out = np.empty((len(maps),) + per_term)
            for j, fn in enumerate(maps):
                out[j] = fn(theta)  # broadcasts constant maps over the stack
            return np.moveaxis(out, 0, len(lead))

        return (collect(self.diffusion_c, lead), collect(self.load_c, lead),
                collect(self.diffusion_dc, theta.shape), collect(self.load_dc, theta.shape))

    def _field(self, cA_row):
        """The diffusion field at every quadrature point for one coefficient
        row ``(J_A,)``: one matrix-vector product, alone or in any stack."""
        with np.errstate(invalid="ignore"):  # inf coefficients on zero fields
            return self.coeff_at_quad @ cA_row

    def field_range(self, theta, coeffs=None):
        """Min and max of the diffusion field over all quadrature points,
        one pair of values per row for a stack ``(M, d)``; each row's field
        is formed on its own (:meth:`_field`), whatever the stack."""
        cA, _, _, _ = coeffs or self.eval_coefficients(theta)
        fields = map(self._field, np.reshape(cA, (-1, cA.shape[-1])))
        lo, hi = np.array([(v.min(), v.max()) for v in fields]).reshape(cA.shape[:-1] + (2,)).T
        return lo, hi

    def _bad_rows(self, theta, coeffs=None):
        """Yield ``(row, minimum)`` for each row of ``theta`` (one parameter
        or a stack ``(M, d)``) whose field dips below the floor, in row order:
        the scan behind :meth:`coercive_rows` and :meth:`check_coercive`.

        The conservative O(J) bound of :meth:`conservative_field_min`,
        evaluated for the whole stack at once, keeps the typical cost
        mesh-independent; only rows where that bound is inconclusive get the
        exact minimum, lazily, each from the row's own field (:meth:`_field`),
        so a reader that stops at the first bad row forms no later field, and
        a row's verdict and reported minimum do not depend on the stack.  A
        NaN or infinite minimum counts as bad.
        """
        coeffs = coeffs or self.eval_coefficients(theta)
        cA = np.atleast_2d(coeffs[0])
        unsure = np.atleast_1d(self.conservative_field_min(theta, coeffs)) <= self.coercivity_floor
        for m in np.flatnonzero(unsure):
            lo = self._field(cA[m]).min()
            if not (np.isfinite(lo) and lo > self.coercivity_floor):
                yield m, lo

    def coercive_rows(self, theta, coeffs=None):
        """One verdict per row of ``theta`` (a stack of one for a single
        parameter): True where the field stays above the floor."""
        bad = [m for m, _ in self._bad_rows(theta, coeffs)]
        return ~np.isin(np.arange(len(np.atleast_2d(theta))), bad)

    def check_coercive(self, theta, coeffs=None):
        """Raise :class:`CoercivityLost` at the first bad row of ``theta``
        (:meth:`_bad_rows`), forming no field past it.

        The surrogate extrapolates smoothly into regions where the full
        operator is not even well posed, so every evaluation is guarded:
        without a guard a trial step can report an arbitrarily attractive
        fake merit, and a clamped iterate can leave the coercive set.
        """
        for m, lo in self._bad_rows(theta, coeffs):
            raise CoercivityLost(np.atleast_2d(theta)[m], lo, self.coercivity_floor)

    def conservative_field_min(self, theta, coeffs=None):
        """Rigorous lower bound on the field minimum, online cost O(J).

        Underestimates ``field_range(theta)[0]``; useful where the exact
        per-quadrature-point check would break mesh-independent cost.
        Overflowing coefficients count as lost coercivity.  A stack
        ``(M, d)`` gives one bound per row.
        """
        cA, _, _, _ = coeffs or self.eval_coefficients(theta)
        if self._one_hot_fields:  # cellwise partition: the field IS some cA_j
            bound = cA.min(axis=-1)
        else:
            with np.errstate(invalid="ignore"):  # inf coefficients on zero fields
                bound = np.minimum(cA * self._coeff_lo, cA * self._coeff_hi).sum(axis=-1)
        bound = np.where(np.isfinite(cA).all(axis=-1), bound, -np.inf)
        return float(bound) if bound.ndim == 0 else bound

    def stiffness(self, values):
        """Sparse matrix with the values ``values`` ``(nnz,)`` on the structure
        every stiffness block shares; ``stiffness(A_data[j])`` is block ``A_j``."""
        return sp.csr_matrix((values, self.gram.indices, self.gram.indptr), shape=self.gram.shape)

    def block_products(self, x):
        """``A_j x`` for every stiffness block j at once, ``(J_A,) + x.shape``,
        for a vector ``x`` ``(N,)`` or the columns of ``x`` ``(N, k)``; each
        product sums in the order the block's own matrix would."""
        return (self._blocks @ x).reshape((self.n_diffusion_terms,) + x.shape)

    def operator(self, theta, coeffs=None):
        """Assembled operator and load at a coercive ``theta``: ``(A(theta), f(theta))``."""
        coeffs = coeffs or self.eval_coefficients(theta)
        self.check_coercive(theta, coeffs)
        cA, cF, _, _ = coeffs
        f = np.zeros(self.n_dofs)
        for c, vec in zip(cF, self.f_data):
            f += c * vec
        return self.stiffness(cA @ self.A_data), f

    def operator_derivatives(self, theta, coeffs=None):
        """Parameter derivatives of the operator and load at ``theta``.

        Returns ``(dA, dF)``: ``dA[j]`` is the sparse matrix of ``d_j A(theta)``
        and ``dF[j]`` the vector ``d_j f(theta)``, each the affine sum of the
        blocks with the coefficient gradients.
        """
        _, _, dcA, dcF = coeffs or self.eval_coefficients(theta)
        return [self.stiffness(data) for data in dcA.T @ self.A_data], dcF.T @ self.f_data

    # -- norms -----------------------------------------------------------

    def v_inner(self, v, w):
        """H^1 inner product on the constrained space."""
        return float(v @ (self.gram @ w))

    def v_norm(self, v):
        return np.sqrt(max(self.v_inner(v, v), 0.0))

    @cached_property
    def _gram_lu(self):
        try:
            return spd_lu(self.gram)
        except RuntimeError as exc:  # pragma: no cover - fatal setup error
            raise ConfigurationError(f"Gram factorization failed: {exc}") from exc

    def gram_solve(self, g):
        """Riesz representative of a functional coefficient vector."""
        return self._gram_lu.solve(g)

    def dual_norm(self, g):
        """Dual norm ``sqrt(g^T X^-1 g)`` of a functional vector."""
        z = self.gram_solve(g)
        return np.sqrt(max(float(g @ z), 0.0))

    @cached_property
    def obs_dual_norms(self):
        """Dual norms of the observation functionals (computed once)."""
        return np.array([self.dual_norm(self.obs_matrix[:, i].toarray().ravel())
                         for i in range(self.n_obs)])

    # -- observation ------------------------------------------------------

    def observe(self, u):
        """Apply the observation functionals to a constrained state vector."""
        return self.obs_matrix.T @ u

    def misfit_weighted(self, residual):
        """Apply the noise precision (diagonal) to an observation residual."""
        return self.noise_precision * residual
