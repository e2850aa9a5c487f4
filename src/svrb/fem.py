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
the operator at a parameter is a cheap weighted sum.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CoercivityLost(RuntimeError):
    """The diffusion field is not strictly positive at some quadrature point."""

    def __init__(self, theta, min_value, floor):
        self.theta = np.asarray(theta, dtype=float)
        self.min_value = float(min_value)
        self.floor = float(floor)
        super().__init__(
            f"diffusion field min {min_value:.3e} <= floor {floor:.1e} "
            f"at theta={np.array2string(self.theta, precision=4)}"
        )


class SolveFailed(RuntimeError):
    """A linear solve did not meet the residual tolerance."""


class ConfigurationError(ValueError):
    """Invalid problem setup (bad observation point, singular Gram, ...)."""


def spd_lu(A):
    """Sparse LU of a symmetric positive definite matrix: a minimum degree
    ordering of the pattern of ``A^T + A``, applied symmetrically, and
    diagonal pivots, which positive definiteness makes safe.  On the
    diffusion operators here it has about a third less fill than SuperLU's
    default column ordering, which ignores the symmetry."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


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


def _tri_geometry(mesh):
    """Per-triangle areas and constant P1 basis gradients.

    Returns ``(areas, grads)`` with ``grads[t, i]`` the gradient of the
    barycentric basis function attached to local vertex ``i``.
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
    return areas, grads


def quadrature_points(mesh, rule):
    """Physical quadrature points and weights for all triangles.

    Returns ``(points, weights)`` of shapes ``(T*Q, 2)`` and ``(T*Q,)``;
    weights include the triangle areas, so sums approximate integrals.
    """
    bary, w = _QUAD_RULES[rule]
    p = mesh.nodes[mesh.triangles]  # (T, 3, 2)
    pts = np.einsum("qi,tij->tqj", bary, p)  # (T, Q, 2)
    areas, _ = _tri_geometry(mesh)
    weights = areas[:, None] * w[None, :]
    return pts.reshape(-1, 2), weights.reshape(-1)


def _assemble_weighted_stiffness(mesh, tri_integrals):
    """Full stiffness matrix for a scalar coefficient with per-triangle
    integrals ``tri_integrals[t] = integral of the coefficient over t``."""
    _, grads = _tri_geometry(mesh)
    gg = np.einsum("tid,tjd->tij", grads, grads)  # (T, 3, 3)
    vals = tri_integrals[:, None, None] * gg
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nn = mesh.n_nodes
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()


def _assemble_mass(mesh):
    """Full P1 mass matrix (exact)."""
    areas, _ = _tri_geometry(mesh)
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float) / 12.0
    vals = areas[:, None, None] * local
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nn = mesh.n_nodes
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()


def _assemble_load(mesh, rule, f_at_quad):
    """Full load vector for a source term sampled at the quadrature points."""
    bary, w = _QUAD_RULES[rule]
    areas, _ = _tri_geometry(mesh)
    fq = f_at_quad.reshape(mesh.n_triangles, len(w))
    # integral of f * lambda_i over each triangle
    contrib = np.einsum("tq,q,qi->ti", fq, w, bary) * areas[:, None]
    vec = np.zeros(mesh.n_nodes)
    np.add.at(vec, mesh.triangles.ravel(), contrib.ravel())
    return vec


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
    on first use and shared read-only afterwards.
    """

    name: str
    mesh: MeshGrid
    free_dofs: np.ndarray = field(repr=False)
    A_blocks: list = field(repr=False)
    diffusion_c: list = field(repr=False)
    diffusion_dc: list = field(repr=False)
    f_blocks: list = field(repr=False)
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
    quad_points: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)
    coeff_at_quad: np.ndarray = field(repr=False)
    coercivity_floor: float
    theta_ref: np.ndarray = field(repr=False)
    theta_data: np.ndarray = field(repr=False)
    noise_seed: int

    def __post_init__(self):
        self._gram_lu = None
        # per-term field extrema over quadrature points; these give an O(J)
        # lower bound on the diffusion field used by online-only evaluations
        self._coeff_lo = self.coeff_at_quad.min(axis=0)
        self._coeff_hi = self.coeff_at_quad.max(axis=0)
        aq = self.coeff_at_quad
        self._one_hot_fields = bool(
            np.all((aq == 0.0) | (aq == 1.0)) and np.allclose(aq.sum(axis=1), 1.0)
        )
        # all stiffness blocks come from one stencil and share its sparsity
        # structure, so the operator and its parameter derivatives are
        # weighted sums of the stacked data arrays
        first = self.A_blocks[0]
        if not all(
            np.array_equal(blk.indptr, first.indptr)
            and np.array_equal(blk.indices, first.indices)
            for blk in self.A_blocks[1:]
        ):
            raise ConfigurationError("stiffness blocks do not share one sparsity structure")
        self._block_data = np.stack([blk.data for blk in self.A_blocks])
        self._block_structure = (first.indices, first.indptr)

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
        return len(self.A_blocks)

    @property
    def n_load_terms(self):
        return len(self.f_blocks)

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

    def field_range(self, theta, coeffs=None):
        """Min and max of the diffusion field over all quadrature points,
        one pair of values per row for a stack ``(M, d)``."""
        cA, _, _, _ = coeffs or self.eval_coefficients(theta)
        with np.errstate(invalid="ignore"):  # inf coefficients on zero fields
            values = self.coeff_at_quad @ cA.T  # (Q,) or (Q, M)
        return values.min(axis=0), values.max(axis=0)

    def check_coercive(self, theta, coeffs=None):
        """Raise :class:`CoercivityLost` at the first row of ``theta`` (one
        parameter or a stack ``(M, d)``) whose field dips below the floor.

        The surrogate extrapolates smoothly into regions where the full
        operator is not even well posed, so every evaluation is guarded:
        without a guard a trial step can report an arbitrarily attractive
        fake merit, and a clamped iterate can leave the coercive set.  The
        conservative O(J) bound of :meth:`conservative_field_min`, evaluated
        for the whole stack at once, keeps the typical cost mesh-independent;
        only rows where that bound is inconclusive get the exact
        per-quadrature-point check of :meth:`field_range`, again in one pass.
        Both read the one coefficient evaluation ``coeffs``.
        """
        thetas = np.atleast_2d(theta)
        coeffs = coeffs or self.eval_coefficients(theta)
        if np.ndim(theta) == 1:  # a single parameter is a stack of one
            coeffs = tuple(c[None] for c in coeffs)
        unsure = self.conservative_field_min(thetas, coeffs) <= self.coercivity_floor
        if not unsure.any():
            return
        lo = self.field_range(thetas[unsure], tuple(c[unsure] for c in coeffs))[0]
        bad = ~np.isfinite(lo) | (lo <= self.coercivity_floor)
        if bad.any():
            i = int(np.argmax(bad))
            raise CoercivityLost(thetas[unsure][i], lo[i], self.coercivity_floor)

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

    def _stiffness(self, data):
        """Sparse matrix with the shared block structure and the given values."""
        indices, indptr = self._block_structure
        return sp.csr_matrix((data, indices, indptr), shape=self.A_blocks[0].shape)

    def operator(self, theta, coeffs=None):
        """Assembled operator and load at a coercive ``theta``: ``(A(theta), f(theta))``."""
        coeffs = coeffs or self.eval_coefficients(theta)
        self.check_coercive(theta, coeffs)
        cA, cF, _, _ = coeffs
        f = np.zeros(self.n_dofs)
        for c, vec in zip(cF, self.f_blocks):
            f += c * vec
        return self._stiffness(cA @ self._block_data), f

    def operator_derivatives(self, theta, coeffs=None):
        """Parameter derivatives of the operator and load at ``theta``.

        Returns ``(dA, dF)``: ``dA[j]`` is the sparse matrix of ``d_j A(theta)``
        and ``dF[j]`` the vector ``d_j f(theta)``, each the affine sum of the
        blocks with the coefficient gradients.
        """
        _, _, dcA, dcF = coeffs or self.eval_coefficients(theta)
        dA = [self._stiffness(data) for data in dcA.T @ self._block_data]
        return dA, dcF.T @ np.stack(self.f_blocks)

    # -- norms -----------------------------------------------------------

    def v_inner(self, v, w):
        """H^1 inner product on the constrained space."""
        return float(v @ (self.gram @ w))

    def v_norm(self, v):
        return np.sqrt(max(self.v_inner(v, v), 0.0))

    def gram_solve(self, g):
        """Riesz representative of a functional coefficient vector."""
        if self._gram_lu is None:
            try:
                self._gram_lu = spd_lu(self.gram)
            except RuntimeError as exc:  # pragma: no cover - fatal setup error
                raise ConfigurationError(f"Gram factorization failed: {exc}") from exc
        return self._gram_lu.solve(g)

    def dual_norm(self, g):
        """Dual norm ``sqrt(g^T X^-1 g)`` of a functional vector."""
        z = self.gram_solve(g)
        return np.sqrt(max(float(g @ z), 0.0))

    def obs_dual_norms(self):
        """Dual norms of the observation functionals (computed once)."""
        if getattr(self, "_obs_dual", None) is None:
            self._obs_dual = np.array([
                self.dual_norm(self.obs_matrix[:, i].toarray().ravel())
                for i in range(self.n_obs)
            ])
        return self._obs_dual

    # -- constrained/full vector transfer --------------------------------

    def embed(self, v_free):
        """Zero-extend a constrained vector to all grid nodes."""
        full = np.zeros(self.n_dofs_raw)
        full[self.free_dofs] = v_free
        return full

    # -- observation ------------------------------------------------------

    def observe(self, u):
        """Apply the observation functionals to a constrained state vector."""
        return self.obs_matrix.T @ u

    def misfit_weighted(self, residual):
        """Apply the noise precision (diagonal) to an observation residual."""
        return self.noise_precision * residual
