"""Benchmark problem definitions and assembly into parametric problems.

Two built-in cases:

* ``uniform4`` -- four i.i.d. uniform parameters on ``[-sqrt(3), sqrt(3)]``
  weighting cosine modes on top of a constant background diffusivity 5.
* ``gaussian9`` -- nine i.i.d. standard Gaussian parameters; the diffusivity
  is ``exp(theta_j / 2)`` on the j-th cell of a 3x3 partition of the square.

Synthetic data is generated from a reference parameter: the noise level is
a fixed fraction of the largest observed value there, and the observations
are the reference outputs plus one draw of that noise (seeded).
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import fem, hifi
from .fem import ConfigurationError


class UnsupportedCoefficient(ValueError):
    """A custom coefficient that does not admit an affine decomposition."""


# ---------------------------------------------------------------------------
# priors


@dataclass(frozen=True)
class UniformBox:
    """Independent uniform components on a box; score is zero inside.

    Outside-the-box behaviour is handled by the sampler (clamping), so both
    the score and the negative log-density are treated as flat everywhere.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if not np.all(self.lo < self.hi):
            raise ConfigurationError("UniformBox requires lo < hi componentwise")

    @property
    def dim(self):
        return self.lo.shape[0]

    def sample(self, rng, m):
        return rng.uniform(self.lo, self.hi, size=(m, self.dim))

    def score(self, thetas):
        return np.zeros_like(np.atleast_2d(thetas))

    def neglog(self, thetas):
        thetas = np.atleast_2d(thetas)
        return np.zeros(thetas.shape[0])

    def clamp(self, thetas):
        clipped = np.clip(thetas, self.lo, self.hi)
        n_clamped = int(np.sum(np.any(clipped != thetas, axis=-1)))
        return clipped, n_clamped


@dataclass(frozen=True)
class StandardGaussian:
    """Independent standard normal components."""

    dim: int

    def sample(self, rng, m):
        return rng.standard_normal((m, self.dim))

    def score(self, thetas):
        return -np.atleast_2d(thetas)

    def neglog(self, thetas):
        thetas = np.atleast_2d(thetas)
        return 0.5 * np.sum(thetas**2, axis=-1)

    def clamp(self, thetas):
        return thetas, 0


# ---------------------------------------------------------------------------
# case configuration


@dataclass
class AffineTerm:
    """One affine term: a spatial field with its parameter coefficient.

    ``field`` maps points ``(m, 2) -> (m,)``.  ``c`` and ``dc`` take a stack
    of parameters of shape ``(..., d)`` -- a single ``(d,)`` parameter or an
    ``(M, d)`` particle stack -- and return the coefficient values
    ``(...)`` and their gradients ``(..., d)``; outputs that broadcast to
    those shapes (a constant, say) are accepted.  Assembly rejects a map
    that handles only one parameter at a time.  ``c=None`` marks a
    non-affine coefficient, which is rejected at assembly too.
    """

    field: object
    c: object
    dc: object


def _const_field(value):
    return lambda x: np.full(x.shape[0], float(value))


def _const_coeff(value):
    return ((lambda theta: np.full(np.shape(theta)[:-1], float(value))),
            (lambda theta: np.zeros(np.shape(theta))))


def _coordinate_coeff(j, f, df):
    """Coefficient ``f(theta_j)`` and its gradient ``df(theta_j) e_j``."""
    def dc(theta):
        grad = np.zeros(np.shape(theta))
        grad[..., j] = df(theta[..., j])
        return grad

    return (lambda theta: f(theta[..., j])), dc


@dataclass
class CaseConfig:
    name: str
    n: int
    prior: object
    diffusion: list
    load: list
    quad_rule: str = "gauss3"
    obs_grid: int = 7
    noise_scale: float = 0.01
    noise_sigma: float = None  # explicit override of the sigma rule
    theta_ref: np.ndarray = None
    theta_data: np.ndarray = None
    noise_seed: int = 20314
    data_noise: bool = True
    coercivity_floor: float = 1e-8


def _override(cfg, overrides):
    """``cfg`` with ``overrides`` set; a key that is no field is a configuration error."""
    unknown = sorted(set(overrides) - {f.name for f in fields(CaseConfig)})
    if unknown:
        raise ConfigurationError(f"unknown case settings: {unknown}")
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def uniform4_case(n, **overrides):
    """Four cosine modes over a constant background diffusivity of 5."""
    d = 4
    modes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    terms = [AffineTerm(_const_field(5.0), *_const_coeff(1.0))]
    for j, (j1, j2) in enumerate(modes):
        fld = (lambda j1, j2: lambda x: np.cos(j1 * np.pi * x[:, 0]) * np.cos(j2 * np.pi * x[:, 1]))(j1, j2)
        terms.append(AffineTerm(fld, *_coordinate_coeff(j, lambda t: t, lambda t: 1.0)))
    load = [AffineTerm(_const_field(1.0), *_const_coeff(1.0))]
    r3 = np.sqrt(3.0)
    cfg = CaseConfig(
        name="uniform4",
        n=n,
        prior=UniformBox(-r3 * np.ones(d), r3 * np.ones(d)),
        diffusion=terms,
        load=load,
        quad_rule="gauss3",
        theta_ref=np.ones(d),
    )
    return _override(cfg, overrides)


def _cell_indicator(bx, by):
    def field(x):
        cx = np.floor(np.clip(x[:, 0], 0, 1 - 1e-12) * 3).astype(int)
        cy = np.floor(np.clip(x[:, 1], 0, 1 - 1e-12) * 3).astype(int)
        return ((cx == bx) & (cy == by)).astype(float)

    return field


def _exp_half(t):
    # overflow at extreme trial parameters maps to inf, which downstream
    # coercivity checks treat as lost well-posedness
    with np.errstate(over="ignore"):
        return np.exp(t / 2.0)


def gaussian9_case(n, **overrides):
    """Log-normal cellwise diffusivity on a 3x3 partition of the square."""
    d = 9
    if n % 3 != 0:
        raise ConfigurationError(
            "gaussian9 requires the mesh subdivision n to be a multiple of 3 "
            "so triangles do not straddle subdomain interfaces"
        )
    terms = []
    for j in range(d):
        bx, by = j % 3, j // 3  # cells ordered left-to-right, bottom-to-top
        terms.append(AffineTerm(_cell_indicator(bx, by),
                                *_coordinate_coeff(j, _exp_half, lambda t: _exp_half(t) / 2.0)))
    load = [AffineTerm(_const_field(1.0), *_const_coeff(1.0))]
    cfg = CaseConfig(
        name="gaussian9",
        n=n,
        prior=StandardGaussian(d),
        diffusion=terms,
        load=load,
        quad_rule="centroid",
        theta_ref=np.ones(d),
    )
    return _override(cfg, overrides)


def custom_case(n, diffusion, load, prior, dim, **overrides):
    """Assemble a user-supplied affine case.

    ``diffusion`` and ``load`` are lists of :class:`AffineTerm`.  Constant
    fields and loads may be given as floats.
    """
    diffusion = [
        t if isinstance(t, AffineTerm) else AffineTerm(_const_field(t), *_const_coeff(1.0))
        for t in diffusion
    ]
    load = [
        t if isinstance(t, AffineTerm) else AffineTerm(_const_field(t), *_const_coeff(1.0))
        for t in load
    ]
    cfg = CaseConfig(
        name="custom",
        n=n,
        prior=prior,
        diffusion=diffusion,
        load=load,
        theta_ref=overrides.pop("theta_ref", np.zeros(dim)),
    )
    cfg._dim = dim
    return _override(cfg, overrides)


def _case_dim(case):
    if hasattr(case, "_dim"):
        return case._dim
    return case.prior.dim


# ---------------------------------------------------------------------------
# assembly


def obs_grid_points(k):
    """Interior k-by-k observation grid at ``(i/(k+1), j/(k+1))``."""
    ticks = np.arange(1, k + 1) / (k + 1)
    xx, yy = np.meshgrid(ticks, ticks)
    return np.column_stack([xx.ravel(), yy.ravel()])


def assemble_problem(case):
    """Assemble all parameter-independent objects for a case.

    Builds the mesh, the affine stiffness and load blocks, the observation
    matrix, the H^1 Gram matrix, and the synthetic data.  Dirichlet rows and
    columns (bottom and top edges) are eliminated from every object, and the
    free nodes are numbered by a fill-reducing ordering (``free_dofs[k]`` is
    the grid node of degree of freedom ``k``).
    """
    d = _case_dim(case)
    theta_ref = np.asarray(
        case.theta_ref if case.theta_ref is not None else np.ones(d), dtype=float
    )
    theta_data = np.asarray(
        case.theta_data if case.theta_data is not None else theta_ref, dtype=float
    )
    if theta_ref.shape != (d,) or theta_data.shape != (d,):
        raise ConfigurationError(f"theta_ref and theta_data need {d} components, "
                                 f"not {theta_ref.shape} and {theta_data.shape}")
    for term in case.diffusion + case.load:
        if term.c is None or term.dc is None:
            raise UnsupportedCoefficient(
                "coefficient without an affine decomposition; supply c(theta) "
                "and its gradient or use an empirical-interpolation preprocessor"
            )
        _probe_stacked(term, theta_ref + np.array([[0.0], [0.5]]))

    obs_points = obs_grid_points(case.obs_grid)
    problem = fem.AffineParametricProblem(
        name=case.name,
        **_discretize(case, obs_points),
        diffusion_c=[t.c for t in case.diffusion],
        diffusion_dc=[t.dc for t in case.diffusion],
        load_c=[t.c for t in case.load],
        load_dc=[t.dc for t in case.load],
        obs_points=obs_points,
        y=np.zeros(len(obs_points)),  # filled below
        noise_precision=np.ones(len(obs_points)),
        sigma=1.0,
        prior=case.prior,
        dim=d,
        coercivity_floor=case.coercivity_floor,
        theta_ref=theta_ref,
        theta_data=theta_data,
        noise_seed=case.noise_seed,
    )

    # Synthetic data: noise level from the reference solve, observations from
    # the data-generating parameter plus one seeded noise draw.
    u_ref = hifi.solve_state(problem, theta_ref)
    obs_ref = problem.observe(u_ref)
    if case.noise_sigma is not None:
        sigma = float(case.noise_sigma)
    else:
        sigma = case.noise_scale * float(np.max(obs_ref))
    if sigma <= 0:
        raise ConfigurationError("noise rule produced a non-positive sigma")
    if np.array_equal(theta_data, theta_ref):
        obs_data = obs_ref
    else:
        obs_data = problem.observe(hifi.solve_state(problem, theta_data))
    xi = np.zeros_like(obs_data)
    if case.data_noise:
        xi = sigma * np.random.default_rng(case.noise_seed).standard_normal(obs_data.shape)
    problem.y = obs_data + xi
    problem.sigma = sigma
    problem.noise_precision = np.full(len(obs_points), 1.0 / sigma**2)
    return problem


def _discretize(case, obs_points):
    """The mesh, the diffusion fields at the quadrature points, and every
    matrix and vector of ``case`` that does not depend on the parameter, as
    keyword arguments of :class:`~svrb.fem.AffineParametricProblem`.

    The structure work happens once: element geometry, one sparsity
    structure shared by the stiffness blocks and the Gram matrix, and the
    fill-reducing numbering of the free nodes that every factorization
    uses.  The blocks are values on the Gram matrix's structure.  Its
    temporaries are freed on return, before problem construction checks
    the blocks.
    """
    mesh = fem.build_mesh(case.n)
    areas, stiffness = fem.element_geometry(mesh)
    qpts, qw = fem.quadrature_points(mesh, case.quad_rule, areas)
    n_q_loc = fem._QUAD_RULES[case.quad_rule][1].shape[0]

    dirichlet = np.union1d(mesh.boundary["bottom"], mesh.boundary["top"])
    free = np.setdiff1d(np.arange(mesh.n_nodes), dirichlet)
    if free.size == 0:  # n = 1: every node lies on the Dirichlet boundary
        raise ConfigurationError("the mesh has no free nodes; use n >= 2")

    coeff_at_quad = np.column_stack([t.field(qpts) for t in case.diffusion])
    # integral of every diffusion field over every triangle, (J_A, T)
    tri_int = (coeff_at_quad * qw[:, None]).reshape(mesh.n_triangles, n_q_loc, -1).sum(axis=1).T
    gram_local = stiffness + fem.P1_MASS  # per unit area

    # The Gram matrix has the structure of every stiffness block, so its
    # fill-reducing ordering serves every factorization: number the free
    # nodes by it, then assemble everything in that numbering.
    stencil = fem.Stencil(mesh, free)
    order = fem.fill_reducing_order(stencil.matrix(stencil.data(gram_local, areas[None])[0]))
    stencil = fem.Stencil(mesh, free[order])
    return dict(
        mesh=mesh,
        free_dofs=stencil.free,
        A_data=stencil.data(stiffness, tri_int),
        f_data=np.array([stencil.vector(fem.element_loads(case.quad_rule, t.field(qpts), areas))
                         for t in case.load]),
        obs_matrix=fem.point_eval_weights(mesh, obs_points)[stencil.free],
        gram=stencil.matrix(stencil.data(gram_local, areas[None])[0]),
        coeff_at_quad=coeff_at_quad,
    )


def _probe_stacked(term, thetas):
    """Reject a coefficient map that does not evaluate a parameter stack.

    The online paths evaluate every particle in one call, so ``c`` and
    ``dc`` applied to the ``(2, d)`` stack ``thetas`` must give, row by
    row, what they give for each row alone.
    """
    for fn, shape in ((term.c, thetas.shape[:1]), (term.dc, thetas.shape)):
        try:
            with np.errstate(all="ignore"):
                stacked = np.broadcast_to(fn(thetas), shape)
                rows = [np.broadcast_to(fn(theta), shape[1:]) for theta in thetas]
            same = all(np.allclose(s, r, equal_nan=True) for s, r in zip(stacked, rows))
        except (TypeError, ValueError, IndexError) as exc:
            raise UnsupportedCoefficient(
                f"coefficient map {fn!r} fails on a (2, d) parameter stack: {exc}"
            ) from exc
        if not same:
            raise UnsupportedCoefficient(
                f"coefficient map {fn!r} evaluates a parameter stack differently "
                "from its rows; coefficient maps take stacks of shape (..., d)"
            )
