import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from svrb import fem, hifi, verify
from svrb.cases import (
    AffineTerm,
    UniformBox,
    UnsupportedCoefficient,
    assemble_problem,
    custom_case,
    gaussian9_case,
    obs_grid_points,
    uniform4_case,
)
from svrb.fem import CoercivityLost, ConfigurationError

from conftest import embed, manufactured_case
from reference_assembly import reference_arrays


@functools.lru_cache(maxsize=None)
def guard_pools(p):
    """Parameters in and around the uniform4 prior box, by what the coercivity
    guard makes of them: ``S`` passes the O(J) bound, ``F`` fails the bound
    but passes the exact check, ``B`` fails both; none is within 1e-6 of the floor."""
    thetas = np.random.default_rng(3).uniform(-2.6, 2.6, size=(3000, 4))
    sure = p.conservative_field_min(thetas) > p.coercivity_floor
    lo = p.field_range(thetas)[0]
    clear = np.abs(lo - p.coercivity_floor) > 1e-6
    return {"S": thetas[sure], "F": thetas[~sure & clear & (lo > p.coercivity_floor)],
            "B": thetas[clear & (lo <= p.coercivity_floor)]}


@functools.lru_cache(maxsize=None)
def edge_rows(p):
    """Rows within rounding of the coercivity floor, by the field of the row
    alone: each of 20 ``B`` rows of :func:`guard_pools` scaled toward the
    origin (where the field is 5) by bisection, one row either side."""
    rows = []
    for theta in guard_pools(p)["B"][:20]:
        good, bad = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (good + bad)
            if p.field_range(mid * theta)[0] > p.coercivity_floor:
                good = mid
            else:
                bad = mid
        rows += [good * theta, bad * theta]
    return np.array(rows)


class TestMesh:
    def test_reference_mesh_counts(self):
        mesh = fem.build_mesh(128)
        assert mesh.n_nodes == 16641
        assert mesh.n_triangles == 32768

    def test_smallest_mesh(self):
        mesh = fem.build_mesh(1)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2

    def test_count_formulas(self):
        mesh = fem.build_mesh(4)
        assert mesh.n_nodes == 25
        assert mesh.n_triangles == 32

    def test_positive_orientation(self):
        mesh = fem.build_mesh(5)
        p = mesh.nodes[mesh.triangles]
        areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                       - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        assert np.all(areas > 0)

    def test_boundary_tags(self):
        mesh = fem.build_mesh(3)
        assert np.array_equal(mesh.boundary["bottom"], [0, 1, 2, 3])
        assert np.array_equal(mesh.boundary["top"], [12, 13, 14, 15])
        assert np.array_equal(mesh.boundary["left"], [0, 4, 8, 12])
        assert np.array_equal(mesh.boundary["right"], [3, 7, 11, 15])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fem.build_mesh(0)


class TestAssembly:
    def test_uniform4_shapes(self, uniform4_8):
        p = uniform4_8
        assert p.n_diffusion_terms == 5
        assert p.n_load_terms == 1
        assert p.n_obs == 49
        assert p.dim == 4
        assert p.n_dofs_raw == 81
        assert p.n_dofs == 81 - 2 * 9

    def test_gaussian9_shapes(self, gaussian9_9):
        p = gaussian9_9
        assert p.n_diffusion_terms == 9
        assert p.dim == 9

    def test_gaussian9_requires_multiple_of_three(self):
        with pytest.raises(ConfigurationError):
            gaussian9_case(10)

    def test_mesh_without_free_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="free nodes"):
            assemble_problem(uniform4_case(1))

    def test_observation_point_outside_domain(self):
        mesh = fem.build_mesh(4)
        with pytest.raises(ConfigurationError):
            fem.point_eval_weights(mesh, [[1.2, 0.5]])

    def test_non_affine_coefficient_rejected(self):
        case = custom_case(
            4,
            diffusion=[AffineTerm(lambda x: np.ones(len(x)), None, None)],
            load=[1.0],
            prior=UniformBox([-1.0], [1.0]),
            dim=1,
        )
        with pytest.raises(UnsupportedCoefficient):
            assemble_problem(case)

    def test_blocks_symmetric(self, uniform4_8):
        for blk in blocks(uniform4_8) + [uniform4_8.gram]:
            gap = abs(blk - blk.T).max()
            assert gap <= 1e-12 * abs(blk).max()

    def test_gram_spd_dense(self):
        p = assemble_problem(uniform4_case(16))
        eigs = np.linalg.eigvalsh(p.gram.toarray())
        assert eigs.min() > 0

    def test_theta_independent_custom_case(self, constant_problem):
        p = constant_problem
        A1, f1 = p.operator(np.array([0.3]))
        A2, f2 = p.operator(np.array([-0.9]))
        assert abs(A1 - A2).max() == 0
        assert np.array_equal(f1, f2)


class TestCoefficients:
    def test_uniform4_values(self, uniform4_8):
        cA, cF, dcA, dcF = uniform4_8.eval_coefficients(np.array([1.0, 0, 0, 0]))
        assert np.allclose(cA, [1, 1, 0, 0, 0])
        assert np.allclose(cF, [1])
        assert np.allclose(dcA[0], 0)
        assert np.allclose(dcA[1], [1, 0, 0, 0])

    def test_gaussian9_values(self, gaussian9_9):
        cA, _, dcA, _ = gaussian9_9.eval_coefficients(np.zeros(9))
        assert np.allclose(cA, 1.0)
        assert np.allclose(dcA, np.eye(9) / 2)

    def test_load_theta_independent(self, uniform4_8):
        rng = np.random.default_rng(0)
        for _ in range(3):
            _, cF, _, dcF = uniform4_8.eval_coefficients(rng.normal(size=4))
            assert np.allclose(cF, [1.0])
            assert np.allclose(dcF, 0.0)


def blocks(problem):
    """The stiffness blocks as separate sparse matrices."""
    return [problem.stiffness(data) for data in problem.A_data]


def unit_stiffness(problem):
    """Stiffness matrix of the unit diffusivity in the problem's dof numbering."""
    stencil = fem.Stencil(problem.mesh, problem.free_dofs)
    areas, stiffness = fem.element_geometry(problem.mesh)
    return stencil.matrix(stencil.data(stiffness, areas[None])[0])


def _natural(problem):
    """The grid nodes of the free dofs in increasing order: the numbering
    before the fill-reducing one, and the permutation from the problem's
    numbering to it."""
    to_natural = np.argsort(problem.free_dofs)
    return problem.free_dofs[to_natural], to_natural


class TestStackedAssembly:
    CASES = {"uniform4-8": lambda: uniform4_case(8), "gaussian9-9": lambda: gaussian9_case(9),
             "manufactured-8": lambda: manufactured_case(8), "uniform4-32": lambda: uniform4_case(32)}

    @pytest.mark.parametrize("name", CASES)
    def test_matches_per_block_reference(self, name):
        case = self.CASES[name]()
        p = assemble_problem(case)
        ref_blocks, loads, gram = reference_arrays(case, p.free_dofs)
        for got, want in zip(blocks(p) + [p.gram], ref_blocks + [gram]):
            assert abs(got - want).max() <= 1e-14 * abs(want).max()
        for got, want in zip(p.f_data, loads):
            assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
        obs = fem.point_eval_weights(p.mesh, p.obs_points)[p.free_dofs]
        assert abs(p.obs_matrix - obs).max() == 0.0

    def test_free_dofs_renumber_the_interior_and_side_nodes(self, uniform4_8):
        natural, _ = _natural(uniform4_8)
        mesh = uniform4_8.mesh
        dirichlet = np.union1d(mesh.boundary["bottom"], mesh.boundary["top"])
        assert np.array_equal(natural, np.setdiff1d(np.arange(mesh.n_nodes), dirichlet))
        assert not np.array_equal(uniform4_8.free_dofs, natural)

    def test_blocks_and_gram_share_one_sorted_structure(self, gaussian9_9):
        gram = gaussian9_9.gram
        assert gaussian9_9.A_data.shape == (9, gram.nnz)
        assert gram.indices.dtype == gram.indptr.dtype == np.int32
        for blk in blocks(gaussian9_9) + list(gaussian9_9.operator_derivatives(np.zeros(9))[0]):
            assert np.shares_memory(blk.indices, gram.indices)  # shared, not copied
            assert np.shares_memory(blk.indptr, gram.indptr)
        assert gram.has_sorted_indices

    @pytest.mark.parametrize("case", [uniform4_case(32), gaussian9_case(63)],
                             ids=["uniform4-32", "gaussian9-63"])
    def test_order_is_superlu_minimum_degree(self, case):
        # the incomplete LU behind fill_reducing_order computes the ordering
        # a full LU with the same options would
        p = assemble_problem(case)
        _, to_natural = _natural(p)
        gram = p.gram[to_natural][:, to_natural]
        lu = spla.splu(gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        order = fem.fill_reducing_order(gram)
        assert np.array_equal(order, np.argsort(lu.perm_c))
        assert np.array_equal(p.free_dofs, _natural(p)[0][order])

    def test_non_symmetric_gram_rejected(self, uniform4_8):
        gram = uniform4_8.gram.copy()
        row = np.repeat(np.arange(gram.shape[0]), np.diff(gram.indptr))
        gram.data[np.argmax(gram.indices != row)] += 1.0
        with pytest.raises(ConfigurationError, match="Gram"):
            dataclasses.replace(uniform4_8, gram=gram)


class TestOperator:
    def test_constant_field_matches_unit_stiffness(self, constant_problem):
        A, _ = constant_problem.operator(np.zeros(1))
        K = unit_stiffness(constant_problem)
        assert abs(A - K).max() < 1e-14

    def test_uniform4_origin_is_five_times_unit_stiffness(self, uniform4_8):
        A, _ = uniform4_8.operator(np.zeros(4))
        K = unit_stiffness(uniform4_8)
        assert abs(A - 5.0 * K).max() < 1e-12

    def test_extreme_corner_loses_coercivity(self, uniform4_8):
        # at the all-negative extreme, the field at (0, 0) is 5 - 4*sqrt(3) < 0
        theta = -np.sqrt(3.0) * np.ones(4)
        with pytest.raises(CoercivityLost):
            uniform4_8.operator(theta)

    @settings(max_examples=60, deadline=None)
    @given(thetas=arrays(float, st.tuples(st.integers(1, 6), st.just(4)),
                         elements=st.floats(-5.0, 5.0)))
    def test_check_coercive_names_the_first_bad_row(self, uniform4_8, thetas):
        # the prior box is [-sqrt(3), sqrt(3)]^4; rows beyond it are often not coercive
        p = uniform4_8
        lows = np.array([p.field_range(theta)[0] for theta in thetas])
        bad = np.flatnonzero(lows <= p.coercivity_floor)
        if not len(bad):
            p.check_coercive(thetas)
            return
        with pytest.raises(CoercivityLost) as err:
            p.check_coercive(thetas)
        assert np.array_equal(err.value.theta, thetas[bad[0]])
        assert err.value.min_value == lows[bad[0]]

    @settings(max_examples=40, deadline=None)
    @given(head=st.lists(st.sampled_from("SF"), max_size=20),
           tail=st.lists(st.sampled_from("SFB"), max_size=20),
           seed=st.integers(0, 2**32 - 1))
    def test_fast_check_matches_the_full_check(self, uniform4_8, head, tail, seed):
        # the first unsure row is fine and a later one is bad, so the exact
        # check must pass the fine rows and stop at the bad one
        p = uniform4_8
        pools = guard_pools(p)
        rng = np.random.default_rng(seed)
        thetas = np.array([pools[k][rng.integers(len(pools[k]))]
                           for k in ["F", *head, "B", *tail]])
        unsure = np.flatnonzero(p.conservative_field_min(thetas) <= p.coercivity_floor)
        lo = p.field_range(thetas[unsure])[0]  # every unsure row at once
        first = np.flatnonzero(lo <= p.coercivity_floor)[0]
        with pytest.raises(CoercivityLost) as err:
            p.check_coercive(thetas)
        assert np.array_equal(err.value.theta, thetas[unsure[first]])
        assert err.value.floor == p.coercivity_floor
        assert err.value.min_value == lo[first]
        assert str(err.value) == (
            f"diffusion field min {err.value.min_value:.3e} <= floor {p.coercivity_floor:.1e} "
            f"at theta={np.array2string(thetas[unsure[first]], precision=4)}")

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from("FBXE"), min_size=1, max_size=16),
           seed=st.integers(0, 2**32 - 1))
    def test_a_row_gets_the_same_verdict_alone_and_in_any_stack(self, uniform4_8, kinds, seed):
        # F and B of guard_pools, rows beyond the prior box (X) and rows within
        # rounding of the floor (E); each prefix of the stack ends in another
        # row, so every row is checked at its position behind the rows before it
        p = uniform4_8
        pools = dict(guard_pools(p), X=np.random.default_rng(5).uniform(-5.0, 5.0, (500, 4)),
                     E=edge_rows(p))
        rng = np.random.default_rng(seed)
        thetas = np.array([pools[k][rng.integers(len(pools[k]))] for k in kinds])
        alone = []  # the minimum a row reports when it fails alone, else None
        for theta in thetas:
            try:
                p.check_coercive(theta)
                alone.append(None)
            except CoercivityLost as exc:
                assert exc.min_value == p.field_range(theta)[0]
                alone.append(exc.min_value)
        assert np.array_equal(p.field_range(thetas)[0], [p.field_range(t)[0] for t in thetas])
        verdicts = p.coercive_rows(thetas)
        assert verdicts.tolist() == [lo is None for lo in alone]
        if not verdicts.all():  # the guard stops at the first row the verdict refuses
            first = int(np.argmin(verdicts))
            with pytest.raises(CoercivityLost) as err:
                p.check_coercive(thetas)
            assert np.array_equal(err.value.theta, thetas[first])
            assert err.value.min_value == alone[first]
        for end in range(1, len(thetas) + 1):
            bad = [i for i in range(end) if alone[i] is not None]
            if not bad:
                p.check_coercive(thetas[:end])
                continue
            with pytest.raises(CoercivityLost) as err:
                p.check_coercive(thetas[:end])
            assert np.array_equal(err.value.theta, thetas[bad[0]])
            assert err.value.min_value == alone[bad[0]]

    def test_non_symmetric_block_rejected(self, uniform4_8):
        A_data = uniform4_8.A_data.copy()
        gram = uniform4_8.gram
        row = np.repeat(np.arange(gram.shape[0]), np.diff(gram.indptr))
        A_data[1, np.argmax(gram.indices != row)] += 1.0  # one off-diagonal entry of block 1
        with pytest.raises(ConfigurationError, match="stiffness blocks are not symmetric"):
            dataclasses.replace(uniform4_8, A_data=A_data)

    def test_non_symmetric_structure_rejected(self, uniform4_8):
        matrices = []
        for mat in blocks(uniform4_8) + [uniform4_8.gram]:  # one shared, non-symmetric structure
            mat = mat.tolil()
            mat[0, uniform4_8.n_dofs - 1] = 1.0
            matrices.append(mat.tocsr())
        with pytest.raises(ConfigurationError, match="stiffness blocks are not symmetric"):
            dataclasses.replace(uniform4_8, A_data=np.stack([m.data for m in matrices[:-1]]),
                                gram=matrices[-1])

    def test_uniform4_derivatives_are_the_mode_blocks(self, uniform4_8):
        dA, dF = uniform4_8.operator_derivatives(np.array([0.3, -1.0, 0.5, 1.2]))
        for dA_j, mode_block in zip(dA, blocks(uniform4_8)[1:]):
            assert abs(dA_j - mode_block).max() == 0.0
        assert np.all(dF == 0.0)

    def test_gaussian9_derivatives_match_finite_differences(self, gaussian9_9):
        p, h = gaussian9_9, 1e-6
        theta = np.linspace(-1.0, 1.0, 9)
        dA, _ = p.operator_derivatives(theta)
        for j in (0, 4, 8):
            e = np.zeros(9)
            e[j] = h
            fd = (p.operator(theta + e)[0] - p.operator(theta - e)[0]) / (2 * h)
            assert abs(fd - dA[j]).max() <= 1e-7 * abs(dA[j]).max()

    @pytest.mark.parametrize("name", ["uniform4_16", "gaussian9_9"])
    def test_block_products_match_per_block_matrices_bitwise(self, name, request):
        # every product with the blocks does the arithmetic of separately
        # held per-block matrices, so no output moves by a rounding error
        p = request.getfixturevalue(name)
        held = [p.stiffness(data.copy()) for data in p.A_data]
        stacked = np.stack([blk.data for blk in held])
        theta = verify.draw_coercive(p, np.random.default_rng(5), 1)[0]
        cA, cF, dcA, dcF = p.eval_coefficients(theta)

        A, f = p.operator(theta)
        assert np.array_equal(A.data, cA @ stacked)
        assert np.array_equal(f, sum(c * vec for c, vec in zip(cF, p.f_data)))
        dA, dF = p.operator_derivatives(theta)
        for got, want in zip(dA, dcA.T @ stacked):
            assert np.array_equal(got.data, want)
        assert np.array_equal(dF, dcF.T @ p.f_data)

        ev = hifi.evaluate(p, theta)
        a_terms = np.array([ev.psi @ (blk @ ev.u) for blk in held])
        f_terms = np.array([ev.psi @ vec for vec in p.f_data])
        assert np.array_equal(ev.grad_eta, dcA.T @ a_terms - dcF.T @ f_terms)

        rm = verify.build_small_rb(p, np.random.default_rng(6), 3)
        old, other = rm.basis_u.copy(), rm.basis_psi.copy()
        ev = hifi.evaluate(p, verify.draw_coercive(p, np.random.default_rng(7), 1)[0])
        v = rm._orthogonalize(p, ev.u, old)
        rm._append(p, v, "state")
        Av = np.column_stack([blk @ v for blk in held])
        k = old.shape[1]
        assert np.array_equal(rm.Au[:, :k, k], (old.T @ Av).T)
        assert np.array_equal(rm.Au[:, k, :k], (old.T @ Av).T)
        assert np.array_equal(rm.Au[:, k, k], v @ Av)
        assert np.array_equal(rm.Aup[:, :, k], (other.T @ Av).T)
        assert np.array_equal(rm.fu[:, k], p.f_data @ v)

    def test_conservative_bound_underestimates(self, uniform4_8):
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = uniform4_8.prior.sample(rng, 1)[0]
            assert uniform4_8.conservative_field_min(theta) <= uniform4_8.field_range(theta)[0] + 1e-12


class TestNorms:
    def test_zero_vectors(self, uniform4_8):
        z = np.zeros(uniform4_8.n_dofs)
        assert uniform4_8.v_norm(z) == 0.0
        assert uniform4_8.dual_norm(z) == 0.0

    def test_inner_product_symmetry_and_consistency(self, uniform4_8):
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = rng.normal(size=uniform4_8.n_dofs)
            w = rng.normal(size=uniform4_8.n_dofs)
            assert uniform4_8.v_inner(v, w) == pytest.approx(uniform4_8.v_inner(w, v))
            assert uniform4_8.v_norm(v) ** 2 == pytest.approx(uniform4_8.v_inner(v, v))

    def test_riesz_isometry(self, uniform4_8):
        rng = np.random.default_rng(3)
        v = rng.normal(size=uniform4_8.n_dofs)
        g = uniform4_8.gram @ v
        assert uniform4_8.dual_norm(g) == pytest.approx(uniform4_8.v_norm(v), rel=1e-10)

    def test_dual_norm_dense_oracle(self):
        p = assemble_problem(uniform4_case(5))
        rng = np.random.default_rng(4)
        X = p.gram.toarray()
        for _ in range(3):
            g = rng.normal(size=p.n_dofs)
            z = np.linalg.solve(X, g)
            assert p.dual_norm(g) == pytest.approx(np.sqrt(g @ z), rel=1e-10)


class TestInvariants:
    def test_patch_zero_load(self):
        case = custom_case(6, diffusion=[1.0], load=[0.0],
                           prior=UniformBox([-1.0], [1.0]), dim=1, noise_sigma=1.0)
        p = assemble_problem(case)
        u = hifi.solve_state(p, np.zeros(1))
        assert np.allclose(u, 0.0)

    def test_manufactured_solution_rate(self):
        errors = []
        for n in (8, 16, 32):
            case = manufactured_case(n)
            p = assemble_problem(case)
            u = hifi.solve_state(p, np.zeros(1))
            areas, _ = fem.element_geometry(p.mesh)
            points, weights = fem.quadrature_points(p.mesh, case.quad_rule, areas)
            uq = fem.point_eval_weights(p.mesh, points).T @ embed(p, u)
            exact = np.sin(np.pi * points[:, 1])
            errors.append(np.sqrt(np.sum(weights * (uq - exact) ** 2)))
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(r > 3.5 for r in ratios), ratios

    def test_observation_consistency(self, uniform4_8):
        p = uniform4_8
        u = hifi.solve_state(p, p.theta_ref)
        observed = p.observe(u)
        full = embed(p, u)
        pts = obs_grid_points(7)
        n = p.mesh.n
        for i, (x, y) in enumerate(pts):
            # bilinear cell coordinates, then the criss-cross split
            ix, iy = min(int(x * n), n - 1), min(int(y * n), n - 1)
            xi, eta = x * n - ix, y * n - iy
            v00 = iy * (n + 1) + ix
            if xi >= eta:
                val = (1 - xi) * full[v00] + (xi - eta) * full[v00 + 1] + eta * full[v00 + n + 2]
            else:
                val = (1 - eta) * full[v00] + xi * full[v00 + n + 2] + (eta - xi) * full[v00 + n + 1]
            assert observed[i] == pytest.approx(val, rel=1e-12, abs=1e-15)

    def test_quadrature_weights_sum_to_area(self, uniform4_8, gaussian9_9):
        for p, rule in ((uniform4_8, "gauss3"), (gaussian9_9, "centroid")):
            areas, _ = fem.element_geometry(p.mesh)
            points, weights = fem.quadrature_points(p.mesh, rule, areas)
            assert len(points) == len(p.coeff_at_quad)
            assert weights.sum() == pytest.approx(1.0, rel=1e-12)


class TestDataRule:
    def test_sigma_fraction_of_peak_observation(self, uniform4_8):
        p = uniform4_8
        u_ref = hifi.solve_state(p, p.theta_ref)
        assert p.sigma == pytest.approx(0.01 * p.observe(u_ref).max(), rel=1e-12)

    def test_noiseless_data_reproduces_reference(self):
        p = assemble_problem(uniform4_case(8, data_noise=False))
        u_ref = hifi.solve_state(p, p.theta_ref)
        assert np.allclose(p.y, p.observe(u_ref))

    def test_noise_draw_is_seeded(self):
        p1 = assemble_problem(uniform4_case(8))
        p2 = assemble_problem(uniform4_case(8))
        assert np.array_equal(p1.y, p2.y)


class TestCaseBuilders:
    @pytest.mark.parametrize("build", [
        lambda **kw: uniform4_case(8, **kw),
        lambda **kw: gaussian9_case(9, **kw),
        lambda **kw: custom_case(6, diffusion=[1.0], load=[1.0],
                                 prior=UniformBox([-1.0], [1.0]), dim=1, **kw),
    ], ids=["uniform4", "gaussian9", "custom"])
    def test_misspelled_override_is_rejected(self, build):
        assert build(noise_scale=0.5).noise_scale == 0.5
        with pytest.raises(ConfigurationError, match="nosie_scale"):
            build(nosie_scale=0.5)
