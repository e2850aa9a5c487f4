import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from svrb import hifi
from svrb.cases import assemble_problem, gaussian9_case, uniform4_case
from svrb.fem import CoercivityLost, SolveFailed
from svrb.verify import draw_coercive

from conftest import embed, manufactured_case


def fd_gradient(fun, theta, step=1e-5):
    grad = np.empty_like(theta)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = step
        grad[j] = (fun(theta + e) - fun(theta - e)) / (2 * step)
    return grad


class TestStateSolve:
    def test_dense_oracle(self, uniform4_8):
        p = uniform4_8
        theta = np.zeros(4)
        u = hifi.solve_state(p, theta)
        A, f = p.operator(theta)
        u_dense = np.linalg.solve(A.toarray(), f)
        assert np.linalg.norm(u - u_dense) <= 1e-10 * np.linalg.norm(u_dense)

    def test_manufactured_accuracy(self):
        p = assemble_problem(manufactured_case(16))
        u = hifi.solve_state(p, np.zeros(1))
        nodes = p.mesh.nodes[p.free_dofs]
        err = embed(p, u)[p.free_dofs] - np.sin(np.pi * nodes[:, 1])
        assert np.abs(err).max() < 1e-2

    def test_residual_guard(self, uniform4_8, monkeypatch):
        op = hifi.Factorization(uniform4_8, np.zeros(4))
        monkeypatch.setattr(op, "_lu", type("Bad", (), {
            "solve": staticmethod(lambda b, trans="N": np.zeros_like(b))})())
        with pytest.raises(SolveFailed):
            op.solve(op.f)


class TestAdjoint:
    def test_zero_misfit_gives_zero_adjoint(self, uniform4_8):
        p = uniform4_8
        theta = p.theta_ref
        u = hifi.solve_state(p, theta)
        exact = dataclasses.replace(p, y=p.observe(u))
        psi = hifi.evaluate(exact, theta).psi
        assert np.allclose(psi, 0.0)

    def test_dense_oracle(self, uniform4_8):
        p = uniform4_8
        theta = np.array([0.4, -0.3, 0.2, 0.1])
        op = hifi.Factorization(p, theta)
        ev = hifi.evaluate(p, theta, op)
        misfit = p.obs_matrix @ (p.noise_precision * (p.y - p.obs_matrix.T @ ev.u))
        psi_dense = np.linalg.solve(op.A.toarray().T, misfit)
        psi = ev.psi
        assert np.linalg.norm(psi - psi_dense) <= 1e-9 * np.linalg.norm(psi_dense)

    def test_linearity_in_noise_precision(self, uniform4_8):
        p = uniform4_8
        theta = p.theta_ref
        psi = hifi.evaluate(p, theta).psi
        scaled = dataclasses.replace(p, noise_precision=4.0 * p.noise_precision)
        psi4 = hifi.evaluate(scaled, theta).psi
        assert np.allclose(psi4, 4.0 * psi, rtol=1e-10)


class TestPotential:
    def test_zero_for_exact_data(self, uniform4_8):
        p = uniform4_8
        u = hifi.solve_state(p, p.theta_ref)
        exact = dataclasses.replace(p, y=p.observe(u))
        assert hifi.potential(exact, p.theta_ref)[0] == 0.0

    def test_single_standardized_residual(self, uniform4_8):
        p = uniform4_8
        u = hifi.solve_state(p, p.theta_ref)
        c = 1.7
        bumped = p.observe(u).copy()
        bumped[0] += p.sigma * c
        shifted = dataclasses.replace(p, y=bumped)
        assert hifi.potential(shifted, p.theta_ref)[0] == pytest.approx(c**2 / 2, rel=1e-12)

    def test_noiseless_reference_data(self):
        p = assemble_problem(uniform4_case(8, data_noise=False))
        eta, _ = hifi.potential(p, p.theta_ref)
        assert eta == pytest.approx(0.0, abs=1e-18)


class TestGradient:
    def test_zero_misfit_zero_gradient(self, uniform4_8):
        p = uniform4_8
        u = hifi.solve_state(p, p.theta_ref)
        exact = dataclasses.replace(p, y=p.observe(u))
        grad = hifi.evaluate(exact, p.theta_ref).grad_eta
        assert np.allclose(grad, 0.0)

    def test_uniform4_finite_differences(self, uniform4_8):
        rng = np.random.default_rng(5)
        for theta in draw_coercive(uniform4_8, rng, 3):
            grad = hifi.evaluate(uniform4_8, theta).grad_eta
            fd = fd_gradient(lambda t: hifi.potential(uniform4_8, t)[0], theta)
            assert np.abs(fd - grad).max() <= 1e-5 * np.abs(grad).max()

    def test_gaussian9_finite_differences(self, gaussian9_9):
        theta = np.zeros(9)
        grad = hifi.evaluate(gaussian9_9, theta).grad_eta
        fd = fd_gradient(lambda t: hifi.potential(gaussian9_9, t)[0], theta)
        assert np.abs(fd - grad).max() <= 1e-5 * np.abs(grad).max()


class TestSensitivities:
    def test_theta_independent_problem(self, constant_problem):
        p = constant_problem
        theta = np.zeros(1)
        op = hifi.Factorization(p, theta)
        ev = hifi.evaluate(p, theta, op)
        du, dpsi = hifi.solve_sensitivities(p, op, ev.u, ev.psi)
        assert np.allclose(du, 0.0)
        assert np.allclose(dpsi, 0.0)

    def test_state_sensitivity_finite_differences(self, uniform4_8):
        p = uniform4_8
        theta = np.array([0.5, -0.2, 0.3, 0.8])
        op = hifi.Factorization(p, theta)
        ev = hifi.evaluate(p, theta, op)
        du, _ = hifi.solve_sensitivities(p, op, ev.u, ev.psi)
        step = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = step
            fd = (hifi.solve_state(p, theta + e) - hifi.solve_state(p, theta - e)) / (2 * step)
            assert p.v_norm(du[j] - fd) <= 1e-4 * max(p.v_norm(fd), 1e-12)

    def test_gradient_identity_via_sensitivities(self, uniform4_8):
        p = uniform4_8
        rng = np.random.default_rng(6)
        theta = draw_coercive(p, rng, 1)[0]
        op = hifi.Factorization(p, theta)
        ev = hifi.evaluate(p, theta, op)
        grad = ev.grad_eta
        du, _ = hifi.solve_sensitivities(p, op, ev.u, ev.psi)
        misfit = p.misfit_weighted(p.y - p.observe(ev.u))
        via_chain = np.array([-float(misfit @ p.observe(du[j])) for j in range(4)])
        assert np.abs(grad - via_chain).max() <= 1e-8 * np.abs(grad).max()


def _count_calls(monkeypatch, owner, name):
    calls = {"n": 0}
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestFactorizationReuse:
    def test_single_factorization_per_theta(self, uniform4_8, monkeypatch):
        factorizations = _count_calls(monkeypatch, spla, "splu")
        solves = _count_calls(monkeypatch, hifi.Factorization, "solve")
        theta = uniform4_8.theta_ref
        op = hifi.Factorization(uniform4_8, theta)
        ev = hifi.evaluate(uniform4_8, theta, op)
        hifi.solve_sensitivities(uniform4_8, op, ev.u, ev.psi)
        assert factorizations["n"] == 1
        assert solves["n"] == 2 + 2 * uniform4_8.dim

    def test_non_coercive_theta_raises_before_factorizing(self, uniform4_8, monkeypatch):
        factorizations = _count_calls(monkeypatch, spla, "splu")
        with pytest.raises(CoercivityLost):
            hifi.Factorization(uniform4_8, np.full(4, -3.0))
        assert factorizations["n"] == 0

    def test_evaluate_bundles_everything(self, uniform4_8):
        ev = hifi.evaluate(uniform4_8, uniform4_8.theta_ref)
        assert ev.eta >= 0
        assert ev.grad_eta.shape == (4,)


class TestSymmetricFactorization:
    @pytest.fixture(params=["uniform4", "gaussian9"])
    def case(self, request, uniform4_8, gaussian9_9):
        if request.param == "uniform4":
            return uniform4_8, np.array([0.4, -0.3, 0.2, 0.1])
        return gaussian9_9, np.linspace(-1.0, 1.0, 9)

    def test_solves_match_colamd_reference(self, case):
        p, theta = case
        op = hifi.Factorization(p, theta)
        reference = spla.splu(op.A.tocsc())  # SuperLU's default COLAMD ordering
        b = np.random.default_rng(3).normal(size=p.n_dofs)
        x = op.solve(b)
        for trans in ("N", "T"):  # the operator is symmetric: one solve is both
            x_ref = reference.solve(b, trans=trans)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_diagonal_pivots_and_less_fill(self, case):
        p, theta = case
        op = hifi.Factorization(p, theta)
        colamd = spla.splu(op.A.tocsc())
        assert np.array_equal(op._lu.perm_r, op._lu.perm_c)
        assert op._lu.L.nnz + op._lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    @pytest.mark.parametrize("entry", ["evaluate", "potential"])
    def test_one_coefficient_evaluation_per_call(self, case, monkeypatch, entry):
        p, theta = case
        calls = _count_calls(monkeypatch, type(p), "eval_coefficients")
        getattr(hifi, entry)(p, theta)
        assert calls["n"] == 1


class TestFillReducingNumbering:
    """Assembly numbers the dofs by minimum degree once; each factorization
    then keeps that numbering and has the fill of ordering anew."""

    @pytest.fixture(scope="class", params=["uniform4-32", "gaussian9-63"])
    def case(self, request):
        if request.param == "uniform4-32":
            return assemble_problem(uniform4_case(32)), np.array([0.4, -0.3, 0.2, 0.1])
        return assemble_problem(gaussian9_case(63)), np.linspace(-1.0, 1.0, 9)

    @staticmethod
    def natural_mmd(p, theta):
        """The operator in increasing grid-node order, factorized with a
        minimum degree ordering of its own."""
        to_natural = np.argsort(p.free_dofs)
        A, f = p.operator(theta)
        lu = spla.splu(A[to_natural][:, to_natural].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        return lu, f[to_natural], p.free_dofs[to_natural]

    def test_one_natural_order_splu(self, case, monkeypatch):
        p, theta = case
        calls = []
        real = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(k) or real(*a, **k))
        hifi.Factorization(p, theta)
        assert [k["permc_spec"] for k in calls] == ["NATURAL"]

    def test_fill_equals_mmd_of_natural_numbering(self, case):
        p, theta = case
        lu = hifi.Factorization(p, theta)._lu
        reference, _, _ = self.natural_mmd(p, theta)
        assert lu.L.nnz + lu.U.nnz == reference.L.nnz + reference.U.nnz

    def test_state_on_mesh_nodes_matches_natural_solve(self, case):
        p, theta = case
        u = embed(p, hifi.solve_state(p, theta))
        reference, f, nodes = self.natural_mmd(p, theta)
        u_ref = np.zeros(p.n_dofs_raw)
        u_ref[nodes] = reference.solve(f)
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
