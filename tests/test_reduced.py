import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svrb import adaptive, hifi
from svrb.cases import assemble_problem, uniform4_case
from svrb.reduced import RBSolveFailed, ReducedModel, problem_fingerprint
from svrb.verify import build_small_rb, draw_coercive

from test_hifi import fd_gradient


def full_basis_model(problem, rng):
    """Enrich until both bases span the whole constrained space."""
    rm = ReducedModel.empty(problem)
    while rm.n_state < problem.n_dofs:
        theta = problem.prior.sample(rng, 1)[0]
        ev = hifi.evaluate(problem, theta)
        rm.enrich(problem, ev.u, ev.psi, theta)
        # random directions complete the span once snapshots saturate
        rm.enrich(problem, rng.normal(size=problem.n_dofs),
                  rng.normal(size=problem.n_dofs), theta)
    return rm


@pytest.fixture(scope="module")
def tiny_problem():
    return assemble_problem(uniform4_case(3))


@pytest.fixture(scope="module")
def tiny_full_rb(tiny_problem):
    return full_basis_model(tiny_problem, np.random.default_rng(0))


class TestEnrich:
    def test_deflation_on_repeat(self, uniform4_8):
        p = uniform4_8
        ev = hifi.evaluate(p, p.theta_ref)
        rm = ReducedModel.empty(p)
        rm.enrich(p, ev.u, ev.psi, p.theta_ref)
        assert (rm.n_state, rm.n_adjoint) == (1, 1)
        added = rm.enrich(p, ev.u, ev.psi, p.theta_ref)
        assert added == (False, False)
        assert (rm.n_state, rm.n_adjoint) == (1, 1)

    def test_snapshot_reproduction(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        for theta in rm.provenance:
            u_h = hifi.solve_state(p, theta)
            u_r = rm.reconstruct(rm.potential(p, theta)[2], "state")
            assert p.v_norm(u_h - u_r) < 1e-9 * p.v_norm(u_h)

    def test_block_consistency_against_projection(self, gaussian9_9):
        rm = build_small_rb(gaussian9_9, np.random.default_rng(1), 4)
        assert rm.verify_blocks(gaussian9_9) < 1e-9

    def test_orthonormality(self, uniform4_16, rb_uniform4_16):
        assert rb_uniform4_16.orthonormality_error(uniform4_16) < 1e-10

    def test_monotone_growth(self, uniform4_8):
        p = uniform4_8
        rng = np.random.default_rng(2)
        rm = ReducedModel.empty(p)
        sizes = []
        for theta in draw_coercive(p, rng, 6):
            ev = hifi.evaluate(p, theta)
            rm.enrich(p, ev.u, ev.psi, theta)
            sizes.append((rm.n_state, rm.n_adjoint))
            assert rm.orthonormality_error(p) < 1e-10
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))


@pytest.fixture(scope="module", params=["uniform4_8", "gaussian9_9"])
def enrich_problem(request):
    return request.getfixturevalue(request.param)


class TestEnrichmentSequences:
    """Incremental block updates match a direct projection along any
    sequence of snapshots, repeats (deflation) and arbitrary directions."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.sampled_from(["snapshot", "repeat", "random"]),
                          min_size=1, max_size=10))
    def test_invariants_hold_after_every_step(self, enrich_problem, seed, steps):
        p = enrich_problem
        rng = np.random.default_rng(seed)
        rm = ReducedModel.empty(p)
        u = psi = theta = None
        for step in steps:
            if step == "snapshot" or u is None:
                theta = draw_coercive(p, rng, 1)[0]
                ev = hifi.evaluate(p, theta)
                u, psi = ev.u, ev.psi
            elif step == "random":
                u, psi = rng.normal(size=p.n_dofs), rng.normal(size=p.n_dofs)
            rm.enrich(p, u, psi, theta)
            assert rm.orthonormality_error(p) < 1e-10
            assert rm.verify_blocks(p) < 1e-9


class TestReducedSolves:
    def test_full_basis_matches_hifi(self, tiny_problem, tiny_full_rb):
        p, rm = tiny_problem, tiny_full_rb
        rng = np.random.default_rng(3)
        for theta in draw_coercive(p, rng, 3):
            h = hifi.evaluate(p, theta)
            ev = rm.evaluate(p, theta)
            u_r = rm.reconstruct(ev.u_r, "state")
            assert p.v_norm(h.u - u_r) <= 1e-9 * max(p.v_norm(h.u), 1e-12)
            psi_r = rm.reconstruct(ev.psi_r, "adjoint")
            assert p.v_norm(h.psi - psi_r) <= 1e-8 * max(p.v_norm(h.psi), 1e-12)

    def test_empty_basis_raises(self, uniform4_8):
        rm = ReducedModel.empty(uniform4_8)
        with pytest.raises(RBSolveFailed, match="state: reduced basis is empty"):
            rm.potential(uniform4_8, uniform4_8.theta_ref)

    def test_theta_independent_exactness(self, constant_problem):
        p = constant_problem
        ev = hifi.evaluate(p, np.zeros(1))
        rm = ReducedModel.empty(p)
        rm.enrich(p, ev.u, ev.psi, np.zeros(1))
        u_r = rm.reconstruct(rm.potential(p, np.array([0.7]))[2], "state")
        assert p.v_norm(ev.u - u_r) < 1e-10 * p.v_norm(ev.u)

    def test_adjoint_zero_for_exact_data(self, uniform4_8):
        import dataclasses

        p = uniform4_8
        theta = p.theta_ref
        u = hifi.solve_state(p, theta)
        exact = dataclasses.replace(p, y=p.observe(u))
        ev = hifi.evaluate(exact, theta)
        rm = ReducedModel.empty(exact)
        rm.enrich(exact, ev.u, ev.psi + 1.0, theta)  # nonzero adjoint basis
        _, _, _, psi_r = rm.potential(exact, theta)
        # reconstruction roundoff is amplified by the noise precision, so the
        # reduced adjoint vanishes only to that scale
        assert np.abs(rm.reconstruct(psi_r, "adjoint")).max() < 1e-8


class TestDWR:
    def test_zero_at_snapshot(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = rm.provenance[2]
        _, _, u_r, psi_r = rm.potential(p, theta)
        assert abs(rm.dwr(p, theta, u_r, psi_r)) < 1e-9

    def test_full_space_identity(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        rng = np.random.default_rng(4)
        for theta in draw_coercive(p, rng, 3):
            ev = rm.evaluate(p, theta)
            u_h = hifi.solve_state(p, theta)
            e_u = u_h - rm.reconstruct(ev.u_r, "state")
            psi_r = rm.reconstruct(ev.psi_r, "adjoint")
            A, _ = p.operator(theta)
            paired = -float(psi_r @ (A @ e_u))
            scale = max(abs(ev.delta), abs(paired), 1e-6 * abs(ev.eta_r))
            assert abs(ev.delta - paired) <= 1e-10 * scale

    def test_zero_adjoint_gives_zero(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = p.theta_ref
        u_r = rm.potential(p, theta)[2]
        assert rm.dwr(p, theta, u_r, np.zeros(rm.n_adjoint)) == 0.0


class TestPotential:
    def test_snapshot_matches_hifi(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = rm.provenance[1]
        eta_h, _ = hifi.potential(p, theta)
        eta_r, eta_delta, _, _ = rm.potential(p, theta)
        assert eta_r == pytest.approx(eta_h, rel=1e-9)
        assert eta_delta == pytest.approx(eta_h, rel=1e-9)

    def test_corrected_equals_plain_plus_indicator(self, uniform4_16, rb_uniform4_16):
        ev = rb_uniform4_16.evaluate(uniform4_16, uniform4_16.theta_ref)
        assert ev.eta_delta == ev.eta_r + ev.delta

    def test_corrected_beats_plain_on_most_samples(self):
        # greedy over a prior ensemble, scored on a held-out test set; the
        # per-sample win rate climbs with basis size and saturates once the
        # basis resolves the test distribution
        p = assemble_problem(uniform4_case(32))
        from svrb.svgd import draw_prior

        train = draw_prior(p.prior, 64, 1)
        test = draw_coercive(p, np.random.default_rng(2), 64)
        rm = adaptive.initialize(p, train[0])
        adaptive.greedy_sweep(rm, p, train, tol=1e-12, max_basis=55)
        wins = total = 0
        for theta in test:
            eta_h, _ = hifi.potential(p, theta)
            eta_r, eta_delta, _, _ = rm.potential(p, theta)
            total += 1
            wins += abs(eta_h - eta_delta) <= abs(eta_h - eta_r)
        assert wins / total >= 0.9


class TestIncrementals:
    def test_zero_at_snapshot(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = rm.provenance[3]
        psi_hat = rm.evaluate(p, theta).psi_hat
        assert p.v_norm(rm.reconstruct(psi_hat, "adjoint")) < 1e-9

    def test_dense_oracle_full_basis(self, tiny_problem, tiny_full_rb):
        p, rm = tiny_problem, tiny_full_rb
        theta = draw_coercive(p, np.random.default_rng(5), 1)[0]
        ev = rm.evaluate(p, theta)
        cA, cF, _, _ = p.eval_coefficients(theta)
        Au = np.tensordot(cA, rm.Au, axes=1)
        Ap = np.tensordot(cA, rm.Ap, axes=1)
        Aup = np.tensordot(cA, rm.Aup, axes=1)
        fp = cF @ rm.fp
        psi_hat = np.linalg.solve(Ap, fp - Aup @ ev.u_r)
        assert np.allclose(psi_hat, ev.psi_hat, atol=1e-8 * max(1, np.abs(psi_hat).max()))
        prec = p.noise_precision
        resid = p.y - rm.Ou.T @ ev.u_r
        rhs = -(Aup.T @ ev.psi_r) + rm.Ou @ (prec * resid) - rm.Ou @ (prec * (rm.Op.T @ psi_hat))
        u_hat = np.linalg.solve(Au.T, rhs)
        assert np.allclose(u_hat, ev.u_hat, atol=1e-8 * max(1, np.abs(u_hat).max()))

    def test_zero_misfit_zero_adjoint_gives_zero_incremental_state(self):
        import dataclasses

        from svrb.cases import UniformBox, custom_case

        # unit noise so precision does not amplify snapshot roundoff
        p = assemble_problem(custom_case(
            6, diffusion=[1.0], load=[1.0], prior=UniformBox([-1.0], [1.0]),
            dim=1, noise_sigma=1.0))
        theta = np.zeros(1)
        ev = hifi.evaluate(p, theta)
        rm = ReducedModel.empty(p)
        rm.enrich(p, ev.u, ev.psi, theta)
        u_r = rm.potential(p, theta)[2]
        # data the reduced state observes exactly: zero misfit, so a zero reduced adjoint
        ev_r = rm.evaluate(dataclasses.replace(p, y=u_r @ rm.Ou), theta)
        assert np.array_equal(ev_r.psi_r, np.zeros(rm.n_adjoint))
        assert np.allclose(ev_r.u_hat, 0.0, atol=1e-12)


class TestGradients:
    def test_corrected_gradient_finite_differences(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        rng = np.random.default_rng(6)
        for theta in draw_coercive(p, rng, 3):
            ev = rm.evaluate(p, theta)
            fd = fd_gradient(lambda t: rm.potential(p, t)[1], theta)
            assert np.abs(fd - ev.grad_eta_delta).max() <= 1e-5 * np.abs(ev.grad_eta_delta).max()

    def test_plain_gradient_exact_on_shared_spaces(self, uniform4_8):
        # the adjoint shortcut differentiates the plain reduced potential
        # exactly when both bases span the same space
        p = uniform4_8
        rng = np.random.default_rng(7)
        rm = ReducedModel.empty(p)
        for theta in draw_coercive(p, rng, 3):
            ev = hifi.evaluate(p, theta)
            rm.enrich(p, ev.u, ev.psi, theta)
            rm.enrich(p, ev.psi, ev.u, theta)
        theta = draw_coercive(p, rng, 1)[0]
        ev = rm.evaluate(p, theta)
        fd = fd_gradient(lambda t: rm.potential(p, t)[0], theta)
        assert np.abs(fd - ev.grad_eta_r).max() <= 1e-5 * np.abs(ev.grad_eta_r).max()

    def test_theta_independent_gives_zero_gradients(self, constant_problem):
        p = constant_problem
        ev_h = hifi.evaluate(p, np.zeros(1))
        rm = ReducedModel.empty(p)
        rm.enrich(p, ev_h.u, ev_h.psi, np.zeros(1))
        ev = rm.evaluate(p, np.array([0.4]))
        assert np.allclose(ev.grad_eta_r, 0.0)
        assert np.allclose(ev.grad_eta_delta, 0.0)


class TestReconstruct:
    def test_zero_coefficients(self, uniform4_16, rb_uniform4_16):
        out = rb_uniform4_16.reconstruct(np.zeros(rb_uniform4_16.n_state), "state")
        assert np.allclose(out, 0.0)

    def test_unit_coordinate_returns_basis_column(self, rb_uniform4_16):
        rm = rb_uniform4_16
        e1 = np.zeros(rm.n_state)
        e1[0] = 1.0
        assert np.array_equal(rm.reconstruct(e1, "state"), rm.basis_u[:, 0])

    def test_project_reconstruct_roundtrip(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        member = rm.basis_u @ np.arange(1.0, rm.n_state + 1)
        coeffs = rm.basis_u.T @ (p.gram @ member)
        assert p.v_norm(rm.reconstruct(coeffs, "state") - member) < 1e-10 * p.v_norm(member)


class TestInvariantsAndPersistence:
    def test_galerkin_orthogonality(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        rng = np.random.default_rng(8)
        for theta in draw_coercive(p, rng, 3):
            u_r = rm.reconstruct(rm.potential(p, theta)[2], "state")
            A, f = p.operator(theta)
            residual = rm.basis_u.T @ (A @ u_r - f)
            assert np.abs(residual).max() < 1e-9 * max(1.0, np.abs(f).max())

    def test_corrected_error_identity(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        rng = np.random.default_rng(9)
        for theta in draw_coercive(p, rng, 3):
            ev = rm.evaluate(p, theta)
            h = hifi.evaluate(p, theta)
            eta_h = h.eta
            e_u = h.u - rm.reconstruct(ev.u_r, "state")
            e_psi = h.psi - rm.reconstruct(ev.psi_r, "adjoint")
            A, _ = p.operator(theta)
            obs_e = p.observe(e_u)
            rhs = -float(e_psi @ (A @ e_u)) - 0.5 * float(obs_e @ p.misfit_weighted(obs_e))
            lhs = eta_h - ev.eta_delta
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-6 * eta_h)

    def test_online_cost_independent_of_mesh(self):
        rng = np.random.default_rng(10)
        times = []
        for n in (32, 128):
            p = assemble_problem(uniform4_case(n))
            rm = build_small_rb(p, np.random.default_rng(12), 10)
            theta = draw_coercive(p, rng, 1)[0]
            rm.potential(p, theta)  # warm-up
            reps = [time.perf_counter()]
            for _ in range(50):
                rm.potential(p, theta)
                reps.append(time.perf_counter())
            times.append(min(np.diff(reps)))
        assert times[1] <= 2.0 * times[0], times

    def test_load_accepts_a_stored_deflation_tolerance(self, uniform4_16, rb_uniform4_16,
                                                       tmp_path):
        # rb.npz files of the same schema written with the former
        # ``deflation_tol`` knob carry it in their meta
        path = tmp_path / "rb.npz"
        rb_uniform4_16.save(path)
        with np.load(path) as stored:
            arrays = dict(stored)
        meta = json.loads(str(arrays["meta"]))
        assert "deflation_tol" not in meta
        arrays["meta"] = json.dumps({"deflation_tol": 1e-10, **meta})
        np.savez(path, **arrays)
        rm = ReducedModel.load(path)
        assert rm.fingerprint == problem_fingerprint(uniform4_16)
        assert np.array_equal(rm.Aup, rb_uniform4_16.Aup)

    @pytest.mark.parametrize("name, cut", [
        ("Au", lambda a: a[:, :-1, :-1]), ("Aup", lambda a: a[:, :, :-1]),
        ("fp", lambda a: a[:-1]), ("Op", lambda a: a[:, :-1]), ("basis_psi", lambda a: a[:-1]),
        ("Op", lambda a: a[0]), ("provenance", lambda a: a[:, :-1])],
        ids=["Au-order", "Aup-column", "fp-J_F", "Op-obs", "basis-dofs", "Op-ndim",
             "provenance-dim"])
    def test_load_refuses_arrays_that_disagree(self, rb_uniform4_16, tmp_path, name, cut):
        path = tmp_path / "rb.npz"
        rb_uniform4_16.save(path)
        with np.load(path) as stored:
            arrays = dict(stored)
        arrays[name] = cut(arrays[name])
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{name} has shape"):
            ReducedModel.load(path)

    def test_save_load_roundtrip(self, uniform4_16, rb_uniform4_16, tmp_path):
        p, rm = uniform4_16, rb_uniform4_16
        path = tmp_path / "rb.npz"
        rm.save(path)
        rm2 = ReducedModel.load(path)
        theta = p.theta_ref
        ev1, ev2 = rm.evaluate(p, theta), rm2.evaluate(p, theta)
        assert ev1.eta_delta == ev2.eta_delta
        assert np.array_equal(ev1.grad_eta_delta, ev2.grad_eta_delta)
        assert len(rm2.provenance) == len(rm.provenance)
