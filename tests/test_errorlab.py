import dataclasses

import numpy as np
import pytest

from svrb import adaptive, errorlab, hifi
from svrb.cases import assemble_problem, uniform4_case
from svrb.errorlab import (
    POINCARE,
    bound_constants,
    error_decay_study,
    kl_bound_estimate,
    kl_terms,
    residual_vectors,
    sample_discrepancy,
    true_errors,
    verify_bounds,
)
from svrb.fem import CoercivityLost
from svrb.svgd import draw_prior
from svrb.verify import draw_coercive


@pytest.fixture(scope="module")
def decay_setup():
    """Stationary greedy at n=32 shared by the tracking and KL tests."""
    p = assemble_problem(uniform4_case(32))
    train = draw_prior(p.prior, 64, 1)
    rm = adaptive.initialize(p, train[0])
    adaptive.greedy_sweep(rm, p, train, tol=1e-12, max_basis=45)
    rows = error_decay_study(p, rm.provenance, train)
    return p, rm, train, rows


class TestTrueErrors:
    def test_snapshot_errors_vanish(self, uniform4_16, rb_uniform4_16):
        rep = true_errors(uniform4_16, rb_uniform4_16, rb_uniform4_16.provenance[0],
                          with_gradients=False, constants=False)
        assert rep.e_u_V < 1e-9
        assert abs(rep.e_eta) < 1e-9 * max(rep.eta_h, 1.0)
        assert abs(rep.e_delta) < 1e-9 * max(rep.eta_h, 1.0)

    def test_corrected_error_identity(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = draw_coercive(p, np.random.default_rng(0), 1)[0]
        rep = true_errors(p, rm, theta, with_gradients=False, constants=False)
        ev = rm.evaluate(p, theta)
        op = hifi.Factorization(p, theta)
        u_h = op.solve(op.f)
        psi_h = op.solve(hifi.adjoint_rhs(p, u_h), transpose=True)
        e_u = u_h - rm.reconstruct(ev.u_r, "state")
        e_psi = psi_h - rm.reconstruct(ev.psi_r, "adjoint")
        obs_e = p.observe(e_u)
        rhs = -float(e_psi @ (op.A @ e_u)) - 0.5 * float(obs_e @ p.misfit_weighted(obs_e))
        assert rep.e_delta == pytest.approx(rhs, rel=1e-9, abs=1e-9 * rep.eta_h)


class TestResiduals:
    def test_snapshot_state_residual_vanishes(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = rm.provenance[0]
        ev = rm.evaluate(p, theta)
        r_u, _, _, _ = residual_vectors(
            p, rm, theta, rm.reconstruct(ev.u_r, "state"),
            rm.reconstruct(ev.psi_r, "adjoint"))
        assert p.dual_norm(r_u) < 1e-9

    def test_residual_dominates_error(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = draw_coercive(p, np.random.default_rng(1), 1)[0]
        rep = true_errors(p, rm, theta, with_gradients=False)
        assert rep.res_u_dual >= rep.constants.alpha * rep.e_u_V

    def test_zero_adjoint_residual_is_misfit_functional(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = p.theta_ref
        u_r_full = rm.reconstruct(rm.solve_state(p, theta), "state")
        _, r_psi, _, _ = residual_vectors(p, rm, theta, u_r_full,
                                          np.zeros(p.n_dofs))
        misfit = p.obs_matrix @ p.misfit_weighted(p.y - p.observe(u_r_full))
        assert np.allclose(r_psi, -misfit)


class TestConstants:
    def test_unit_field(self, constant_problem):
        c = bound_constants(constant_problem, np.zeros(1))
        assert c.alpha == pytest.approx(1.0 / (1.0 + POINCARE**2))
        assert c.gamma == pytest.approx(1.0)

    def test_gaussian9_origin(self, gaussian9_9):
        c = bound_constants(gaussian9_9, np.zeros(9))
        assert c.gamma == pytest.approx(1.0)
        assert c.alpha == pytest.approx(c.gamma / (1.0 + POINCARE**2))

    def test_cy_linear_in_data(self, uniform4_8):
        c1 = bound_constants(uniform4_8, uniform4_8.theta_ref)
        doubled = dataclasses.replace(uniform4_8, y=2.0 * uniform4_8.y)
        c2 = bound_constants(doubled, uniform4_8.theta_ref)
        assert c2.C_y == pytest.approx(2.0 * c1.C_y)

    def test_non_coercive_raises(self, uniform4_8):
        with pytest.raises(CoercivityLost):
            bound_constants(uniform4_8, -np.sqrt(3.0) * np.ones(4))


class TestVerifyBounds:
    def test_snapshot_all_pass(self, uniform4_16, rb_uniform4_16):
        report = verify_bounds(uniform4_16, rb_uniform4_16,
                               rb_uniform4_16.provenance[1])
        assert report.all_passed

    def test_random_theta_all_pass(self, uniform4_16, rb_uniform4_16):
        for theta in draw_coercive(uniform4_16, np.random.default_rng(2), 4):
            report = verify_bounds(uniform4_16, rb_uniform4_16, theta)
            assert report.all_passed, [c.name for c in report.failed()]

    def test_corrupted_constant_fails(self, uniform4_16, rb_uniform4_16):
        theta = draw_coercive(uniform4_16, np.random.default_rng(3), 1)[0]
        c = bound_constants(uniform4_16, theta)
        corrupted = dataclasses.replace(c, alpha=1e3 * c.alpha)
        report = verify_bounds(uniform4_16, rb_uniform4_16, theta,
                               constants=corrupted)
        assert not report.all_passed


class TestKLBound:
    def test_terms_closed_form(self):
        assert kl_terms(np.log(2.0)) == pytest.approx(np.log(2.0) + 1.0)
        assert kl_terms(0.0) == 0.0
        assert kl_terms(701.0) == np.inf

    def test_exact_model_gives_zero(self, uniform4_16, rb_uniform4_16):
        rhs_r, rhs_d = kl_bound_estimate(uniform4_16, rb_uniform4_16,
                                         np.array(rb_uniform4_16.provenance))
        assert rhs_r < 1e-8
        assert rhs_d < 1e-8

    def test_corrected_bound_smaller_on_converged_model(self, decay_setup):
        p, rm, train, _ = decay_setup
        samples = train[:16]
        rhs_r, rhs_d = kl_bound_estimate(p, rm, samples)
        assert rhs_d <= rhs_r


class TestSampleDiscrepancy:
    def test_identical_trajectories(self):
        traj = np.random.default_rng(4).normal(size=(5, 8, 3))
        mx, mn = sample_discrepancy(traj, traj)
        assert np.all(mx == 0) and np.all(mn == 0)

    def test_shared_initialization(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 6, 2))
        b = a.copy()
        b[1:] += rng.normal(size=(3, 6, 2))
        mx, _ = sample_discrepancy(a, b)
        assert mx[0] == 0 and np.all(mx[1:] > 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sample_discrepancy(np.zeros((2, 3, 1)), np.zeros((3, 3, 1)))


class TestDecayStudy:
    def test_row_count_matches_stages(self, decay_setup):
        _, rm, _, rows = decay_setup
        assert len(rows) == len(rm.provenance)

    def test_asymptotic_tracking(self, decay_setup):
        # the potential error tracks the state-error surrogate and the
        # corrected error tracks the product surrogate, in log scale
        _, _, _, rows = decay_setup
        keep = [r for r in rows if r["mean_abs_e_eta"] > 1e-14]
        log_e = np.log10([r["mean_abs_e_eta"] for r in keep])
        log_b = np.log10([r["mean_e_u_V"] for r in keep])
        assert np.corrcoef(log_e, log_b)[0, 1] > 0.9
        keep = [r for r in rows if r["mean_abs_e_delta"] > 1e-14]
        log_d = np.log10([r["mean_abs_e_delta"] for r in keep])
        log_p = np.log10([r["mean_e_u_e_psi"] for r in keep])
        assert np.corrcoef(log_d, log_p)[0, 1] > 0.9

    def test_monotone_stage_sizes(self, decay_setup):
        _, _, _, rows = decay_setup
        sizes = [r["n_state"] for r in rows]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
