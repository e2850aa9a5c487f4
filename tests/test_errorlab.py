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
from svrb.reduced import ReducedModel
from svrb.svgd import draw_prior
from svrb.verify import build_small_rb, draw_coercive

from test_hifi import _count_calls


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
        rep = true_errors(uniform4_16, rb_uniform4_16, rb_uniform4_16.provenance[0])
        assert rep.e_u_V < 1e-9
        assert abs(rep.e_eta) < 1e-9 * max(rep.eta_h, 1.0)
        assert abs(rep.e_delta) < 1e-9 * max(rep.eta_h, 1.0)

    def test_corrected_error_identity(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = draw_coercive(p, np.random.default_rng(0), 1)[0]
        rep = true_errors(p, rm, theta)
        ev = rm.evaluate(p, theta)
        op = hifi.Factorization(p, theta)
        h = hifi.evaluate(p, theta, op)
        e_u = h.u - rm.reconstruct(ev.u_r, "state")
        e_psi = h.psi - rm.reconstruct(ev.psi_r, "adjoint")
        obs_e = p.observe(e_u)
        rhs = -float(e_psi @ (op.A @ e_u)) - 0.5 * float(obs_e @ p.misfit_weighted(obs_e))
        assert rep.e_delta == pytest.approx(rhs, rel=1e-9, abs=1e-9 * rep.eta_h)


def solve_sensitivities_by_lu(rm, problem, theta, u_r, psi_r):
    """The reduced sensitivities from freshly assembled reduced operators
    and ``np.linalg.solve``: the reference for the factored path."""
    cA, _, dcA, dcF = problem.eval_coefficients(theta)
    Au, Ap = (np.tensordot(cA, blocks, axes=1) for blocks in (rm.Au, rm.Ap))
    dAu, dAp = (np.tensordot(dcA.T, blocks, axes=1) for blocks in (rm.Au, rm.Ap))
    du = np.linalg.solve(Au, (dcF.T @ rm.fu - dAu @ u_r).T).T
    rhs_p = -(np.swapaxes(dAp, 1, 2) @ psi_r) - problem.misfit_weighted(du @ rm.Ou) @ rm.Op.T
    return du, np.linalg.solve(Ap.T, rhs_p.T).T


class TestSensitivities:
    @pytest.mark.parametrize("which", ["uniform4", "gaussian9"])
    def test_factored_solves_match_lu(self, which, uniform4_16, rb_uniform4_16, gaussian9_9):
        if which == "uniform4":
            p, rm = uniform4_16, rb_uniform4_16
        else:
            p = gaussian9_9
            rm = build_small_rb(p, np.random.default_rng(4), 4)
        for theta in draw_coercive(p, np.random.default_rng(7), 3):
            ev = rm.evaluate(p, theta)
            got = rm.sensitivities(p, theta, ev.u_r, ev.psi_r)
            for x, ref in zip(got, solve_sensitivities_by_lu(rm, p, theta, ev.u_r, ev.psi_r)):
                assert x.shape == ref.shape == (p.dim, ref.shape[1])
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class TestResiduals:
    def test_snapshot_state_residual_vanishes(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = rm.provenance[0]
        ev = rm.evaluate(p, theta)
        r_u, _, _, _ = residual_vectors(
            p, theta, rm.reconstruct(ev.u_r, "state"),
            rm.reconstruct(ev.psi_r, "adjoint"))
        assert p.dual_norm(r_u) < 1e-9

    def test_residual_dominates_error(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = draw_coercive(p, np.random.default_rng(1), 1)[0]
        rep = true_errors(p, rm, theta)
        assert rep.res_u_dual >= bound_constants(p, theta).alpha * rep.e_u_V

    def test_zero_adjoint_residual_is_misfit_functional(self, uniform4_16, rb_uniform4_16):
        p, rm = uniform4_16, rb_uniform4_16
        theta = p.theta_ref
        u_r_full = rm.reconstruct(rm.potential(p, theta)[2], "state")
        _, r_psi, _, _ = residual_vectors(p, theta, u_r_full, np.zeros(p.n_dofs))
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

    def test_corrupted_constant_fails(self, uniform4_16, rb_uniform4_16, monkeypatch):
        theta = draw_coercive(uniform4_16, np.random.default_rng(3), 1)[0]
        c = bound_constants(uniform4_16, theta)
        corrupted = dataclasses.replace(c, alpha=1e3 * c.alpha)
        monkeypatch.setattr(errorlab, "bound_constants", lambda problem, theta: corrupted)
        report = verify_bounds(uniform4_16, rb_uniform4_16, theta)
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


@pytest.fixture(scope="module")
def stack_setup(uniform4_16):
    p = uniform4_16
    rng = np.random.default_rng(7)
    snapshots = draw_coercive(p, rng, 4)
    thetas = draw_coercive(p, rng, 6)
    return p, snapshots, thetas


class TestStackedComparison:
    """The stacked paths against the row-by-row comparison they replace."""

    def test_compare_stack_matches_rows(self, stack_setup, rb_uniform4_16):
        p, _, thetas = stack_setup
        rm = rb_uniform4_16
        refs = [hifi.evaluate(p, theta) for theta in thetas]
        ev, u_r, psi_r, e_u, e_psi = errorlab.compare(
            p, rm, thetas, np.array([h.u for h in refs]), np.array([h.psi for h in refs]))
        for m, (theta, h) in enumerate(zip(thetas, refs)):
            ev_m = rm.evaluate(p, theta)
            scale = 1e-12 * max(1.0, abs(h.eta))
            assert abs(ev.eta_delta[m] - ev_m.eta_delta) <= scale
            assert np.allclose(u_r[m], rm.basis_u @ ev_m.u_r, rtol=1e-12, atol=1e-14)
            assert np.allclose(psi_r[m], rm.basis_psi @ ev_m.psi_r, rtol=1e-12, atol=1e-14)
            assert np.array_equal(e_u[m], h.u - u_r[m])
            assert np.array_equal(e_psi[m], h.psi - psi_r[m])

    def test_decay_study_matches_row_loop(self, stack_setup):
        p, snapshots, thetas = stack_setup
        rows = error_decay_study(p, snapshots, thetas)
        refs = [hifi.evaluate(p, theta) for theta in thetas]
        tol = 1e-12 * max(1.0, max(abs(h.eta) for h in refs))
        rm = ReducedModel.empty(p)
        for row, snap in zip(rows, snapshots):
            ev_snap = hifi.evaluate(p, snap)
            rm.enrich(p, ev_snap.u, ev_snap.psi, snap)
            cols = {k: [] for k in ("e_eta", "e_delta", "dwr", "e_u", "e_u_e_psi")}
            for theta, h in zip(thetas, refs):
                ev = rm.evaluate(p, theta)
                e_u = p.v_norm(h.u - rm.basis_u @ ev.u_r)
                e_psi = p.v_norm(h.psi - rm.basis_psi @ ev.psi_r)
                cols["e_eta"].append(abs(h.eta - ev.eta_r))
                cols["e_delta"].append(abs(h.eta - ev.eta_delta))
                cols["dwr"].append(abs(ev.delta))
                cols["e_u"].append(e_u)
                cols["e_u_e_psi"].append(e_u * e_psi)
            assert (row["n_state"], row["n_adjoint"]) == (rm.n_state, rm.n_adjoint)
            assert abs(row["mean_abs_e_eta"] - np.mean(cols["e_eta"])) <= tol
            assert abs(row["mean_abs_e_delta"] - np.mean(cols["e_delta"])) <= tol
            assert abs(row["mean_abs_dwr"] - np.mean(cols["dwr"])) <= tol
            assert row["mean_e_u_V"] == pytest.approx(np.mean(cols["e_u"]), rel=1e-9, abs=tol)
            assert row["mean_e_u_e_psi"] == pytest.approx(np.mean(cols["e_u_e_psi"]),
                                                          rel=1e-9, abs=tol)

    def test_decay_study_evaluates_once_per_stage(self, stack_setup, monkeypatch):
        p, snapshots, thetas = stack_setup
        calls = _count_calls(monkeypatch, ReducedModel, "evaluate")
        rows = error_decay_study(p, snapshots, thetas)
        assert calls["n"] == len(rows) == len(snapshots)

    def test_kl_estimate_matches_true_errors(self, decay_setup):
        p, rm, train, _ = decay_setup
        reps = [true_errors(p, rm, theta) for theta in train[:16]]
        rhs_r, rhs_d = kl_bound_estimate(p, rm, train[:16])
        for rhs, errs in ((rhs_r, [r.e_eta for r in reps]), (rhs_d, [r.e_delta for r in reps])):
            # potential-scale rounding, times the slope 1 + exp(e) of kl_terms
            tol = 1e-12 * max(1.0, max(r.eta_h for r in reps)) * (1.0 + np.exp(max(errs)))
            assert abs(rhs - np.mean([kl_terms(e) for e in errs])) <= tol

    def test_kl_estimate_reads_potentials_only(self, stack_setup, rb_uniform4_16, monkeypatch):
        p, _, thetas = stack_setup
        potentials = _count_calls(monkeypatch, hifi, "potential")
        evaluations = _count_calls(monkeypatch, hifi, "evaluate")
        gram = _count_calls(monkeypatch, type(p), "gram_solve")
        kl_bound_estimate(p, rb_uniform4_16, thetas)
        assert potentials["n"] == len(thetas)
        assert evaluations["n"] == 0 and gram["n"] == 0
