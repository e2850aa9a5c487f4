"""The stacked online path against row-by-row evaluation of the same parameters."""

import numpy as np
import pytest

from svrb import hifi
from svrb.adaptive import greedy_sweep, initialize
from svrb.backends import RBBackend
from svrb.cases import AffineTerm, UniformBox, UnsupportedCoefficient, assemble_problem, custom_case
from svrb.fem import CoercivityLost
from svrb.reduced import RBSolveFailed, ReducedModel
from svrb.svgd import draw_prior
from svrb.verify import build_small_rb, draw_coercive

from test_hifi import _count_calls
from test_online_reuse import fresh

RTOL = 1e-12


@pytest.fixture(scope="module", params=["uniform4", "gaussian9"])
def case(request, uniform4_8, gaussian9_9):
    """A problem, a small reduced model on it and a coercive parameter stack."""
    p = uniform4_8 if request.param == "uniform4" else gaussian9_9
    rng = np.random.default_rng(21)
    return p, build_small_rb(p, rng, 4), draw_coercive(p, rng, 7)


def assert_rows_match(stacked, rows):
    rows = np.array(rows)
    assert stacked.shape == rows.shape
    assert np.abs(stacked - rows).max() <= RTOL * np.abs(rows).max()


class TestStackMatchesRows:
    def test_coefficients(self, case):
        p, _, thetas = case
        stacked = p.eval_coefficients(thetas)
        for k, part in enumerate(stacked):
            assert part.shape[0] == len(thetas)
            assert_rows_match(part, [p.eval_coefficients(t)[k] for t in thetas])

    def test_coercivity_bounds(self, case):
        p, _, thetas = case
        assert_rows_match(p.conservative_field_min(thetas),
                          [p.conservative_field_min(t) for t in thetas])
        assert_rows_match(p.field_range(thetas)[0], [p.field_range(t)[0] for t in thetas])

    def test_potentials_and_dwr(self, case):
        p, rm, thetas = case
        eta_r, eta_delta, u_r, psi_r = rm.potential(p, thetas)
        rows = [rm.potential(p, t) for t in thetas]
        assert_rows_match(eta_r, [r[0] for r in rows])
        assert_rows_match(eta_delta, [r[1] for r in rows])
        assert_rows_match(rm.dwr(p, thetas, u_r, psi_r),
                          [rm.dwr(p, t, r[2], r[3]) for t, r in zip(thetas, rows)])

    def test_evaluate(self, case):
        p, rm, thetas = case
        ev = rm.evaluate(p, thetas)
        rows = [rm.evaluate(p, t) for t in thetas]
        for name in ("eta_r", "delta", "eta_delta", "grad_eta_r", "grad_eta_delta",
                     "u_r", "psi_r", "u_hat", "psi_hat"):
            assert_rows_match(getattr(ev, name), [getattr(r, name) for r in rows])

    def test_one_online_pass_behind_every_reader(self, case):
        # potential, evaluate and the greedy indicator read the same online pass
        p, rm, thetas = case
        eta_r, eta_delta, u_r, psi_r = rm.potential(p, thetas)
        ev = rm.evaluate(p, thetas)
        on = rm._solve_online(p, thetas)  # the indicator's pass
        for name, got in (("u_r", u_r), ("psi_r", psi_r), ("eta_r", eta_r)):
            assert np.array_equal(got, getattr(ev, name))
            assert np.array_equal(got, getattr(on, name))
        assert np.array_equal(on.delta, ev.delta)
        assert np.array_equal(eta_delta, ev.eta_delta)
        assert np.array_equal(rm.dwr(p, thetas, u_r, psi_r), ev.delta)
        n_state = rm.n_state
        sweep = greedy_sweep(rm, p, thetas, tol=np.inf)
        assert rm.n_state == n_state and sweep.n_enriched == 0
        assert sweep.max_indicator == np.abs(ev.delta).max()

    def test_single_parameter_returns_scalars(self, case):
        p, rm, thetas = case
        eta_r, eta_delta, u_r, psi_r = rm.potential(p, thetas[0])
        assert np.ndim(eta_r) == 0 and np.ndim(eta_delta) == 0
        assert u_r.shape == (rm.n_state,) and psi_r.shape == (rm.n_adjoint,)
        ev = rm.evaluate(p, thetas[0])
        assert np.ndim(ev.eta_delta) == 0 and ev.grad_eta_delta.shape == (p.dim,)
        assert np.ndim(rm.dwr(p, thetas[0], u_r, psi_r)) == 0


def dense_reference(rm, p, theta):
    """Every online quantity at one parameter from the assembled reduced
    matrices and ``np.linalg.solve``, written out from the definitions."""
    cA, cF, dcA, dcF = p.eval_coefficients(theta)
    Au, Ap, Aup = (np.tensordot(cA, blocks, axes=1) for blocks in (rm.Au, rm.Ap, rm.Aup))
    fu, fp = cF @ rm.fu, cF @ rm.fp
    u = np.linalg.solve(Au, fu)
    weighted = p.misfit_weighted(p.y - u @ rm.Ou)
    psi = np.linalg.solve(Ap.T, weighted @ rm.Op.T)
    delta = psi @ (Aup @ u) - psi @ fp
    psi_hat = np.linalg.solve(Ap, fp - Aup @ u)
    rhs = -Aup.T @ psi + weighted @ rm.Ou.T - p.misfit_weighted(psi_hat @ rm.Op) @ rm.Ou.T
    u_hat = np.linalg.solve(Au.T, rhs)
    grad_r = (dcA.T @ np.array([psi @ blk @ u for blk in rm.Aup])
              - dcF.T @ np.array([psi @ f for f in rm.fp]))
    corr = np.array([u_hat @ bu @ u + psi @ bp @ psi_hat for bu, bp in zip(rm.Au, rm.Ap)])
    grad_delta = grad_r + dcA.T @ corr - dcF.T @ np.array([u_hat @ f for f in rm.fu])
    eta_r = 0.5 * float((p.y - u @ rm.Ou) @ weighted)
    return dict(eta_r=eta_r, delta=delta, eta_delta=eta_r + delta,
                grad_eta_r=grad_r, grad_eta_delta=grad_delta)


class TestCholeskyPath:
    """The online pass factors each reduced operator once by Cholesky and
    reuses the factor; it agrees with a per-particle dense LU reference."""

    def test_reduced_operators_are_spd(self, case):
        p, rm, thetas = case
        for blocks in (rm.Au, rm.Ap):
            assert np.array_equal(blocks, np.swapaxes(blocks, 1, 2))
        cA = p.eval_coefficients(thetas)[0]
        for blocks in (rm.Au, rm.Ap):
            assert np.linalg.eigvalsh(np.tensordot(cA, blocks, axes=1)).min() > 0

    def test_matches_dense_reference(self, case):
        p, rm, thetas = case
        ev = rm.evaluate(p, thetas)
        eta_r, eta_delta, _, _ = rm.potential(p, thetas)
        refs = [dense_reference(rm, p, theta) for theta in thetas]
        ref = {k: np.array([r[k] for r in refs]) for k in refs[0]}
        for got in (ev.eta_r, eta_r):
            assert np.all(np.abs(got - ref["eta_r"]) <= RTOL * np.abs(ref["eta_r"]))
        for got in (ev.eta_delta, eta_delta):
            assert np.all(np.abs(got - ref["eta_delta"]) <= RTOL * np.abs(ref["eta_delta"]))
        assert np.all(np.abs(ev.delta - ref["delta"]) <= RTOL * np.abs(ref["eta_r"]))
        for name in ("grad_eta_r", "grad_eta_delta"):
            err = np.linalg.norm(getattr(ev, name) - ref[name], axis=1)
            assert np.all(err <= RTOL * np.linalg.norm(ref[name], axis=1))

    @pytest.mark.parametrize("which", ["state", "adjoint"])
    def test_operator_not_positive_definite_raises(self, case, which):
        p, rm, thetas = case
        blocks = dict(Au=rm.Au, Ap=rm.Ap)
        key = "Au" if which == "state" else "Ap"
        blocks[key] = -blocks[key]  # symmetric negative definite at every parameter
        bad = ReducedModel(rm.basis_u, rm.basis_psi, blocks["Au"], blocks["Ap"], rm.Aup,
                           rm.fu, rm.fp, rm.Ou, rm.Op, rm.provenance)
        for call in (bad.potential, bad.evaluate):
            with pytest.raises(RBSolveFailed, match=f"{which}: .*not positive definite"):
                call(p, thetas)


def rejected_rows(problem, particles):
    """Indices of the rows that ``check_coercive`` rejects, each checked alone."""
    rejected = []
    for m, theta in enumerate(particles):
        try:
            problem.check_coercive(theta)
        except CoercivityLost:
            rejected.append(m)
    return rejected


def reference_sweep(rm, problem, particles, tol, max_basis=500, stagnation_drop=0.1):
    """The greedy sweep with every indicator taken one parameter at a time,
    after the rows ``check_coercive`` rejects are excluded."""
    excluded, last_selected, order = set(rejected_rows(problem, particles)), {}, []
    while True:
        vals = np.full(len(particles), -np.inf)
        for m, theta in enumerate(particles):
            if m not in excluded:
                _, _, u_r, psi_r = rm.potential(problem, theta)
                vals[m] = abs(rm.dwr(problem, theta, u_r, psi_r))
        if vals.max() <= tol or rm.n_state >= max_basis or rm.n_adjoint >= max_basis:
            return order
        pick = int(np.argmax(vals))
        theta = particles[pick]
        key = theta.tobytes()
        seen = any(np.array_equal(theta, q) for q in rm.provenance)
        if seen and key in last_selected and vals[pick] > (1 - stagnation_drop) * last_selected[key]:
            return order
        last_selected[key] = vals[pick]
        ev = hifi.evaluate(problem, theta)
        rm.enrich(problem, ev.u, ev.psi, theta)
        order.append(pick)


def assert_sweep_like_row_loop(p, particles, tol):
    """The greedy sweep enriches as the row loop does; returns its skipped rows,
    which are every row ``check_coercive`` rejects, in order."""
    rm_batch, rm_rows = initialize(p, particles[0]), initialize(p, particles[0])
    sweep = greedy_sweep(rm_batch, p, particles, tol)
    order = reference_sweep(rm_rows, p, particles, tol)
    assert len(order) > 2
    assert sweep.skipped == rejected_rows(p, particles)
    assert np.array_equal(np.array(rm_batch.provenance), np.array(rm_rows.provenance))
    assert [int(np.flatnonzero((particles == q).all(axis=1))[0])
            for q in rm_batch.provenance[1:]] == order
    return sweep.skipped


def test_greedy_sweep_enriches_like_row_loop(case):
    p, _, _ = case
    assert_sweep_like_row_loop(p, p.prior.sample(np.random.default_rng(5), 16), 1e-4)


@pytest.mark.parametrize("seed, skipped", [(0, [29, 39]), (2, [26, 37, 46, 54]), (3, [53])])
def test_greedy_sweep_skips_non_coercive_draws_like_row_loop(uniform4_32, seed, skipped):
    # the sampler's M=64 draws at these seeds hold non-coercive particles
    particles = draw_prior(uniform4_32.prior, 64, seed)
    assert assert_sweep_like_row_loop(uniform4_32, particles, 1e-2) == skipped


def test_rb_backend_batch_guards_coercivity(uniform4_8):
    p = uniform4_8
    rm = build_small_rb(p, np.random.default_rng(3), 3)
    backend = RBBackend(p, rm)
    # the cosine modes all equal one near the origin corner, where the
    # field is about 5 - 4 * 1.7 < 0
    stack = np.array([p.theta_ref, -1.7 * np.ones(4)])
    with pytest.raises(CoercivityLost):
        backend.evaluate_batch(stack)
    with pytest.raises(CoercivityLost):
        backend.potential_batch(stack)
    etas, grads = backend.evaluate_batch(stack[:1])
    assert etas.shape == (1,) and grads.shape == (1, 4)
    assert backend.n_evaluations == 1


def test_reduced_model_guards_coercivity(uniform4_8):
    # unguarded, potential at the bad corner gave (1457.6, 3515.1) on this model
    p = uniform4_8
    rm = build_small_rb(p, np.random.default_rng(3), 3)
    bad = -1.7 * np.ones(4)
    for call in (rm.potential, rm.evaluate):
        for theta in (bad, np.array([p.theta_ref, bad])):
            with pytest.raises(CoercivityLost) as lost:
                call(p, theta)
            assert np.array_equal(lost.value.theta, bad)


@pytest.mark.parametrize("method", ["evaluate_batch", "potential_batch"])
def test_rb_backend_evaluates_coefficients_once_per_batch(case, monkeypatch, method):
    p, rm, thetas = case
    calls = _count_calls(monkeypatch, type(p), "eval_coefficients")
    getattr(RBBackend(p, fresh(rm)), method)(thetas)
    assert calls["n"] == 1


def one_theta_case(c, dc):
    return custom_case(4, diffusion=[AffineTerm(lambda x: np.ones(len(x)), c, dc)],
                       load=[1.0], prior=UniformBox([0.5], [2.0]), dim=1,
                       theta_ref=np.ones(1))


class TestStackedMapsRequired:
    def test_map_that_fails_on_a_stack(self):
        case = one_theta_case(lambda theta: float(theta[0]), lambda theta: np.eye(1)[0])
        with pytest.raises(UnsupportedCoefficient, match="stack"):
            assemble_problem(case)

    def test_map_that_misreads_a_stack(self):
        # theta[0] is the first row of a stack, not the first component
        case = one_theta_case(lambda theta: theta[0], lambda theta: np.ones_like(theta))
        with pytest.raises(UnsupportedCoefficient, match="stack"):
            assemble_problem(case)

    def test_stacked_map_accepted(self):
        p = assemble_problem(one_theta_case(lambda theta: theta[..., 0],
                                            lambda theta: np.ones_like(theta)))
        cA, _, dcA, _ = p.eval_coefficients(np.array([[0.5], [1.5]]))
        assert np.array_equal(cA, [[0.5], [1.5]])
        assert np.array_equal(dcA, np.ones((2, 1, 1)))
