"""The stacked online path against row-by-row evaluation of the same parameters."""

import numpy as np
import pytest

from svrb import hifi
from svrb.adaptive import greedy_sweep, initialize
from svrb.backends import RBBackend
from svrb.cases import AffineTerm, UniformBox, UnsupportedCoefficient, assemble_problem, custom_case
from svrb.fem import CoercivityLost
from svrb.verify import build_small_rb, draw_coercive

from test_hifi import _count_calls

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

    def test_single_parameter_returns_scalars(self, case):
        p, rm, thetas = case
        eta_r, eta_delta, u_r, psi_r = rm.potential(p, thetas[0])
        assert np.ndim(eta_r) == 0 and np.ndim(eta_delta) == 0
        assert u_r.shape == (rm.n_state,) and psi_r.shape == (rm.n_adjoint,)
        ev = rm.evaluate(p, thetas[0])
        assert np.ndim(ev.eta_delta) == 0 and ev.grad_eta_delta.shape == (p.dim,)
        assert np.ndim(rm.dwr(p, thetas[0], u_r, psi_r)) == 0


def reference_sweep(rm, problem, particles, tol, max_basis=500, stagnation_drop=0.1):
    """The greedy sweep with every indicator taken one parameter at a time."""
    excluded, last_selected, order = set(), {}, []
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
        try:
            ev = hifi.evaluate(problem, theta)
        except CoercivityLost:
            excluded.add(pick)
            continue
        rm.enrich(problem, ev.u, ev.psi, theta)
        order.append(pick)


def test_greedy_sweep_enriches_like_row_loop(case):
    p, _, _ = case
    particles = p.prior.sample(np.random.default_rng(5), 16)
    rm_batch, rm_rows = initialize(p, particles[0]), initialize(p, particles[0])
    greedy_sweep(rm_batch, p, particles, 1e-4)
    order = reference_sweep(rm_rows, p, particles, 1e-4)
    assert len(order) > 2
    assert np.array_equal(np.array(rm_batch.provenance), np.array(rm_rows.provenance))
    assert [int(np.flatnonzero((particles == q).all(axis=1))[0])
            for q in rm_batch.provenance[1:]] == order


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


@pytest.mark.parametrize("method", ["evaluate_batch", "potential_batch"])
def test_rb_backend_evaluates_coefficients_once_per_batch(case, monkeypatch, method):
    p, rm, thetas = case
    coeffs = p.eval_coefficients(thetas)
    calls = _count_calls(monkeypatch, type(p), "eval_coefficients")
    getattr(RBBackend(p, rm), method)(thetas)
    assert calls["n"] == 1
    # handing the online pass the coefficients changes no bit of its result
    on_own, shared = rm.evaluate(p, thetas), rm.evaluate(p, thetas, coeffs)
    for name in ("eta_delta", "grad_eta_delta"):
        assert np.array_equal(getattr(on_own, name), getattr(shared, name))


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
