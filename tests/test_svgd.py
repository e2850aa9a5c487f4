import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from svrb.backends import GaussianBackend
from svrb.cases import StandardGaussian, UniformBox
from svrb.fem import CoercivityLost
from svrb.svgd import (
    NumericalAbort,
    SVGDConfig,
    kernel_and_grad,
    line_search,
    median_bandwidth,
    prior_score,
    stopping_indicator,
    svgd_direction,
    svgd_run,
)

from test_hifi import fd_gradient


class TestPriorScore:
    def test_gaussian_at_origin(self):
        assert np.allclose(prior_score(StandardGaussian(3), np.zeros(3)), 0.0)

    def test_gaussian_at_unit_vector(self):
        e1 = np.eye(3)[0]
        assert np.allclose(prior_score(StandardGaussian(3), e1), -e1)

    def test_uniform_interior(self):
        prior = UniformBox([-1, -1], [1, 1])
        assert np.allclose(prior_score(prior, np.array([0.3, -0.7])), 0.0)

    def test_uniform_box_requires_ordered_bounds(self):
        from svrb.fem import ConfigurationError

        with pytest.raises(ConfigurationError):
            UniformBox([1.0, -1.0], [0.5, 1.0])


class TestBandwidth:
    def test_two_particles(self):
        delta = 0.8
        particles = np.array([[0.0], [delta]])
        assert median_bandwidth(particles) == pytest.approx(delta**2 / np.log(2))

    def test_single_particle_fallback(self):
        assert median_bandwidth(np.array([[1.0, 2.0]])) == 1.0

    def test_coincident_particles_fallback(self):
        assert median_bandwidth(np.zeros((4, 2))) == 1.0

    def test_four_collinear(self):
        # pairwise distances {1,1,1,2,2,3}: median 1.5
        particles = np.arange(4.0)[:, None]
        assert median_bandwidth(particles) == pytest.approx(1.5**2 / np.log(4))


class TestKernel:
    def test_self_kernel(self):
        theta = np.array([0.4, -1.2])
        k, grad = kernel_and_grad(theta, theta, h=0.7)
        assert k == 1.0
        assert np.allclose(grad, 0.0)

    def test_unit_exponent(self):
        h = 0.9
        theta = np.zeros(2)
        other = np.array([np.sqrt(h), 0.0])
        k, _ = kernel_and_grad(theta, other, h)
        assert k == pytest.approx(np.exp(-1.0))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(0)
        theta, other = rng.normal(size=2), rng.normal(size=2)
        h = 1.3
        _, grad = kernel_and_grad(theta, other, h)
        fd = fd_gradient(lambda t: kernel_and_grad(t, other, h)[0], theta)
        assert np.allclose(grad, fd, rtol=1e-6)


class TestDirection:
    def test_single_particle_is_score(self):
        particles = np.array([[0.5, -0.5]])
        scores = np.array([[2.0, 3.0]])
        q = svgd_direction(particles, scores, h=1.0)
        assert np.allclose(q, scores)

    def test_identical_particles_share_score(self):
        particles = np.zeros((2, 3))
        s = np.array([1.0, -2.0, 0.5])
        q = svgd_direction(particles, np.vstack([s, s]), h=1.0)
        assert np.allclose(q, np.vstack([s, s]))

    def test_against_double_loop(self):
        rng = np.random.default_rng(1)
        particles = rng.normal(size=(3, 2))
        scores = rng.normal(size=(3, 2))
        h = 0.8
        q = svgd_direction(particles, scores, h)
        expected = np.zeros_like(q)
        for n in range(3):
            for m in range(3):
                k, gk = kernel_and_grad(particles[m], particles[n], h)
                expected[n] += scores[m] * k + gk
        expected /= 3
        assert np.allclose(q, expected)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        particles = rng.normal(size=(5, 3))
        scores = rng.normal(size=(5, 3))
        perm = rng.permutation(5)
        q = svgd_direction(particles, scores, 1.1)
        q_perm = svgd_direction(particles[perm], scores[perm], 1.1)
        assert np.allclose(q[perm], q_perm)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8), d=st.integers(1, 5))
    def test_permutation_and_translation_equivariance(self, data, m, d):
        values = st.floats(-3.0, 3.0)
        particles = data.draw(arrays(float, (m, d), elements=values))
        scores = data.draw(arrays(float, (m, d), elements=values))
        shift = data.draw(arrays(float, (d,), elements=st.floats(-10.0, 10.0)))
        perm = np.array(data.draw(st.permutations(range(m))), dtype=int)
        h = data.draw(st.floats(0.1, 10.0))
        q = svgd_direction(particles, scores, h)
        tol = 1e-9 * (1.0 + np.abs(q).max())
        assert np.allclose(svgd_direction(particles[perm], scores[perm], h), q[perm],
                           rtol=0, atol=tol)
        # the kernel sees only differences, so a rigid shift leaves every direction
        assert np.allclose(svgd_direction(particles + shift, scores, h), q, rtol=0, atol=tol)

    def test_repulsion_pushes_apart(self):
        particles = np.array([[-0.5], [0.5]])
        q = svgd_direction(particles, np.zeros((2, 1)), h=1.0)
        assert q[0, 0] < 0 < q[1, 0]


class TestStoppingIndicator:
    def test_zero(self):
        assert stopping_indicator(np.zeros((4, 2))) == 0.0

    def test_single_row(self):
        assert stopping_indicator(np.array([[3.0, 4.0]])) == 5.0

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(7, 4))
        expected = max(np.sqrt((row**2).sum()) for row in q)
        assert stopping_indicator(q) == pytest.approx(expected)


class TestLineSearch:
    def test_zero_direction_accepts_initial(self):
        backend = GaussianBackend(np.zeros(1))
        alpha, exhausted, n_evals = line_search(
            np.array([[1.0]]), np.zeros((1, 1)), backend.potential_batch, None, 0.7)
        assert (alpha, exhausted, n_evals) == (0.7, False, 0)

    def test_quadratic_accepts_unit_step(self):
        backend = GaussianBackend(np.zeros(1))
        alpha, exhausted, _ = line_search(
            np.array([[1.0]]), np.array([[-1.0]]), backend.potential_batch, None, 1.0)
        assert alpha == 1.0 and not exhausted

    def test_uphill_direction_exhausts(self):
        potential = lambda thetas: thetas[:, 0]  # merit increases for any step
        alpha, exhausted, _ = line_search(
            np.array([[0.0]]), np.array([[1.0]]), potential, None, 1.0,
            max_backtracks=10)
        assert exhausted
        assert alpha == pytest.approx(1.0 / 2**10)

    def test_failing_trial_counts_as_infinite(self):
        # descent direction toward the mode at 2, but evaluations past 0.5
        # fail; the search must back off below the failure threshold
        def guarded(thetas):
            bad = thetas[:, 0] > 0.5
            if bad.any():
                raise CoercivityLost(thetas[bad][0], -1.0, 0.0)
            return (thetas[:, 0] - 2.0) ** 2 / 2

        alpha, exhausted, _ = line_search(
            np.array([[0.4]]), np.array([[1.0]]), guarded, None, 1.0)
        assert not exhausted
        assert 0.4 + alpha <= 0.5 + 1e-12

    def test_one_failing_particle_fails_the_trial(self):
        # the second particle crosses the failure threshold first; the whole
        # trial counts as infinite merit, so the step backs off for both
        def guarded(thetas):
            if np.any(thetas[:, 0] > 1.0):
                raise CoercivityLost(thetas[0], -1.0, 0.0)
            return (thetas[:, 0] - 3.0) ** 2 / 2

        particles = np.array([[0.0], [0.9]])
        alpha, exhausted, _ = line_search(particles, np.ones((2, 1)), guarded, None, 1.0)
        assert not exhausted
        assert 0.9 + alpha <= 1.0

    def test_reference_failure_is_a_numerical_abort(self):
        def failing(thetas):
            raise CoercivityLost(thetas[0], -1.0, 0.0)

        with pytest.raises(NumericalAbort, match="reference merit"):
            line_search(np.zeros((2, 1)), np.ones((2, 1)), failing, None, 1.0)


class TestRun:
    def test_infinite_tolerance_returns_prior(self):
        prior = StandardGaussian(2)
        cfg = SVGDConfig(n_particles=8, max_steps=50, tol=np.inf, seed=5)
        ens, log = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg)
        assert ens.iteration == 0
        assert len(log.records) == 0
        expected = prior.sample(np.random.default_rng(5), 8)
        assert np.array_equal(ens.particles, expected)

    def test_zero_steps_returns_prior(self):
        prior = StandardGaussian(2)
        cfg = SVGDConfig(n_particles=4, max_steps=0, tol=1e-3, seed=6)
        ens, log = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg)
        assert ens.iteration == 0
        assert len(log.snapshots) == 1

    def test_single_particle_finds_mode(self):
        cfg = SVGDConfig(n_particles=1, max_steps=200, tol=1e-8, seed=7)
        mode = np.array([2.5])
        ens, _ = svgd_run(GaussianBackend(mode), None, cfg,
                          initial_particles=np.array([[0.0]]))
        assert abs(ens.particles[0, 0] - 2.5) < 1e-6

    def test_determinism(self):
        prior = StandardGaussian(3)
        cfg = SVGDConfig(n_particles=16, max_steps=20, tol=1e-9, seed=8)
        ens1, log1 = svgd_run(GaussianBackend(np.ones(3)), prior, cfg)
        ens2, log2 = svgd_run(GaussianBackend(np.ones(3)), prior, cfg)
        assert np.array_equal(ens1.particles, ens2.particles)
        assert log1.alphas == log2.alphas

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        init = rng.normal(size=(12, 2))
        shift = np.array([3.0, -1.5])
        cfg = SVGDConfig(n_particles=12, max_steps=25, tol=1e-9, seed=0)
        ens0, _ = svgd_run(GaussianBackend(np.zeros(2)), None, cfg,
                           initial_particles=init)
        ens1, _ = svgd_run(GaussianBackend(shift), None, cfg,
                           initial_particles=init + shift)
        assert np.allclose(ens0.particles + shift, ens1.particles, atol=1e-10)

    def test_uniform_prior_clamps(self):
        prior = UniformBox([-0.5, -0.5], [0.5, 0.5])
        cfg = SVGDConfig(n_particles=8, max_steps=10, tol=1e-9, seed=10,
                         alpha_init=4.0)
        # mode far outside the box drags particles onto the boundary
        ens, log = svgd_run(GaussianBackend(np.array([5.0, 5.0])), prior, cfg)
        assert np.all(ens.particles <= 0.5 + 1e-15)
        assert any(r.clamped > 0 for r in log.records)

    def test_replay_pins_step_sizes(self):
        prior = StandardGaussian(2)
        cfg = SVGDConfig(n_particles=8, max_steps=15, tol=1e-9, seed=11)
        _, log1 = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg)
        _, log2 = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg,
                           alpha_schedule=log1.alphas)
        assert log2.alphas == log1.alphas
        assert np.array_equal(log1.trajectory, log2.trajectory)

    def test_hook_records_extra_fields(self):
        prior = StandardGaussian(1)
        cfg = SVGDConfig(n_particles=4, max_steps=3, tol=1e-9, seed=12)

        def hook(l, ensemble, latest_t, log):
            return {"eps_r": 0.5, "n_state": l + 1}

        _, log = svgd_run(GaussianBackend(np.zeros(1)), prior, cfg, hook=hook)
        assert [r.eps_r for r in log.records] == [0.5] * 3
        assert [r.n_state for r in log.records] == [1, 2, 3]

    def test_one_record_per_iteration(self):
        prior = StandardGaussian(2)
        cfg = SVGDConfig(n_particles=8, max_steps=9, tol=1e-12, seed=13)
        ens, log = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg)
        assert len(log.records) == ens.iteration
        assert [r.l for r in log.records] == list(range(ens.iteration))
        assert len(log.snapshots) == ens.iteration + 1
