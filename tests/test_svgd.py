import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from svrb import hifi
from svrb.adaptive import AdaptiveConfig, run_svrb
from svrb.backends import GaussianBackend, HiFiBackend
from svrb.cases import StandardGaussian, UniformBox
from svrb.fem import CoercivityLost
from svrb.svgd import (
    NumericalAbort,
    SVGDConfig,
    line_search,
    median_bandwidth,
    prior_score,
    stopping_indicator,
    svgd_direction,
    svgd_run,
)

from test_hifi import fd_gradient


def kernel_and_grad(theta, theta_other, h):
    """RBF kernel value and its gradient with respect to the first argument:
    the one-pair reference for ``svgd_direction``."""
    theta = np.asarray(theta, dtype=float)
    diff = theta - np.asarray(theta_other, dtype=float)
    k = np.exp(-np.sum(diff**2) / h)
    return k, -(2.0 / h) * diff * k


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
            np.array([[1.0]]), np.zeros((1, 1)), backend.potential, None, 0.7)
        assert (alpha, exhausted, n_evals) == (0.7, False, 0)

    def test_quadratic_accepts_unit_step(self):
        backend = GaussianBackend(np.zeros(1))
        alpha, exhausted, _ = line_search(
            np.array([[1.0]]), np.array([[-1.0]]), backend.potential, None, 1.0)
        assert alpha == 1.0 and not exhausted

    def test_uphill_direction_exhausts(self):
        potential = lambda thetas, budget: thetas[:, 0]  # merit increases for any step
        alpha, exhausted, _ = line_search(
            np.array([[0.0]]), np.array([[1.0]]), potential, None, 1.0,
            max_backtracks=10)
        assert exhausted
        assert alpha == pytest.approx(1.0 / 2**10)

    def test_failing_trial_counts_as_infinite(self):
        # descent direction toward the mode at 2, but evaluations past 0.5
        # fail; the search must back off below the failure threshold
        def guarded(thetas, budget):
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
        def guarded(thetas, budget):
            if np.any(thetas[:, 0] > 1.0):
                raise CoercivityLost(thetas[0], -1.0, 0.0)
            return (thetas[:, 0] - 3.0) ** 2 / 2

        particles = np.array([[0.0], [0.9]])
        alpha, exhausted, _ = line_search(particles, np.ones((2, 1)), guarded, None, 1.0)
        assert not exhausted
        assert 0.9 + alpha <= 1.0

    def test_reference_failure_is_a_numerical_abort(self):
        def failing(thetas, budget):
            raise CoercivityLost(thetas[0], -1.0, 0.0)

        with pytest.raises(NumericalAbort, match="reference merit"):
            line_search(np.zeros((2, 1)), np.ones((2, 1)), failing, None, 1.0)


class TableProblem:
    """A problem whose potentials come from a table instead of solves, so
    that :class:`HiFiBackend`'s own row loop runs on them under
    :func:`table_potential`; every stack is coercive.

    The line search below runs on particles ``[i, 0]`` along ``[0, 1]`` from
    ``alpha = 1``, so row ``i`` of a stack at ``[i, 2**-k]`` is particle
    ``i`` at trial ``k``; call ``0`` is the reference at the particles.
    """

    def __init__(self, table):
        self.table = table

    def check_coercive(self, thetas):
        pass


def table_potential(problem, theta):
    """Stands in for :func:`svrb.hifi.potential` on a :class:`TableProblem`."""
    return problem.table[_call(theta)][int(theta[0])], None


def _call(theta):
    return 0 if theta[1] == 0 else 1 - int(np.log2(theta[1]))


class TablePrior:
    def __init__(self, table):
        self.table = table

    def neglog(self, thetas):
        return self.table[_call(thetas[0])]


class TestEarlyRejection:
    """Stopping a trial once its potentials exceed the acceptance budget
    changes no step size and no particle."""

    @staticmethod
    def tables(data, m, trials):
        """Non-negative potentials and prior terms per call.  A near-tie
        trial repeats the reference prior terms and scales the reference
        potentials by ``1 + eps``, either row by row or lumped into the
        first row, so that a stop can come before the last row."""
        values = st.floats(0.0, 10.0)
        eps = st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 5e-10, -5e-10,
                               2e-9, -2e-9]) | st.floats(-1e-8, 1e-8)
        etas = [data.draw(arrays(float, (m,), elements=values))]
        neglogs = [data.draw(arrays(float, (m,), elements=values))]
        for _ in range(trials):
            kind = data.draw(st.sampled_from(["random", "scaled", "lumped"]))
            if kind == "random":
                etas.append(data.draw(arrays(float, (m,), elements=values)))
                neglogs.append(data.draw(arrays(float, (m,), elements=values)))
                continue
            scale = 1.0 + data.draw(eps)
            if kind == "scaled":
                etas.append(etas[0] * scale)
            else:
                etas.append(np.zeros(m))
                etas[-1][0] = etas[0].sum() * scale
            neglogs.append(neglogs[0].copy())
        return etas, neglogs

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), trials=st.integers(1, 6))
    def test_same_decision_as_full_evaluation(self, data, m, trials):
        etas, neglogs = self.tables(data, m, trials)
        particles = np.column_stack([np.arange(m, dtype=float), np.zeros(m)])
        direction = np.column_stack([np.zeros(m), np.ones(m)])
        prior = TablePrior(neglogs)
        honoured, ignored = HiFiBackend(TableProblem(etas)), HiFiBackend(TableProblem(etas))
        with mock.patch.object(hifi, "potential", table_potential):
            stopped = line_search(particles, direction, honoured.potential, prior,
                                  1.0, trials)
            full = line_search(particles, direction,
                               lambda thetas, budget: ignored.potential(thetas),
                               prior, 1.0, trials)
        assert stopped[:2] == full[:2]
        assert honoured.n_evaluations <= ignored.n_evaluations

    def test_hifi_run_is_bitwise_unchanged_with_fewer_factorizations(
            self, gaussian9_9, monkeypatch):
        import scipy.sparse.linalg as spla

        class IgnoresBudget(HiFiBackend):
            def potential(self, thetas, budget=np.inf):
                return super().potential(thetas)

        splu, calls = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        cfg = SVGDConfig(n_particles=4, max_steps=3, tol=1e-12, seed=0)
        runs = []
        for backend in (HiFiBackend(gaussian9_9), IgnoresBudget(gaussian9_9)):
            del calls[:]
            ens, log = svgd_run(backend, gaussian9_9.prior, cfg)
            runs.append((ens.particles, log.alphas, len(calls)))
        (honoured, alphas, n_honoured), (ignored, alphas_full, n_ignored) = runs
        assert np.array_equal(honoured, ignored)
        assert alphas == alphas_full
        assert n_honoured < n_ignored


class TestWarmStart:
    """Each line search starts at twice the last accepted step, capped at
    ``alpha_init``; the first search starts at ``alpha_init``, and one after
    an exhausted search at that search's untried step."""

    @staticmethod
    def traced_run(backend, prior, cfg):
        """The run plus ``(start, alpha, exhausted, particles)`` of every line search."""
        import svrb.svgd

        searches = []

        def traced(*args, **kwargs):
            out = line_search(*args, **kwargs)
            searches.append((args[4], out[0], out[1], args[0].tobytes()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svrb.svgd, "line_search", traced)
            ens, log = svgd_run(backend, prior, cfg)
        return ens, log, searches

    @staticmethod
    def check_starts(cfg, log, searches):
        assert len(searches) == len(log.records) > 0
        for i, (start, alpha, exhausted, _) in enumerate(searches):
            if i == 0:
                assert start == cfg.alpha_init
            elif searches[i - 1][2]:  # the untried step of the exhausted search
                assert start == searches[i - 1][1]
            else:
                assert start == min(cfg.alpha_init, 2.0 * searches[i - 1][1])
            assert start <= cfg.alpha_init
            k = log.records[i].backtracks
            assert alpha == start * 2.0**-k
            if exhausted:
                assert k == cfg.max_backtracks
            else:
                assert k < cfg.max_backtracks
            # every step is the configured one halved a whole number of times
            assert alpha == cfg.alpha_init * 2.0**-round(np.log2(cfg.alpha_init / alpha))
            assert log.records[i].alpha == (0.0 if exhausted else alpha)  # stays put
            assert ("line_search_exhausted" in log.records[i].flags) == exhausted

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), m=st.integers(1, 8),
           alpha_init=st.sampled_from([0.05, 0.3, 1.0, 3.0, 16.0]),
           max_backtracks=st.integers(1, 12), seed=st.integers(0, 2**16),
           box=st.booleans())
    def test_start_rule_and_replay(self, data, d, m, alpha_init, max_backtracks, seed, box):
        mean = data.draw(arrays(float, (d,), elements=st.floats(-3.0, 3.0)))
        prior = UniformBox([-1.0] * d, [1.0] * d) if box else StandardGaussian(d)
        cfg = SVGDConfig(n_particles=m, max_steps=12, tol=1e-12, alpha_init=alpha_init,
                         max_backtracks=max_backtracks, seed=seed)
        ens, log, searches = self.traced_run(GaussianBackend(mean), prior, cfg)
        self.check_starts(cfg, log, searches)
        replayed, log2 = svgd_run(GaussianBackend(mean), prior, cfg,
                                  alpha_schedule=log.alphas)
        assert np.array_equal(replayed.particles, ens.particles)
        assert np.array_equal(log2.trajectory, log.trajectory)
        assert all(r.backtracks is None for r in log2.records)

    # three trials from 3.0 cannot find a step short enough once the
    # particles near the mode, so searches exhaust from iteration 2 on
    EXHAUSTING = SVGDConfig(n_particles=4, max_steps=10, tol=1e-12, alpha_init=3.0,
                            max_backtracks=3, seed=0)

    # steps from 16.0 overshoot the mode, so the first search exhausts; a
    # search restarted at 16.0 exhausted again in every iteration
    OVERSHOOTING = SVGDConfig(n_particles=4, max_steps=10, tol=1e-12, alpha_init=16.0,
                              max_backtracks=2, seed=0)

    @staticmethod
    def assert_no_repeated_trial(searches):
        """No search tries a step that an earlier search rejected at the same particles."""
        rejected = {}
        for start, alpha, exhausted, particles in searches:
            tried = []
            step = start
            while step > alpha:
                tried.append(step)
                step *= 0.5
            if not exhausted:
                tried.append(alpha)
            assert not rejected.get(particles, set()).intersection(tried)
            rejected.setdefault(particles, set()).update(tried if exhausted else tried[:-1])

    def test_exhausted_search_restarts_at_its_untried_step(self):
        cfg = self.EXHAUSTING
        backend = GaussianBackend(np.array([1.0, -0.5]))
        _, log, searches = self.traced_run(backend, StandardGaussian(2), cfg)
        self.check_starts(cfg, log, searches)
        starts = [start for start, _, _, _ in searches]
        assert starts[:4] == [3.0, 3.0, 1.5, 1.5 * 2.0**-3]
        assert searches[2][2] and searches[3][2]
        assert [r.backtracks for r in log.records[:4]] == [1, 2, 3, 3]
        self.assert_no_repeated_trial(searches)

    def test_merit_falls_after_the_first_exhausted_search(self):
        cfg, prior = self.OVERSHOOTING, StandardGaussian(2)
        backend = GaussianBackend(np.array([1.0, -0.5]))
        _, log, searches = self.traced_run(backend, prior, cfg)
        self.check_starts(cfg, log, searches)
        self.assert_no_repeated_trial(searches)
        merits = [np.mean(backend.potential(p) + prior.neglog(p))
                  for _, p, _ in log.snapshots]
        assert searches[0][2]  # 16.0 and 8.0 overshoot
        assert searches[1][0] == 16.0 * 2.0**-2 and not searches[1][2]
        assert merits[2] < merits[1] == merits[0]
        assert merits[-1] < merits[2]

    def test_merit_never_rises_across_an_exhausted_search(self):
        # moving by the search's last, unevaluated step raised the mean merit
        # here: 0.8166 -> 0.8228 -> 0.8324 over iterations 2-4
        cfg, prior = self.EXHAUSTING, StandardGaussian(2)
        backend = GaussianBackend(np.array([1.0, -0.5]))
        _, log = svgd_run(backend, prior, cfg)
        merits = [np.mean(backend.potential(p) + prior.neglog(p))
                  for _, p, _ in log.snapshots]
        exhausted = [i for i, r in enumerate(log.records) if "line_search_exhausted" in r.flags]
        assert exhausted[:2] == [2, 3]
        for i in exhausted:
            assert (log.records[i].alpha, log.records[i].backtracks) == (0.0, cfg.max_backtracks)
            assert np.array_equal(log.snapshots[i + 1][1], log.snapshots[i][1])
            assert merits[i + 1] <= merits[i]


class TestConfig:
    @pytest.mark.parametrize("bad", [
        {"n_particles": 0}, {"max_steps": -1}, {"tol": -1.0}, {"alpha_init": 0.0},
        {"max_backtracks": 0}, {"seed": -1},
    ], ids=lambda bad: next(iter(bad)))
    def test_out_of_range_settings_raise(self, bad):
        with pytest.raises(ValueError):
            SVGDConfig(**bad)


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

    def test_unknown_hook_field_raises(self):
        # a misspelt field used to stay on the record and miss runlog.jsonl
        cfg = SVGDConfig(n_particles=4, max_steps=3, tol=1e-9, seed=12)

        def hook(l, ensemble, latest_t, log):
            return {"n_statee": 1}

        with pytest.raises(TypeError, match="n_statee"):
            svgd_run(GaussianBackend(np.zeros(1)), StandardGaussian(1), cfg, hook=hook)

    @pytest.mark.parametrize("kind", ["hifi", "rb-adaptive"])
    def test_record_phases_cover_the_run(self, gaussian9_9, monkeypatch, kind):
        # the adaptive run's greedy sweeps happen in the hook, outside every backend call
        import svrb.adaptive

        walls = []

        def timed_run(*args, **kwargs):
            t0 = time.perf_counter()
            out = svgd_run(*args, **kwargs)
            walls.append(time.perf_counter() - t0)
            return out

        p = gaussian9_9
        cfg = SVGDConfig(n_particles=8, max_steps=7, tol=1e-12, seed=14, alpha_init=0.05)
        if kind == "hifi":
            _, log = timed_run(HiFiBackend(p), p.prior, cfg)
        else:
            monkeypatch.setattr(svrb.adaptive, "svgd_run", timed_run)
            _, _, log = run_svrb(p, cfg, AdaptiveConfig(eps0=1e-3, update_every=3))
            assert [r.n_enriched > 0 for r in log.records] == [i % 3 == 0 for i in range(7)]
        assert len(log.records) == 7 and len(walls) == 1
        for r in log.records:
            assert tuple(r.timers) == ("hook", "evaluate", "direction", "line_search", "update")
            assert all(value >= 0.0 for value in r.timers.values()), r.timers
        covered = sum(sum(r.timers.values()) for r in log.records)
        assert covered == pytest.approx(walls[0], rel=0.05)

    def test_one_record_per_iteration(self):
        prior = StandardGaussian(2)
        cfg = SVGDConfig(n_particles=8, max_steps=9, tol=1e-12, seed=13)
        ens, log = svgd_run(GaussianBackend(np.zeros(2)), prior, cfg)
        assert len(log.records) == ens.iteration
        assert [r.l for r in log.records] == list(range(ens.iteration))
        assert len(log.snapshots) == ens.iteration + 1

    @pytest.mark.parametrize("where", ["potential", "gradient"])
    def test_non_finite_backend_values_abort(self, where):
        class NonFinite(GaussianBackend):
            """Gaussian values, but the second stack it evaluates (iteration
            1) gets a NaN potential or gradient at row 2."""

            calls = 0

            def evaluate(self, thetas):
                etas, grads = super().evaluate(thetas)
                self.calls += 1
                if self.calls == 2:
                    (etas if where == "potential" else grads[:, 1])[2] = np.nan
                return etas, grads

            def potential(self, thetas, budget=np.inf):
                return GaussianBackend.evaluate(self, thetas)[0]

        cfg = SVGDConfig(n_particles=4, max_steps=5, tol=1e-12, seed=0)
        with pytest.raises(NumericalAbort,
                           match="non-finite values at particle 2 of iteration 1$"):
            svgd_run(NonFinite(np.zeros(2)), StandardGaussian(2), cfg)
