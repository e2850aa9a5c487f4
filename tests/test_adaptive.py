import math
import time

import numpy as np
import pytest

from svrb import hifi
from svrb.adaptive import (
    SWEEP_PARTS,
    AdaptiveConfig,
    build_fixed_rb,
    greedy_sweep,
    initialize,
    run_svrb,
    tolerance_update,
)
from svrb.backends import RBBackend
from svrb.cases import assemble_problem, uniform4_case
from svrb.fem import CoercivityLost
from svrb.svgd import SVGDConfig, draw_prior, svgd_run
from svrb.verify import draw_coercive


class TestInitialize:
    def test_seed_snapshot(self, uniform4_16):
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        assert len(rm.provenance) == 1
        assert (rm.n_state, rm.n_adjoint) == (1, 1)
        _, _, u_r, psi_r = rm.potential(p, p.theta_ref)
        assert abs(rm.dwr(p, p.theta_ref, u_r, psi_r)) < 1e-9


class TestGreedySweep:
    def test_infinite_tolerance_no_enrichment(self, uniform4_16):
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        particles = draw_coercive(p, np.random.default_rng(0), 8)
        result = greedy_sweep(rm, p, particles, tol=np.inf)
        assert result.n_enriched == 0
        assert rm.n_state == 1

    def test_single_particle_halts_after_one(self, uniform4_16):
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        theta = draw_coercive(p, np.random.default_rng(1), 1)
        result = greedy_sweep(rm, p, theta, tol=1e-9)
        assert result.n_enriched == 1
        assert result.max_indicator <= 1e-9

    def test_certifies_tolerance(self):
        p = assemble_problem(uniform4_case(32))
        particles = draw_prior(p.prior, 64, 1)
        rm = initialize(p, particles[0])
        result = greedy_sweep(rm, p, particles, tol=1e-2)
        assert result.max_indicator <= 1e-2
        assert rm.n_state <= 500
        assert not result.flags

    def test_skips_non_coercive_particles(self, uniform4_16, monkeypatch):
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        bad = -np.sqrt(3.0) * np.ones(4)
        particles = np.vstack([bad, draw_coercive(p, np.random.default_rng(2), 4)])
        raised = []  # the stacks on which an online pass of the sweep raised
        solve_online = rm._solve_online

        def scored(problem, thetas):
            try:
                return solve_online(problem, thetas)
            except CoercivityLost:
                raised.append(thetas)
                raise

        monkeypatch.setattr(rm, "_solve_online", scored)
        result = greedy_sweep(rm, p, particles, tol=1e-6)
        assert not raised
        assert 0 in result.skipped
        assert result.max_indicator <= 1e-6 or "stagnation" in result.flags
        assert all(not np.array_equal(t, bad) for t in rm.provenance)

    def test_snapshots_form_no_gradient(self, uniform4_16, monkeypatch):
        # the seed snapshot and the sweep's snapshots use u and psi only
        def no_gradient(ev):
            raise AssertionError("a snapshot formed the high-fidelity gradient")

        monkeypatch.setattr(hifi.HiFiEvaluation, "grad_eta", property(no_gradient))
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        result = greedy_sweep(rm, p, draw_coercive(p, np.random.default_rng(3), 8), tol=1e-6)
        assert result.n_enriched > 1

    def test_basis_cap_flagged(self, uniform4_16):
        p = uniform4_16
        rm = initialize(p, p.theta_ref)
        particles = draw_coercive(p, np.random.default_rng(3), 16)
        result = greedy_sweep(rm, p, particles, tol=1e-14, max_basis=4)
        assert "basis_cap" in result.flags
        assert rm.n_state <= 4

    def test_stagnation_stops_a_pick_that_does_not_improve(self, uniform4_16, monkeypatch):
        # an enrichment that only records its parameter leaves every indicator as it was,
        # so the second pass re-picks the first pick's particle and the sweep must stop
        p = uniform4_16
        rm = initialize(p, p.theta_ref)

        def enrich(problem, u, psi, theta):
            assert len(rm.provenance) < 3, "the sweep went on past a re-picked particle"
            rm.provenance.append(theta.copy())

        monkeypatch.setattr(rm, "enrich", enrich)
        particles = draw_coercive(p, np.random.default_rng(4), 8)
        result = greedy_sweep(rm, p, particles, tol=0.0)
        assert result.flags == ["stagnation"]
        assert result.n_enriched == 1
        assert len(rm.provenance) == 2  # the seed snapshot and the one pick
        assert len(result.history) == 2 and result.history[0] == result.history[1]


class TestToleranceUpdate:
    def setup_method(self):
        self.cfg = AdaptiveConfig(eps0=0.01, update_every=10, rule="normalized")

    def test_normalized_at_t0(self):
        assert tolerance_update(self.cfg, 5.0, 5.0) == pytest.approx(0.01)

    def test_zero_indicator_floors(self):
        assert tolerance_update(self.cfg, 0.0, 5.0) == self.cfg.eps_min

    def test_absolute_rule(self):
        cfg = AdaptiveConfig(eps0=0.01, update_every=10, rule="absolute")
        assert tolerance_update(cfg, 0.3, 7.0) == pytest.approx(0.003)

    def test_never_increases(self):
        eps = tolerance_update(self.cfg, 2.0, 4.0)
        eps2 = tolerance_update(self.cfg, 3.9, 4.0, previous=eps)
        assert eps2 <= eps

    def test_clamped_to_initial(self):
        assert tolerance_update(self.cfg, 50.0, 5.0) == self.cfg.eps0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(eps0=-1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(eps0=1.0, rule="bogus")

    @pytest.mark.parametrize("bad", [
        {"eps_min": -1.0}, {"max_basis": 0}, {"update_every": 0},
        {"update_every": math.inf},
    ], ids=["eps_min", "max_basis", "update_every-0", "update_every-inf"])
    def test_out_of_range_settings_raise(self, bad):
        with pytest.raises(ValueError):
            AdaptiveConfig(**bad)


class TestRunSVRB:
    def test_fixed_rb_baseline_equivalence(self):
        p = assemble_problem(uniform4_case(16))
        scfg = SVGDConfig(n_particles=16, max_steps=6, tol=1e-6, seed=1,
                          alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=1e-3, update_every=None)
        ens_a, rm_a, _ = run_svrb(p, scfg, acfg)
        rm_f, _ = build_fixed_rb(p, scfg, 1e-3)
        backend = RBBackend(p, rm_f)
        ens_f, _ = svgd_run(backend, p.prior, scfg)
        assert np.array_equal(ens_a.particles, ens_f.particles)

    def test_schedule_and_certification(self):
        p = assemble_problem(uniform4_case(16))
        scfg = SVGDConfig(n_particles=24, max_steps=12, tol=1e-6, seed=1,
                          alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=0.1, update_every=4)
        ens, rm, log = run_svrb(p, scfg, acfg)
        eps = [r.eps_r for r in log.records]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        n_r = [r.n_state for r in log.records]
        assert all(a <= b for a, b in zip(n_r, n_r[1:]))
        assert all(r.backend == "rb-adaptive" for r in log.records)
        for r in log.records:
            if r.certified_max_indicator is not None and not r.flags:
                assert r.certified_max_indicator <= r.eps_r * (1 + 1e-12)
        assert len(rm.provenance) >= 1

    def test_enrichment_counts_match_provenance(self):
        p = assemble_problem(uniform4_case(16))
        scfg = SVGDConfig(n_particles=16, max_steps=8, tol=1e-6, seed=1,
                          alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=0.05, update_every=4)
        _, rm, log = run_svrb(p, scfg, acfg)
        assert sum(r.n_enriched for r in log.records) == len(rm.provenance)

    def test_offline_time_includes_the_seed_snapshot(self, uniform4_8, monkeypatch):
        import svrb.adaptive

        delay = 0.3

        def slow_initialize(problem, theta):
            time.sleep(delay)
            return initialize(problem, theta)

        monkeypatch.setattr(svrb.adaptive, "initialize", slow_initialize)
        scfg = SVGDConfig(n_particles=4, max_steps=1, tol=1e-12, seed=1, alpha_init=0.05)
        _, _, log = run_svrb(uniform4_8, scfg, AdaptiveConfig(eps0=0.1, update_every=None))
        assert log.meta["rb_offline_seconds"] >= delay

    def test_pre_loop_and_phases_add_up_to_the_wall_time(self, uniform4_8):
        scfg = SVGDConfig(n_particles=16, max_steps=7, tol=1e-12, seed=1, alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=0.01, update_every=3)
        start = time.perf_counter()
        _, _, log = run_svrb(uniform4_8, scfg, acfg)
        wall = time.perf_counter() - start
        pre_loop = log.meta["timers"]
        assert list(pre_loop) == ["initialize", "initial_sweep"]
        accounted = sum(pre_loop.values()) + sum(sum(r.timers.values()) for r in log.records)
        assert abs(wall - accounted) <= 0.05 * wall
        assert log.meta["rb_offline_seconds"] == pytest.approx(
            sum(pre_loop.values()) + sum(r.timers["hook"] for r in log.records))
        # each sweep's parts lie within the time that holds the sweep
        carried = [r for r in log.records if r.sweep_timers is not None]
        assert [r.l for r in carried] == [0, 3, 6]
        for rec, holder in zip(carried, [pre_loop["initial_sweep"]]
                               + [r.timers["hook"] for r in carried[1:]]):
            assert list(rec.sweep_timers) == list(SWEEP_PARTS)
            assert 0.0 < sum(rec.sweep_timers.values()) <= holder

    def test_records_carry_each_sweep_once(self, uniform4_8, monkeypatch):
        import svrb.adaptive

        sweeps = []

        def recording_sweep(*args, **kwargs):
            sweeps.append(greedy_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(svrb.adaptive, "greedy_sweep", recording_sweep)
        scfg = SVGDConfig(n_particles=8, max_steps=7, tol=1e-12, seed=1, alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=0.01, update_every=3)
        _, rm, log = run_svrb(uniform4_8, scfg, acfg)
        records = log.records
        assert [r.l for r in records] == list(range(7))
        assert len(sweeps) == 3  # the prior draw, then iterations 3 and 6
        first = records[0]
        assert first.eps_r == acfg.eps0
        assert first.n_enriched == 1 + sweeps[0].n_enriched  # with the seed snapshot
        assert first.certified_max_indicator == sweeps[0].max_indicator
        for r, sweep in zip((records[3], records[6]), sweeps[1:]):
            assert r.n_enriched == sweep.n_enriched
            assert r.certified_max_indicator == sweep.max_indicator
            assert r.flags == sweep.flags
        for r, sweep in zip((first, records[3], records[6]), sweeps):
            assert (r.sweep_passes, r.sweep_skipped) == (len(sweep.history), len(sweep.skipped))
        assert first.eps_r >= records[3].eps_r >= records[6].eps_r
        for r in records:
            if r.l not in (0, 3, 6):
                assert (r.n_enriched, r.certified_max_indicator, r.flags) == (0, None, [])
                assert (r.sweep_passes, r.sweep_skipped) == (None, None)
        assert sum(r.n_enriched for r in records) == len(rm.provenance)
