"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy desk-scale runs share module-scoped fixtures.
"""

import csv
import json
import statistics
import time

import numpy as np
import pytest

from svrb import adaptive, errorlab, hifi
from svrb.adaptive import AdaptiveConfig, greedy_sweep, initialize, run_svrb
from svrb.backends import GaussianBackend, HiFiBackend
from svrb.cases import assemble_problem, gaussian9_case, uniform4_case
from svrb.cli import main
from svrb.errorlab import error_decay_study, sample_discrepancy, verify_bounds
from svrb.svgd import SVGDConfig, draw_prior, svgd_run
from svrb.verify import (
    build_small_rb,
    check_dwr_identities,
    draw_coercive,
    fd_gradient,
    max_rel_componentwise,
)


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def problems_16():
    return {
        "uniform4": assemble_problem(uniform4_case(16)),
        "gaussian9": assemble_problem(gaussian9_case(15)),
    }


def test_criterion_1_gradient_correctness(problems_16):
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2024)
    for label, problem in problems_16.items():
        thetas = draw_coercive(problem, rng, 10)
        rm = build_small_rb(problem, rng, 6)
        for theta in thetas:
            grad = hifi.evaluate(problem, theta).grad_eta
            fd = fd_gradient(lambda t: hifi.potential(problem, t)[0], theta)
            worst = max(worst, max_rel_componentwise(fd, grad))
            ev = rm.evaluate(problem, theta)
            fd_delta = fd_gradient(lambda t: rm.potential(problem, t)[1], theta)
            worst = max(worst, max_rel_componentwise(fd_delta, ev.grad_eta_delta))
    elapsed = time.perf_counter() - start
    report(
        "01 gradient-correctness",
        worst < 1e-5 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_dwr_identities(problems_16):
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for n, case in ((12, uniform4_case(12)), (9, gaussian9_case(9))):
        problem = assemble_problem(case)
        rm = build_small_rb(problem, rng, 5)
        thetas = draw_coercive(problem, rng, 5)
        ok, gap = check_dwr_identities(problem, rm, thetas, rtol=1e-9)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        "02 dwr-identities",
        worst < 1e-9 and elapsed < 60.0,
        f"max rel gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_bound_suite(problems_16):
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    failures = []
    for label, problem in problems_16.items():
        thetas = draw_coercive(problem, rng, 32)
        seeds = draw_coercive(problem, rng, 12)
        rm = initialize(problem, seeds[0])
        next_seed = 1
        for target in (1, 5, 10):
            while rm.n_state < target and next_seed < len(seeds):
                ev = hifi.evaluate(problem, seeds[next_seed])
                rm.enrich(problem, ev.u, ev.psi, seeds[next_seed])
                next_seed += 1
            for theta in thetas:
                rep = verify_bounds(problem, rm, theta)
                if not rep.all_passed:
                    failures.append((label, target, [c.name for c in rep.failed()]))
    elapsed = time.perf_counter() - start
    report(
        "03 bound-suite",
        not failures and elapsed < 300.0,
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_4_snapshot_exactness(problems_16):
    problem = problems_16["uniform4"]
    particles = draw_coercive(problem, np.random.default_rng(8), 32)
    rm = initialize(problem, particles[0])
    greedy_sweep(rm, problem, particles, tol=1e-4)
    worst_dwr = worst_rel = 0.0
    for theta in rm.provenance:
        _, _, u_r, psi_r = rm.potential(problem, theta)
        worst_dwr = max(worst_dwr, abs(rm.dwr(problem, theta, u_r, psi_r)))
        u_h = hifi.solve_state(problem, theta)
        rel = problem.v_norm(u_h - rm.reconstruct(u_r, "state")) / problem.v_norm(u_h)
        worst_rel = max(worst_rel, rel)
    report(
        "04 snapshot-exactness",
        worst_dwr < 1e-9 and worst_rel < 1e-9,
        f"{len(rm.provenance)} snapshots, max |dwr| {worst_dwr:.1e}, "
        f"max rel state err {worst_rel:.1e}",
    )


def test_criterion_5_corrected_superiority(uniform4_32):
    start = time.perf_counter()
    problem = uniform4_32
    train = draw_prior(problem.prior, 64, 1)
    rm = initialize(problem, train[0])
    greedy_sweep(rm, problem, train, tol=1e-12, max_basis=55)
    rows = error_decay_study(problem, rm.provenance, train)
    violations = [
        r["n_state"] for r in rows
        if r["n_state"] >= 10 and r["mean_abs_e_delta"] >= r["mean_abs_e_eta"]
    ]
    decay_eta = rows[0]["mean_abs_e_eta"] / rows[-1]["mean_abs_e_eta"]
    decay_delta = rows[0]["mean_abs_e_delta"] / rows[-1]["mean_abs_e_delta"]
    elapsed = time.perf_counter() - start
    report(
        "05 corrected-superiority",
        not violations and decay_eta >= 1e4 and decay_delta >= 1e4 and elapsed < 600.0,
        f"violations {violations}, decay eta/delta {decay_eta:.1e}/{decay_delta:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_svgd_gaussian_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    init = rng.normal(0.0, 2.0, size=(128, 2))
    cfg = SVGDConfig(n_particles=128, max_steps=500, tol=1e-3, seed=42)
    ens, _ = svgd_run(GaussianBackend(np.zeros(2)), None, cfg, initial_particles=init)
    mean_err = float(np.linalg.norm(ens.particles.mean(axis=0)))
    cov_err = float(np.linalg.norm(np.cov(ens.particles.T) - np.eye(2)))
    elapsed = time.perf_counter() - start
    report(
        "06 svgd-gaussian-sanity",
        mean_err < 0.1 and cov_err < 0.15 and elapsed < 120.0,
        f"mean err {mean_err:.3f}, cov err {cov_err:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_adaptive_schedule(uniform4_32):
    problem = uniform4_32
    details = []
    ok = True
    for eps0 in (1.0, 0.1, 0.01):
        scfg = SVGDConfig(n_particles=64, max_steps=40, tol=1e-3, seed=1,
                          alpha_init=0.05)
        acfg = AdaptiveConfig(eps0=eps0, update_every=10)
        _, rm, log = run_svrb(problem, scfg, acfg)
        eps = [r.eps_r for r in log.records]
        n_r = [r.n_state for r in log.records]
        certified = all(
            r.certified_max_indicator <= r.eps_r * (1 + 1e-12)
            for r in log.records
            if r.certified_max_indicator is not None and not r.flags
        )
        ok &= all(a >= b for a, b in zip(eps, eps[1:]))
        ok &= all(a <= b for a, b in zip(n_r, n_r[1:]))
        ok &= certified
        ok &= 5 <= rm.n_state <= 200
        details.append(f"eps0={eps0}: N_r={rm.n_state}")
    report("07 adaptive-schedule", ok, "; ".join(details))


def test_criterion_8_speedup(tmp_path):
    config = {
        "schema_version": 1,
        "case": {"name": "uniform4", "n": 128},
        "particles": 64,
        "max_steps": 3,
        "svgd_tol": 1e-9,
        "alpha_init": 0.05,
        "seed": 1,
        "backend": {"kind": "rb-adaptive", "eps0": 1.0, "update_every": 10},
        "output_dir": str(tmp_path / "bench"),
    }
    path = tmp_path / "bench.json"
    with open(path, "w") as fh:
        json.dump(config, fh)
    assert main(["bench", "--config", str(path)]) == 0
    with open(tmp_path / "bench" / "bench.csv") as fh:
        rows = {r["pipeline"]: r for r in csv.DictReader(fh)}
    hi, rb = rows["hifi"], rows["rb-adaptive"]
    speedup = float(rb["speedup"])
    report("08 speedup", speedup > 10.0,
           f"measured {speedup:.1f}x; hifi eval {float(hi['eval_seconds']):.2f} s for "
           f"{hi['hifi_solves']} solves; RB build {float(rb['build_seconds']):.2f} s + eval "
           f"{float(rb['eval_seconds']):.2f} s for {rb['hifi_solves']} solves; "
           f"n_rb {rb['n_rb']}")


def test_criterion_9_trajectory_fidelity(uniform4_32):
    problem = uniform4_32
    finals = {}
    for seed in (1, 8, 10):
        scfg = SVGDConfig(n_particles=64, max_steps=12, tol=1e-3, seed=seed,
                          alpha_init=0.05)
        _, log_h = svgd_run(HiFiBackend(problem), problem.prior, scfg)
        for eps0 in (1.0, 0.1, 0.01):
            acfg = AdaptiveConfig(eps0=eps0, update_every=5)
            _, _, log_r = run_svrb(problem, scfg, acfg, alpha_schedule=log_h.alphas)
            mx, _ = sample_discrepancy(log_h.trajectory, log_r.trajectory)
            finals.setdefault(eps0, []).append(float(mx[-1]))
    medians = {eps0: statistics.median(vals) for eps0, vals in finals.items()}
    finite = all(np.isfinite(v) for vals in finals.values() for v in vals)
    ordered = medians[1.0] >= medians[0.1] >= medians[0.01]
    report(
        "09 trajectory-fidelity",
        finite and ordered,
        ", ".join(f"eps0={e}: median {m:.2e}" for e, m in medians.items()),
    )


def test_criterion_10_determinism(tmp_path):
    digests = []
    for tag in ("first", "second"):
        config = {
            "schema_version": 1,
            "case": {"name": "gaussian9", "n": 9},
            "particles": 8,
            "max_steps": 3,
            "svgd_tol": 1e-9,
            "seed": 5,
            "backend": {"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2},
            "output_dir": str(tmp_path / tag),
        }
        path = tmp_path / f"{tag}.json"
        with open(path, "w") as fh:
            json.dump(config, fh)
        assert main(["run", "--config", str(path)]) == 0
        digests.append((tmp_path / tag / "particles.csv").read_bytes())
    report("10 determinism", digests[0] == digests[1],
           f"{len(digests[0])} bytes compared")
