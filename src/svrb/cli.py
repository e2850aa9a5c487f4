"""Command line harness: run experiments, analyze runs, benchmark, verify.

Exit codes: 0 success, 2 configuration errors, 3 numerical aborts.
"""

import argparse
import csv
import json
import os
import sys
import time
import zipfile

import numpy as np

from . import adaptive, errorlab, hifi
from .backends import HiFiBackend, RBBackend
from .cases import UnsupportedCoefficient, assemble_problem
from .config import ConfigError, ExperimentConfig, _validate
from .fem import CoercivityLost, ConfigurationError, SolveFailed
from .reduced import RBSolveFailed, ReducedModel, problem_fingerprint
from .runlog import RunLog
from .svgd import NumericalAbort, SVGDConfig, svgd_run

# only these mean "the numerics gave out"; any other error is a bug and surfaces
_NUMERICAL = (NumericalAbort, CoercivityLost, SolveFailed, RBSolveFailed)
_CONFIG = (ConfigError, ConfigurationError, UnsupportedCoefficient)


def _svgd_config(cfg):
    return SVGDConfig(
        n_particles=cfg.particles,
        max_steps=cfg.max_steps,
        tol=cfg.svgd_tol,
        alpha_init=cfg.alpha_init,
        max_backtracks=cfg.max_backtracks,
        seed=cfg.seed,
    )


def _adaptive_config(cfg):
    b = cfg.backend
    return adaptive.AdaptiveConfig(eps0=b.eps0, update_every=b.update_every, rule=b.rule,
                                   eps_min=b.eps_min, max_basis=b.max_basis)


def _load_rb(path, problem):
    """Load a stored reduced model, refusing a file that does not read as one
    and one built for another problem."""
    try:
        rm = ReducedModel.load(path)
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read reduced model {path}: {exc!r}") from exc
    if rm.fingerprint != problem_fingerprint(problem):
        raise ConfigError(f"reduced model {path} was built for another problem: "
                          f"{rm.fingerprint} != {problem_fingerprint(problem)}")
    return rm


def _dump_matrices(problem, outdir):
    import scipy.io as sio

    mdir = os.path.join(outdir, "matrices")
    os.makedirs(mdir, exist_ok=True)
    for j, blk in enumerate(problem.A_blocks):
        sio.mmwrite(os.path.join(mdir, f"A_{j}.mtx"), blk)
    sio.mmwrite(os.path.join(mdir, "gram.mtx"), problem.gram)
    sio.mmwrite(os.path.join(mdir, "obs.mtx"), problem.obs_matrix)
    for k, vec in enumerate(problem.f_blocks):
        np.savetxt(os.path.join(mdir, f"f_{k}.txt"), vec)


def cmd_run(cfg):
    """Execute one experiment end to end and persist its artifacts."""
    problem = assemble_problem(cfg.build_case())
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    if cfg.dump_matrices:
        _dump_matrices(problem, outdir)

    scfg = _svgd_config(cfg)
    meta = {
        "config": cfg.to_dict(),
        "dofs_raw": problem.n_dofs_raw,
        "dofs": problem.n_dofs,
        "sigma": problem.sigma,
        "noise_seed": problem.noise_seed,
    }

    rm = None
    if cfg.backend.kind == "hifi":
        backend = HiFiBackend(problem)
        ensemble, log = svgd_run(backend, problem.prior, scfg, log_meta=meta)
    elif cfg.backend.kind == "rb-fixed":
        if cfg.load_rb:
            rm = _load_rb(cfg.load_rb, problem)
        else:
            rm, _ = adaptive.build_fixed_rb(problem, scfg, cfg.backend.tol,
                                            cfg.backend.max_basis)
        backend = RBBackend(problem, rm)
        ensemble, log = svgd_run(backend, problem.prior, scfg, log_meta=meta)
    else:
        ensemble, rm, log = adaptive.run_svrb(problem, scfg, _adaptive_config(cfg),
                                              log_meta=meta)

    log.meta.update(meta)
    log.write_jsonl(os.path.join(outdir, "runlog.jsonl"))
    log.write_particles_csv(os.path.join(outdir, "particles.csv"))
    log.write_history_csv(os.path.join(outdir, "history.csv"))
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
    if rm is not None and cfg.save_rb:
        rm.save(cfg.save_rb)
    if rm is not None:
        rm.save(os.path.join(outdir, "rb.npz"))
    print(f"run complete: {ensemble.iteration} iterations, "
          f"{ensemble.n_particles} particles -> {outdir}")
    return 0


def cmd_analyze(run_dirs):
    """Rebuild error-decay and history tables from stored run artifacts."""
    for rundir in run_dirs:
        cfg_path = os.path.join(rundir, "config.json")
        if not os.path.isfile(cfg_path):
            raise ConfigError(f"{rundir} is not a run directory (missing config.json)")
        cfg = ExperimentConfig.from_json(cfg_path)
        log = RunLog.read_jsonl(os.path.join(rundir, "runlog.jsonl"))
        log.write_history_csv(os.path.join(rundir, "history.csv"))

        particles, final_l = _read_final_particles(os.path.join(rundir, "particles.csv"))
        _write_scatter(rundir, particles, final_l)

        rb_path = os.path.join(rundir, "rb.npz")
        if os.path.isfile(rb_path):
            problem = assemble_problem(cfg.build_case())
            rm = _load_rb(rb_path, problem)
            rows = errorlab.error_decay_study(problem, rm.provenance, particles)
            with open(os.path.join(rundir, "decay.csv"), "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
        print(f"analyzed {rundir}")
    return 0


def _read_final_particles(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    final_l = max(int(r["l"]) for r in rows)
    thetas = [
        [float(v) for k, v in r.items() if k.startswith("theta_")]
        for r in rows if int(r["l"]) == final_l
    ]
    return np.array(thetas), final_l


def _write_scatter(rundir, particles, final_l):
    with open(os.path.join(rundir, "scatter.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "theta_1", "theta_2"])
        for row in particles:
            writer.writerow([final_l, repr(row[0]), repr(row[1] if len(row) > 1 else 0.0)])


def speedup_ratio(hifi_eval_seconds, rb_build_seconds, rb_eval_seconds):
    """Speedup: high-fidelity evaluation time over build-plus-evaluation time."""
    return hifi_eval_seconds / (rb_build_seconds + rb_eval_seconds)


def cmd_bench(cfg):
    """Matched high-fidelity and reduced pipelines with a timing table."""
    problem = assemble_problem(cfg.build_case())
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    scfg = _svgd_config(cfg)

    # warm-up factorization, excluded from all timings
    hifi.Factorization(problem, problem.theta_ref)

    hifi_backend = HiFiBackend(problem)
    t0 = time.perf_counter()
    svgd_run(hifi_backend, problem.prior, scfg)
    hifi_eval = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, rm, log = adaptive.run_svrb(problem, scfg, _adaptive_config(cfg))
    rb_total = time.perf_counter() - t0
    rb_build = log.meta["rb_offline_seconds"]
    rb_eval = rb_total - rb_build

    ratio = speedup_ratio(hifi_eval, rb_build, rb_eval)
    rows = [
        {"pipeline": "hifi", "dofs": problem.n_dofs_raw, "n_rb": "",
         "build_seconds": 0.0, "eval_seconds": hifi_eval, "speedup": 1.0},
        {"pipeline": "rb-adaptive", "dofs": problem.n_dofs_raw, "n_rb": rm.n_state,
         "build_seconds": rb_build, "eval_seconds": rb_eval, "speedup": ratio},
    ]
    path = os.path.join(outdir, "bench.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'pipeline':<14}{'DOF':>8}{'N_r':>6}{'build [s]':>12}{'eval [s]':>12}{'speedup':>10}")
    for r in rows:
        print(f"{r['pipeline']:<14}{r['dofs']:>8}{str(r['n_rb']):>6}"
              f"{r['build_seconds']:>12.2f}{r['eval_seconds']:>12.2f}{r['speedup']:>10.1f}")
    return 0


def cmd_verify(quick=False, seed=0):
    """Self-check: gradients, identities, and bound suite; prints a matrix."""
    from .verify import run_verification

    results = run_verification(quick=quick, seed=seed)
    width = max(len(name) for name, _ in results) + 2
    for name, ok in results:
        print(f"{name:<{width}}{'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in results) else 1


def _apply_overrides(cfg, args):
    if args.case:
        cfg.case["name"] = args.case
    if args.mesh is not None:
        cfg.case["n"] = args.mesh
    for name in ("particles", "max_steps", "seed", "output_dir"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "backend", None):
        cfg.backend.kind = args.backend
    for name in ("tol", "eps0", "update_every", "rule"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg.backend, name, value)
    for name in ("save_rb", "load_rb"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "dump_matrices", False):
        cfg.dump_matrices = True
    if getattr(args, "svgd_tol", None) is not None:
        cfg.svgd_tol = args.svgd_tol
    return cfg


def _build_parser():
    parser = argparse.ArgumentParser(prog="svrb")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p):
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--case", choices=["uniform4", "gaussian9", "custom"])
        p.add_argument("--mesh", type=int, help="mesh subdivisions per side")
        p.add_argument("--particles", type=int)
        p.add_argument("--max-steps", dest="max_steps", type=int)
        p.add_argument("--svgd-tol", dest="svgd_tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--backend", choices=["hifi", "rb-fixed", "rb-adaptive"])
        p.add_argument("--tol", type=float, help="greedy tolerance for rb-fixed")
        p.add_argument("--eps0", type=float, help="initial adaptive tolerance")
        p.add_argument("--K", dest="update_every", type=int, help="update period")
        p.add_argument("--rule", choices=["normalized", "absolute"])
        p.add_argument("--output-dir", dest="output_dir",
                       default=os.environ.get("SVRB_OUTPUT_DIR"))
        p.add_argument("--save-rb", dest="save_rb")
        p.add_argument("--load-rb", dest="load_rb")
        p.add_argument("--dump-matrices", dest="dump_matrices", action="store_true")

    add_experiment_flags(sub.add_parser("run", help="run one experiment"))
    pa = sub.add_parser("analyze", help="regenerate tables from run artifacts")
    pa.add_argument("run_dirs", nargs="+")
    add_experiment_flags(sub.add_parser("bench", help="timing comparison table"))
    pv = sub.add_parser("verify", help="run the invariant and bound suite")
    pv.add_argument("--quick", action="store_true")
    pv.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(quick=args.quick, seed=args.seed)
        if args.command == "analyze":
            return cmd_analyze(args.run_dirs)
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
        cfg = _apply_overrides(cfg, args)
        _validate(cfg)  # flags bypass the check in from_dict
        if cfg.output_dir is None:
            cfg.output_dir = "runs/out"
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except _CONFIG as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
