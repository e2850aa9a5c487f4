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
from .svgd import NumericalAbort, svgd_run

# only these mean "the numerics gave out"; any other error is a bug and surfaces
_NUMERICAL = (NumericalAbort, CoercivityLost, SolveFailed, RBSolveFailed)
_CONFIG = (ConfigError, ConfigurationError, UnsupportedCoefficient)


def _load_rb(path, problem):
    """Load a stored reduced model, refusing a file that does not read as one,
    one built for another problem and one that holds no snapshot."""
    try:
        rm = ReducedModel.load(path)
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read reduced model {path}: {exc!r}") from exc
    if rm.fingerprint != problem_fingerprint(problem):
        raise ConfigError(f"reduced model {path} was built for another problem: "
                          f"{rm.fingerprint} != {problem_fingerprint(problem)}")
    if not rm.provenance:
        raise ConfigError(f"reduced model {path} holds no snapshot")
    return rm


def _read_run_file(read, path):
    """``read(path)``; a missing or damaged run file is a configuration error."""
    try:
        return read(path)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc!r}") from exc


def _make_output_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc!r}") from exc
    return path


def _dump_matrices(problem, outdir):
    import scipy.io as sio

    mdir = os.path.join(outdir, "matrices")
    os.makedirs(mdir, exist_ok=True)
    for j, data in enumerate(problem.A_data):
        sio.mmwrite(os.path.join(mdir, f"A_{j}.mtx"), problem.stiffness(data))
    sio.mmwrite(os.path.join(mdir, "gram.mtx"), problem.gram)
    sio.mmwrite(os.path.join(mdir, "obs.mtx"), problem.obs_matrix)
    for k, vec in enumerate(problem.f_data):
        np.savetxt(os.path.join(mdir, f"f_{k}.txt"), vec)
    # row k of every matrix and vector above belongs to grid node free_dofs[k]
    np.savetxt(os.path.join(mdir, "free_dofs.txt"), problem.free_dofs, fmt="%d")


def cmd_run(cfg):
    """Execute one experiment end to end and persist its artifacts."""
    problem = assemble_problem(cfg.build_case())
    outdir = _make_output_dir(cfg.output_dir)
    if cfg.dump_matrices:
        _dump_matrices(problem, outdir)

    scfg = cfg.svgd_config()
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
        ensemble, log = svgd_run(backend, problem.prior, scfg)
    elif cfg.backend.kind == "rb-fixed":
        if cfg.load_rb:
            rm = _load_rb(cfg.load_rb, problem)
        else:
            rm, _ = adaptive.build_fixed_rb(problem, scfg, cfg.backend.tol,
                                            cfg.backend.max_basis)
        backend = RBBackend(problem, rm)
        ensemble, log = svgd_run(backend, problem.prior, scfg)
    else:
        ensemble, rm, log = adaptive.run_svrb(problem, scfg, cfg.adaptive_config())

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
        log = _read_run_file(RunLog.read_jsonl, os.path.join(rundir, "runlog.jsonl"))
        log.write_history_csv(os.path.join(rundir, "history.csv"))
        log.write_phases_csv(os.path.join(rundir, "phases.csv"))

        particles, final_l = _read_run_file(_read_final_particles,
                                            os.path.join(rundir, "particles.csv"))
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
    keys = [k for k in rows[0] if k.startswith("theta_")]
    if not keys:
        raise ValueError("no theta_* columns")
    return np.array([[float(r[k]) for k in keys] for r in rows if int(r["l"]) == final_l]), final_l


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
    outdir = _make_output_dir(cfg.output_dir)
    scfg = cfg.svgd_config()

    # warm-up factorization, excluded from all timings
    hifi.Factorization(problem, problem.theta_ref)

    hifi_backend = HiFiBackend(problem)
    t0 = time.perf_counter()
    svgd_run(hifi_backend, problem.prior, scfg)
    hifi_eval = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, rm, log = adaptive.run_svrb(problem, scfg, cfg.adaptive_config())
    rb_total = time.perf_counter() - t0
    rb_build = log.meta["rb_offline_seconds"]
    rb_eval = rb_total - rb_build

    ratio = speedup_ratio(hifi_eval, rb_build, rb_eval)
    hifi_solves, rb_solves = hifi_backend.n_evaluations, len(rm.provenance)
    rows = [
        {"pipeline": "hifi", "dofs": problem.n_dofs_raw, "n_rb": "",
         "build_seconds": 0.0, "eval_seconds": hifi_eval, "hifi_solves": hifi_solves,
         "speedup": 1.0, "solve_ratio": 1.0},
        {"pipeline": "rb-adaptive", "dofs": problem.n_dofs_raw, "n_rb": rm.n_state,
         "build_seconds": rb_build, "eval_seconds": rb_eval, "hifi_solves": rb_solves,
         "speedup": ratio, "solve_ratio": hifi_solves / rb_solves},
    ]
    path = os.path.join(outdir, "bench.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print("".join(f"{key:>14}" for key in rows[0]))
    for r in rows:
        print("".join(f"{v:>14.2f}" if isinstance(v, float) else f"{v!s:>14}"
                      for v in r.values()))
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
    if getattr(args, "backend", None):
        cfg.backend.kind = args.backend
    for target, names in ((cfg, ("particles", "max_steps", "seed", "output_dir",
                                 "save_rb", "load_rb", "svgd_tol")),
                          (cfg.backend, ("tol", "eps0", "update_every", "rule"))):
        for name in names:
            value = getattr(args, name, None)
            if value is not None:
                setattr(target, name, value)
    if getattr(args, "dump_matrices", False):
        cfg.dump_matrices = True
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
        return cmd_run(cfg) if args.command == "run" else cmd_bench(cfg)
    except _CONFIG as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
