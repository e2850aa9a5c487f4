"""One workload of the svrb benchmark, run in a single process.

Every operation is one ``svrb run`` made in-process through
``svrb.cli.main`` from a configuration file written here; the workload seed
only picks the sampler seeds of those runs.  A run of this script:

1. makes one untimed reference run at the first sampler seed (it warms the
   process and is the reference for the bitwise repeat check);
2. makes the first pass, one ``svrb run`` per sampler seed, untraced with
   ``--trace 0`` and with every module span installed with ``--trace 1``;
   untraced, runs at further sampler seeds follow while they fit in
   ``--seconds``; traced, untraced repeats of three completed runs give the
   tracing overhead;
3. checks every output after timing, computes the surrogate error against
   high-fidelity solves, and prints the metrics.

The last line of standard output is the JSON result.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import svrb
from svrb import cli, hifi
from svrb.cases import assemble_problem
from svrb.config import ExperimentConfig
from svrb.fem import CoercivityLost
from svrb.reduced import ReducedModel
from svrb.svgd import draw_prior

import tracing
from tracing import END, ERROR, EXTRA, NAME, PARENT, SPLU0, SPLU1, START

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLERS = ("adaptive.run_svrb", "adaptive.build_fixed_rb", "svgd.run")
# spans that only call other spans; self time here is work no span covers
GLUE = ("cli.main", "cli.run", "svgd.run", "adaptive.run_svrb", "adaptive.initialize")
OVERHEAD_RUNS = 3
MAX_SEEDS = 200  # sampler seeds drawn per workload seed, more than a run can use
LAYERS = ("cases", "fem", "hifi", "reduced", "backends", "svgd", "adaptive", "runlog", "cli")


# -- one operation -------------------------------------------------------------


class Op:
    """Outcome of one ``svrb run``: exit code, timings, counts, outputs."""

    def __init__(self, seed, tag, cfg, outdir):
        self.seed, self.tag, self.cfg, self.outdir = seed, tag, cfg, outdir
        self.rc = None
        self.stderr = ""
        self.setup_s = self.total_s = self.sample_s = math.nan
        self.hifi_solves = 0
        self.iter_times = []
        self.final = None
        self.iterations = None
        self.backend_evaluations = None
        self.failed_trials = 0
        self.model = None
        self.spans = []
        self.reasons = []

    @property
    def completed(self):
        return self.rc == 0

    def signature(self):
        """Everything a repeat at the same seed must reproduce exactly."""
        final = None if self.final is None else self.final.tobytes()
        return (self.rc, self.hifi_solves, self.iterations, final,
                None if self.model is None else tuple(sorted(self.model.items())))


def run_op(workdir, wl, seed, tag, table):
    cfg = dict(wl["config"], seed=int(seed), output_dir=os.path.join(workdir, tag))
    cfg_path = os.path.join(workdir, tag + ".json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    op = Op(int(seed), tag, cfg, cfg["output_dir"])
    err = io.StringIO()
    offset = time.time() - time.perf_counter()
    tracer = tracing.Tracer(table)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            op.rc = tracer.call("cli.main", cli.main, ["run", "--config", cfg_path])
    except Exception:  # a crash is one failed operation, not the end of the run
        op.rc = -1
        op.reasons.append("uncaught exception: " + traceback.format_exc(limit=3))
    finally:
        tracer.close()
    op.stderr = err.getvalue().strip()
    op.spans = tracer.spans
    root = tracer.spans[0]
    op.total_s = root[END] - root[START]
    _read_spans(op, offset)
    return op


def _read_spans(op, offset):
    spans = op.spans
    setup_end = [r[END] for r in spans if r[NAME] == "cases.assemble_problem"]
    top = [r for r in spans if r[NAME] in SAMPLERS
           and (r[PARENT] < 0 or spans[r[PARENT]][NAME] not in SAMPLERS)]
    if not setup_end or not top:
        if op.rc == 0:
            op.reasons.append("no set-up or sampler call was seen")
        return
    op.setup_s = setup_end[0] - spans[0][START]
    op.sample_s = max(r[END] for r in top) - setup_end[0]
    op.hifi_solves = sum(r[SPLU1] - r[SPLU0] for r in top)
    op.failed_trials = sum(1 for r in spans if r[NAME].startswith("backends.")
                           and r[ERROR] is not None and r[SPLU1] > r[SPLU0])
    for r in spans:
        if r[EXTRA] is None:
            continue
        if r[NAME] == "svgd.run":
            x = r[EXTRA]
            op.final, op.iterations = x["final"], x["iterations"]
            op.backend_evaluations = x["backend_evaluations"]
            stamps = [r[START] + offset] + x["stamps"]
            op.iter_times = [float(t) for t in np.diff(stamps)]
        elif r[NAME] in ("adaptive.run_svrb", "adaptive.build_fixed_rb"):
            op.model = r[EXTRA]


# -- output checks -------------------------------------------------------------


def check_op(op, problem, rb):
    """Append a reason to ``op.reasons`` for every check the run fails."""
    if op.rc == 3:
        _check_abort(op, problem)
        return
    if op.rc != 0:
        op.reasons.append(f"exit code {op.rc}: {op.stderr[-300:]}")
        return
    steps, m = op.cfg["max_steps"], op.cfg["particles"]
    if op.iterations != steps:
        op.reasons.append(f"{op.iterations} iterations, {steps} requested")
    if op.final is None or not np.isfinite(op.final).all():
        op.reasons.append("final ensemble missing or not finite")
        return
    try:
        _check_files(op, steps, m)
    except (OSError, ValueError, KeyError) as exc:
        op.reasons.append(f"run directory does not parse: {exc!r}")
    if rb:
        try:
            stored = ReducedModel.load(os.path.join(op.outdir, "rb.npz"))
        except (OSError, ValueError, KeyError) as exc:
            op.reasons.append(f"rb.npz does not load: {exc!r}")
            return
        if len(stored.provenance) != op.hifi_solves:
            op.reasons.append(f"{op.hifi_solves} factorizations counted, "
                              f"rb.npz provenance has {len(stored.provenance)}")
        if op.model and stored.n_state != op.model["n_state"]:
            op.reasons.append("rb.npz basis size differs from the returned model")
    elif op.backend_evaluations + op.failed_trials != op.hifi_solves:
        op.reasons.append(f"{op.hifi_solves} factorizations counted, HiFiBackend.n_evaluations "
                          f"is {op.backend_evaluations} plus {op.failed_trials} failed trials")


def _check_abort(op, problem):
    """Exit 3 is correct only for the documented cause: a non-coercive prior draw."""
    draw = draw_prior(problem.prior, op.cfg["particles"], op.seed)
    coercive = []
    for theta in draw:
        try:
            problem.check_coercive(theta)
            coercive.append(True)
        except CoercivityLost:
            coercive.append(False)
    if all(coercive):
        op.reasons.append("exit 3 although every particle of the prior draw is coercive: "
                          + op.stderr[-300:])
    elif not op.stderr.startswith("numerical abort"):
        op.reasons.append("exit 3 without a numerical-abort message")


def _check_files(op, steps, m):
    with open(os.path.join(op.outdir, "config.json")) as fh:
        stored = json.load(fh)
    if stored["seed"] != op.seed or stored["particles"] != m:
        raise ValueError("config.json does not match the requested run")
    with open(os.path.join(op.outdir, "runlog.jsonl")) as fh:
        lines = [json.loads(line) for line in fh]
    if "meta" not in lines[0] or len(lines) - 1 != steps:
        raise ValueError(f"runlog.jsonl has {len(lines) - 1} records, {steps} expected")
    with open(os.path.join(op.outdir, "history.csv")) as fh:
        if len(list(csv.DictReader(fh))) != steps:
            raise ValueError("history.csv row count")
    with open(os.path.join(op.outdir, "particles.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != (steps + 1) * m:
        raise ValueError(f"particles.csv has {len(rows)} rows, {(steps + 1) * m} expected")
    final = np.array([[float(v) for k, v in r.items() if k.startswith("theta_")]
                      for r in rows if int(r["l"]) == steps])
    if final.shape != op.final.shape or not np.array_equal(final, op.final):
        raise ValueError("final particles in particles.csv differ from the returned ensemble")


def surrogate_error(op, problem):
    """Max over final particles of |eta_delta - eta_h| / |eta_h|, hifi solves after timing."""
    rm = ReducedModel.load(os.path.join(op.outdir, "rb.npz"))
    worst, skipped = 0.0, 0
    for theta in op.final:
        try:
            eta_h, _ = hifi.potential(problem, theta)
        except CoercivityLost:
            skipped += 1
            continue
        _, eta_delta, _, _ = rm.potential(problem, theta)
        worst = max(worst, abs(eta_delta - eta_h) / abs(eta_h))
    return worst, skipped


# -- metrics -------------------------------------------------------------------


def end_to_end(ops, pass1, rss_mb, q):
    """Run timings are means over the timed runs: the host's speed flickers
    between states faster than one run, and a median jumps between them where
    a mean does not.  Iteration times come from the first pass only, so the
    pool size does not grow when the code gets faster."""
    done = [op for op in ops if op.completed]
    pool = [t for op in pass1 if op.completed for t in op.iter_times]
    return {
        "setup_s": (statistics.median(op.setup_s for op in ops
                                      if not math.isnan(op.setup_s)), "s"),
        "sample_s": (statistics.fmean(op.sample_s for op in done), "s"),
        "total_s": (statistics.fmean(op.total_s for op in done), "s"),
        "iter_s.p50": (statistics.median(pool), "s"),
        "iter_s.tail": (float(np.percentile(pool, q)), "s"),
        "hifi_solves": (statistics.fmean(op.hifi_solves for op in pass1), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, len(pool)


def _ancestor_named(spans, rec, name, depth):
    p = rec[PARENT]
    for _ in range(depth):
        if p < 0:
            return False
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def per_layer(ops):
    """Per-module metrics, each a mean per traced ``svrb run``."""
    calls, self_s, incl_s, layer_s = {}, {}, {}, dict.fromkeys(LAYERS, 0.0)
    extra = dict.fromkeys(("trials", "backtracks", "exhausted", "passes", "enriched",
                           "skipped", "bytes", "iterations"), 0)
    ind_evals = sweep_dwr = snapshots = factors = repeats = failed_trials = 0
    glue_s = 0.0
    n_state, n_adjoint = [], []
    for op in ops:
        spans = op.spans
        seen = set()
        for rec, own in zip(spans, tracing.self_times(spans)):
            name = rec[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            incl_s[name] = incl_s.get(name, 0.0) + rec[END] - rec[START]
            layer_s[name.split(".")[0]] += own
            if name in GLUE:
                glue_s += own
            for key, value in (rec[EXTRA] or {}).items():
                if key in extra:
                    extra[key] += value
            if name == "hifi.factor" and rec[ERROR] is None:
                factors += 1
                repeats += rec[EXTRA]["theta"] in seen
                seen.add(rec[EXTRA]["theta"])
            elif name.startswith("backends.") and rec[ERROR] is not None:
                failed_trials += 1
            elif name == "reduced.potential" and _ancestor_named(spans, rec, "adaptive.greedy_sweep", 1):
                ind_evals += 1
            elif name == "reduced.dwr" and _ancestor_named(spans, rec, "adaptive.greedy_sweep", 2):
                sweep_dwr += 1
            elif name == "hifi.evaluate" and _ancestor_named(spans, rec, "adaptive.greedy_sweep", 1):
                snapshots += 1
        if op.model:
            n_state.append(op.model["n_state"])
            n_adjoint.append(op.model["n_adjoint"])
    n = len(ops)

    def c(name):
        return calls.get(name, 0) / n

    def s(name):
        return self_s.get(name, 0.0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["cases.assemble_problem.s"] = (s("cases.assemble_problem"), "s")
    for name in ("fem.operator", "fem.eval_coefficients", "fem.coercivity_guard",
                 "hifi.factor", "hifi.solve", "hifi.evaluate", "hifi.potential",
                 "reduced.evaluate", "reduced.potential", "reduced.enrich",
                 "backends.evaluate", "backends.potential", "svgd.line_search",
                 "adaptive.greedy_sweep"):
        m[name + ".calls"] = (c(name), "count")
        m[name + ".s"] = (s(name), "s")
    m["hifi.factor.repeat_frac"] = (ratio(repeats, factors), "ratio")
    m["reduced.dwr.calls"] = (c("reduced.dwr"), "count")
    m["reduced.n_state"] = (statistics.fmean(n_state) if n_state else 0.0, "count")
    m["reduced.n_adjoint"] = (statistics.fmean(n_adjoint) if n_adjoint else 0.0, "count")
    m["reduced.save.s"] = (s("reduced.save"), "s")
    m["backends.failed_trials"] = (failed_trials / n, "count")
    m["backends.potential_per_evaluate"] = (
        ratio(calls.get("backends.potential", 0), calls.get("backends.evaluate", 0)), "ratio")
    m["svgd.direction.s"] = (s("svgd.direction"), "s")
    for key in ("trials", "backtracks", "exhausted"):
        m["svgd.line_search." + key] = (extra[key] / n, "count")
    m["svgd.line_search.incl_s"] = (incl_s.get("svgd.line_search", 0.0) / n, "s")
    m["svgd.run.self_s"] = (s("svgd.run"), "s")
    m["svgd.iterations"] = (extra["iterations"] / n, "count")
    for key in ("passes", "enriched", "skipped"):
        m["adaptive.greedy_sweep." + key] = (extra[key] / n, "count")
    m["adaptive.greedy_sweep.incl_s"] = (incl_s.get("adaptive.greedy_sweep", 0.0) / n, "s")
    m["adaptive.indicator.evals"] = (ind_evals / n, "count")
    m["adaptive.dwr_per_indicator"] = (ratio(sweep_dwr, ind_evals), "ratio")
    m["adaptive.sweep.yield"] = (ratio(extra["enriched"], snapshots), "ratio")
    m["runlog.write.s"] = (s("runlog.write"), "s")
    m["runlog.bytes"] = (extra["bytes"] / n, "B")
    m["cli.run.self_s"] = (s("cli.run"), "s")
    for layer in LAYERS:
        m[layer + ".self_s"] = (layer_s[layer] / n, "s")
    m["trace.wall_s"] = (sum(op.total_s for op in ops) / n, "s")
    m["trace.accounted_frac"] = (1.0 - ratio(glue_s / n, m["trace.wall_s"][0]), "ratio")
    m["trace.spans"] = (sum(len(op.spans) for op in ops) / n, "count")
    top_span = max(self_s, key=self_s.get)
    top_layer = max(layer_s, key=layer_s.get)
    dominant = (f"layer {top_layer} ({layer_s[top_layer] / n:.3g} s self per run), "
                f"span {top_span} ({self_s[top_span] / n:.3g} s self per run)")
    return m, calls, dominant


# -- environment -----------------------------------------------------------------


def environment():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (np, scipy):
        info = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas[mod.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "svrb": svrb.__version__,
    }


# -- main ------------------------------------------------------------------------


def first_pass(workdir, wl, seeds, table):
    """One ``svrb run`` per seed; chains-style workloads extend until enough complete.

    Its length depends on the seeds only, so the iteration pool and the counts
    taken from it do not change when the program gets faster.
    """
    ops = []
    need = wl.get("min_completed", 0)
    for k, seed in enumerate(seeds[:wl.get("max_runs", wl["runs"])]):
        if k >= wl["runs"] and sum(op.completed for op in ops) >= need:
            break
        ops.append(run_op(workdir, wl, seed, f"p0-{k}", table))
    return ops


def declared_metrics(kind):
    """``{name: unit}`` of one metric list in BENCHMARK.json, or None without the file."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; known: {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(svrb.__file__).startswith(src + os.sep):
        print(f"svrb imported from {svrb.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    index = sorted(spec["workloads"]).index(args.workload)
    seeds = np.random.default_rng([args.seed, index]).integers(0, 2**31 - 1, size=MAX_SEEDS)
    workdir = os.path.join(os.getcwd(), ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment()
    print("env " + json.dumps(env))

    t_begin = time.perf_counter()
    reference = run_op(workdir, wl, seeds[0], "ref", tracing.PROBES)
    table = tracing.SPANS if args.trace else tracing.PROBES
    pass1 = first_pass(workdir, wl, seeds, table)
    timed, paired, untraced = list(pass1), [], []
    if args.trace:
        # untraced repeats of a few completed runs give the tracing overhead
        paired = [op for op in pass1 if op.completed][:OVERHEAD_RUNS]
        untraced = [run_op(workdir, wl, op.seed, f"untraced-{k}", tracing.PROBES)
                    for k, op in enumerate(paired)]
    else:
        # fresh seeds, not repeats, so the timings cover more inputs
        per_run = (time.perf_counter() - t_begin) / (len(pass1) + 1)
        for k in range(len(pass1), MAX_SEEDS):
            if time.perf_counter() - t_begin + per_run > args.seconds:
                break
            timed.append(run_op(workdir, wl, seeds[k], f"p0-{k}", table))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - t_begin
    problem = assemble_problem(
        ExperimentConfig.from_json(os.path.join(workdir, "ref.json")).build_case())
    ops = [reference] + timed + untraced

    # -- checks, after timing
    rb = wl["config"]["backend"]["kind"] != "hifi"
    for op in ops:
        check_op(op, problem, rb)
    first = {}
    for op in ops:
        if op.seed in first and op.signature() != first[op.seed].signature():
            op.reasons.append(f"not bitwise identical to the earlier run at seed {op.seed}")
        first.setdefault(op.seed, op)
    errors, skipped_eta = [], 0
    if rb:
        for op in pass1:
            if op.completed and not op.reasons:
                worst, skipped = surrogate_error(op, problem)
                errors.append(worst)
                skipped_eta += skipped
                if worst > wl["surrogate_tol"]:
                    op.reasons.append(f"surrogate_err {worst:.3e} > tolerance {wl['surrogate_tol']}")
    run_reasons = []
    completed = [op for op in timed if op.completed]
    metrics_e2e, pool_n = ({}, 0) if not completed else end_to_end(
        timed, pass1, rss_mb, wl["tail_percentile"])
    beyond = (100 - wl["tail_percentile"]) * pool_n / 100
    if completed and beyond < 10:
        run_reasons.append(f"only {beyond:.1f} iterations beyond the tail percentile, 10 needed")
    aborts = sum(op.rc == 3 for op in timed)
    layer, calls, dominant = {}, {}, None
    if args.trace:
        layer, calls, dominant = per_layer(pass1)
        missing = [name for name in wl["spans"] if not calls.get(name)]
        if missing:
            run_reasons.append(f"predicted spans never fired: {missing}")
        accounted = layer["trace.accounted_frac"][0]
        if accounted < 0.95:
            run_reasons.append(f"spans below the glue spans {GLUE} cover only "
                               f"{accounted:.3f} of total_s")
        pairs = [t.sample_s - u.sample_s for t, u in zip(paired, untraced) if u.completed]
        layer["trace.overhead_s"] = (statistics.median(pairs) if pairs else 0.0, "s")
        layer["surrogate_err"] = (statistics.median(errors) if errors else 0.0, "rel")
        layer["cli.aborts"] = (float(aborts), "count")
        layer["cli.abort_share"] = (aborts / len(timed), "ratio")
        with open(os.path.join(workdir, "trace.jsonl"), "w") as fh:
            for op in pass1:
                fh.write(json.dumps({"run": op.tag, "seed": op.seed}) + "\n")
                tracing.dump(fh, op.spans)

    failed = [op for op in ops if op.reasons]
    for op in failed:
        for reason in op.reasons:
            print(f"FAILED {op.tag} seed {op.seed}: {reason}")
    for reason in run_reasons:
        print(f"CHECK FAILED: {reason}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} runs "
          f"({len(timed)} timed, {len(pass1)} in the first pass), measured {measured_s:.1f} s; "
          f"aborts (exit 3, non-coercive prior draw) {aborts} of {len(timed)}")
    print(f"iter_s.tail = p{wl['tail_percentile']} of {pool_n} iterations of the first pass; "
          f"surrogate_err = {statistics.median(errors) if errors else 'n/a'} "
          f"(median over {len(errors)} runs, max {max(errors, default='n/a')}, "
          f"tolerance {wl['surrogate_tol']}, "
          f"{skipped_eta} non-coercive final particles skipped)")
    for name, (value, unit) in {**metrics_e2e, **layer}.items():
        print(f"  {name:<34} {value!r:>24} {unit}")
    if args.trace:
        shares = {name: layer[name + ".incl_s"][0] / layer["trace.wall_s"][0]
                  for name in ("svgd.line_search", "adaptive.greedy_sweep")}
        print(f"dominant by self time: {dominant}; predicted {wl['dominant']}; "
              f"inclusive share of total_s: {shares}")
    if not completed:
        print("no timed run completed, so no metric can be reported", file=sys.stderr)
        return 1
    reported = layer if args.trace else metrics_e2e
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None and declared != {k: u for k, (_, u) in reported.items()}:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(reported))}",
              file=sys.stderr)
        return 2
    summary = {
        "correct": not failed and not run_reasons,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"env": env, **summary, "runs": [
            {"tag": op.tag, "seed": op.seed, "exit": op.rc, "sample_s": op.sample_s,
             "total_s": op.total_s, "hifi_solves": op.hifi_solves, "reasons": op.reasons}
            for op in ops]}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
