"""Spans around calls into the svrb modules, installed from outside the package.

A :class:`Tracer` replaces a function or method with a wrapper that records a
span: its name, start, end and parent span, plus the number of sparse
factorizations (``scipy.sparse.linalg.splu`` calls) seen so far at its start
and end.  Names are patched where they are looked up at call time, so a name
imported into another module (``svrb.cli.assemble_problem``) is patched
there.  Spans stay in memory until :func:`dump` writes them out.

Two sets of wrappers exist.  ``PROBES`` holds only the handful of entry
points the end-to-end metrics need (set-up end, sampler start and end), so
an untraced run pays for a few wrapper calls per sampler run.  ``SPANS``
adds every public function the per-module metrics time.
"""

import json
import math
import os
import time

import scipy.sparse.linalg as spla

import svrb.adaptive
import svrb.backends
import svrb.cli
import svrb.fem
import svrb.hifi
import svrb.reduced
import svrb.runlog
import svrb.svgd

_PROBLEM = svrb.fem.AffineParametricProblem
_RB = svrb.reduced.ReducedModel
_RB_BACKEND = svrb.backends.RBBackend


def _svgd_run_out(args, kwargs, out):
    ensemble, log = out
    backend = args[0]
    return {
        "final": ensemble.particles.copy(),
        "stamps": [r.timestamp for r in log.records],
        "iterations": len(log.records),
        "backend_evaluations": getattr(backend, "n_evaluations", None),
    }


def _model_out(rm):
    return {"n_state": rm.n_state, "n_adjoint": rm.n_adjoint,
            "provenance": len(rm.provenance)}


def _line_search_out(args, kwargs, out):
    alpha, exhausted, n_evals = out
    alpha_init = args[4] if len(args) > 4 else kwargs.get("alpha_init", 1.0)
    max_backtracks = args[5] if len(args) > 5 else kwargs.get("max_backtracks", 20)
    if n_evals == 0:
        return {"trials": 0, "backtracks": 0, "exhausted": 0}
    halvings = int(round(math.log2(alpha_init / alpha)))
    if exhausted:
        return {"trials": max_backtracks, "backtracks": max_backtracks, "exhausted": 1}
    return {"trials": halvings + 1, "backtracks": halvings, "exhausted": 0}


def _sweep_out(args, kwargs, out):
    return {"passes": len(out.history), "enriched": out.n_enriched,
            "skipped": len(out.skipped)}


def _factor_out(args, kwargs, out):
    return {"theta": bytes(args[0].theta.tobytes())}


def _write_out(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, extractor of extra data from the call)
PROBES = [
    (svrb.cli, "assemble_problem", "cases.assemble_problem", None),
    (svrb.cli, "svgd_run", "svgd.run", _svgd_run_out),
    (svrb.adaptive, "svgd_run", "svgd.run", _svgd_run_out),
    (svrb.adaptive, "run_svrb", "adaptive.run_svrb",
     lambda a, k, out: _model_out(out[1])),
    (svrb.adaptive, "build_fixed_rb", "adaptive.build_fixed_rb",
     lambda a, k, out: _model_out(out[0])),
    # a high-fidelity trial can factorize and then fail its residual check
    (svrb.backends.HiFiBackend, "evaluate", "backends.evaluate", None),
    (svrb.backends.HiFiBackend, "potential", "backends.potential", None),
]

SPANS = PROBES + [
    (svrb.cli, "cmd_run", "cli.run", None),
    (_PROBLEM, "operator", "fem.operator", None),
    (_PROBLEM, "eval_coefficients", "fem.eval_coefficients", None),
    (_PROBLEM, "conservative_field_min", "fem.coercivity_guard", None),
    (_PROBLEM, "check_coercive", "fem.coercivity_guard", None),
    (svrb.hifi.Factorization, "__init__", "hifi.factor", _factor_out),
    (svrb.hifi.Factorization, "solve", "hifi.solve", None),
    (svrb.hifi, "evaluate", "hifi.evaluate", None),
    (svrb.hifi, "potential", "hifi.potential", None),
    (_RB, "evaluate", "reduced.evaluate", None),
    (_RB, "potential", "reduced.potential", None),
    (_RB, "dwr", "reduced.dwr", None),
    (_RB, "enrich", "reduced.enrich", None),
    (_RB, "save", "reduced.save", None),
    (_RB_BACKEND, "evaluate", "backends.evaluate", None),
    (_RB_BACKEND, "potential", "backends.potential", None),
    (svrb.svgd, "svgd_direction", "svgd.direction", None),
    (svrb.svgd, "median_bandwidth", "svgd.direction", None),
    (svrb.svgd, "line_search", "svgd.line_search", _line_search_out),
    (svrb.adaptive, "initialize", "adaptive.initialize", None),
    (svrb.adaptive, "greedy_sweep", "adaptive.greedy_sweep", _sweep_out),
    (svrb.runlog.RunLog, "write_jsonl", "runlog.write", _write_out),
    (svrb.runlog.RunLog, "write_particles_csv", "runlog.write", _write_out),
    (svrb.runlog.RunLog, "write_history_csv", "runlog.write", _write_out),
]

# span record layout
NAME, START, END, PARENT, SPLU0, SPLU1, EXTRA, ERROR = range(8)


class Tracer:
    """Records spans for the wrappers it installs; remove them with :meth:`close`."""

    def __init__(self, table):
        self.spans = []
        self.splu_calls = 0
        self._stack = []
        self._undo = []
        for owner, attr, name, extract in table:
            self._wrap(owner, attr, name, extract)
        self._count_splu()

    def _traced(self, original, name, extract):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.splu_calls, 0, None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                rec[SPLU1] = tracer.splu_calls
                tracer._stack.pop()
            if extract is not None:
                rec[EXTRA] = extract(args, kwargs, out)
            return out

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap(self, owner, attr, name, extract):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, name, extract))

    def _count_splu(self):
        original = spla.splu
        tracer = self

        def splu(*args, **kwargs):
            tracer.splu_calls += 1
            return original(*args, **kwargs)

        self._undo.append((spla, "splu", original))
        spla.splu = splu

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span opened by the benchmark itself."""
        return self._traced(fn, name, None)(*args)

    def close(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def dump(fh, spans):
    """Write each span as one JSON line; extras that are not scalars are dropped."""
    for rec in spans:
        extra = {k: v for k, v in (rec[EXTRA] or {}).items()
                 if isinstance(v, (int, float, str))}
        fh.write(json.dumps({"name": rec[NAME], "start": rec[START], "end": rec[END],
                             "parent": rec[PARENT], "error": rec[ERROR],
                             "extra": extra}) + "\n")


def self_times(spans, lo=0, hi=None):
    """Self time of each span in ``spans[lo:hi]``: duration minus direct children."""
    hi = len(spans) if hi is None else hi
    child = [0.0] * (hi - lo)
    for rec in spans[lo:hi]:
        p = rec[PARENT]
        if p >= lo:
            child[p - lo] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans[lo:hi], child)]
