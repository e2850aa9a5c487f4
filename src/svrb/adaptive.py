"""Adaptive greedy construction of the reduced model along the sampler run.

The sampler's particles double as the training set: at every update step
the largest dual-weighted-residual indicator over the current particles
drives snapshot selection, and the greedy tolerance shrinks with the
sampler's own convergence indicator, so the surrogate gets more accurate
exactly where (and when) the particles concentrate.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hifi
from .backends import RBBackend
from .fem import CoercivityLost
from .reduced import ReducedModel
from .svgd import draw_prior, svgd_run

# a reselected snapshot parameter must cut its indicator by this fraction
STAGNATION_DROP = 0.1


@dataclass
class AdaptiveConfig:
    eps0: float = 0.1
    update_every: int = 10          # sweep period in sampler iterations; inf/None = never
    rule: str = "normalized"        # eps0 * t_l / t_0, or "absolute": eps0 * t_l
    eps_min: float = 1e-12
    max_basis: int = 500

    def __post_init__(self):
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if self.update_every is not None and self.update_every != math.inf and self.update_every < 1:
            raise ValueError("update period must be >= 1")
        if self.rule not in ("normalized", "absolute"):
            raise ValueError(f"unknown tolerance rule {self.rule!r}")


@dataclass
class SweepResult:
    n_enriched: int
    max_indicator: float
    history: list = field(default_factory=list)  # max indicator after each pass
    flags: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # particle indices lost to coercivity


def initialize(problem, theta):
    """Seed both bases with normalized high-fidelity snapshots at ``theta``."""
    ev = hifi.evaluate(problem, theta)
    rm = ReducedModel.empty(problem)
    rm.enrich(problem, ev.u, ev.psi, theta)
    return rm


def tolerance_update(cfg, t_l, t_0, previous=None):
    """Next greedy tolerance from the sampler indicator, never increasing."""
    if cfg.rule == "normalized":
        value = cfg.eps0 * (t_l / t_0 if t_0 > 0 else 1.0)
    else:
        value = cfg.eps0 * t_l
    value = min(max(value, cfg.eps_min), cfg.eps0)
    if previous is not None:
        value = min(value, previous)
    return value


def greedy_sweep(rm, problem, particles, tol, max_basis=500):
    """Enrich at worst-indicator particles until all are within ``tol``.

    Each pass scores every particle not yet excluded in one online pass.
    Stops early when the basis cap is reached or when the selected
    parameter is already a snapshot and its indicator refuses to drop
    (both loudly flagged).  Particles whose high-fidelity solve loses
    coercivity are skipped for the sweep.
    """
    particles = np.atleast_2d(particles)
    coeffs = problem.eval_coefficients(particles)  # the particles stay put within a sweep
    result = SweepResult(n_enriched=0, max_indicator=np.inf)
    live = np.ones(len(particles), dtype=bool)
    last_selected = {}  # theta bytes -> indicator when last selected

    while True:
        vals = np.full(len(particles), -np.inf)
        if live.any():
            live_coeffs = tuple(c[live] for c in coeffs)
            vals[live] = np.abs(rm._solve_online(problem, particles[live], live_coeffs).delta)
        worst = float(vals.max())
        result.history.append(worst)
        result.max_indicator = worst
        if worst <= tol:
            break
        if rm.n_state >= max_basis or rm.n_adjoint >= max_basis:
            result.flags.append("basis_cap")
            break
        pick = int(np.argmax(vals))  # argmax; ties resolve to the lowest index
        theta = particles[pick]
        key = theta.tobytes()
        seen = any(np.array_equal(theta, p) for p in rm.provenance)
        if seen and key in last_selected and vals[pick] > (1 - STAGNATION_DROP) * last_selected[key]:
            result.flags.append("stagnation")
            break
        last_selected[key] = vals[pick]
        try:
            ev = hifi.evaluate(problem, theta)
        except CoercivityLost:
            live[pick] = False
            result.skipped.append(pick)
            continue
        rm.enrich(problem, ev.u, ev.psi, theta)
        result.n_enriched += 1
    return result


def run_svrb(problem, svgd_config, adaptive_config, alpha_schedule=None, log_meta=None):
    """Sampler run with interleaved greedy surrogate refreshes.

    Draws the particles, seeds the reduced model at the first one, runs the
    initial greedy sweep on the prior ensemble, then hands an enrichment
    hook to the sampler: every ``update_every`` iterations the tolerance is
    refreshed from the latest stopping indicator and a sweep re-certifies
    the surrogate on the current particles.  Returns
    ``(ensemble, model, runlog)``; ``runlog.meta["rb_offline_seconds"]``
    is the time spent seeding the model and in greedy sweeps.
    """
    particles0 = draw_prior(problem.prior, svgd_config.n_particles, svgd_config.seed)
    t0 = time.perf_counter()
    rm = initialize(problem, particles0[0])
    sweep0 = greedy_sweep(rm, problem, particles0, adaptive_config.eps0,
                          adaptive_config.max_basis)
    offline = {"seconds": time.perf_counter() - t0}
    backend = RBBackend(problem, rm, adaptive=True)

    state = {"tol": adaptive_config.eps0, "t0": None}
    period = adaptive_config.update_every
    if period in (None, math.inf):
        period = None

    initial_sweep = {"eps_r": adaptive_config.eps0, "n_enriched": 1 + sweep0.n_enriched,
                     "certified_max_indicator": sweep0.max_indicator,
                     "flags": list(sweep0.flags)}

    def hook(l, ensemble, latest_t, log):
        if state["t0"] is None and log.records:
            state["t0"] = log.records[0].t  # indicator of the first iteration
        extra = {"eps_r": state["tol"], "n_state": rm.n_state, "n_adjoint": rm.n_adjoint}
        if l == 0:
            extra.update(initial_sweep)
            return extra
        if period is None or l % period != 0:
            return extra
        if latest_t is not None:
            t_ref = state["t0"] if state["t0"] is not None else latest_t
            state["tol"] = tolerance_update(adaptive_config, latest_t, t_ref,
                                            previous=state["tol"])
        t_start = time.perf_counter()
        sweep = greedy_sweep(rm, problem, ensemble.particles, state["tol"],
                             adaptive_config.max_basis)
        offline["seconds"] += time.perf_counter() - t_start
        extra.update(
            eps_r=state["tol"], n_state=rm.n_state, n_adjoint=rm.n_adjoint,
            n_enriched=sweep.n_enriched,
            certified_max_indicator=sweep.max_indicator,
            flags=list(sweep.flags),
        )
        return extra

    ensemble, log = svgd_run(
        backend, problem.prior, svgd_config, hook=hook,
        initial_particles=particles0, alpha_schedule=alpha_schedule,
        log_meta={"rb_offline_seconds": 0.0, **(log_meta or {})},
    )
    log.meta["rb_offline_seconds"] = offline["seconds"]
    return ensemble, rm, log


def build_fixed_rb(problem, svgd_config, tol, max_basis=500):
    """Greedy reduced model built once on prior samples, then frozen."""
    particles0 = draw_prior(problem.prior, svgd_config.n_particles, svgd_config.seed)
    rm = initialize(problem, particles0[0])
    sweep = greedy_sweep(rm, problem, particles0, tol, max_basis)
    return rm, sweep
