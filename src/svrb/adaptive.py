"""Adaptive greedy construction of the reduced model along the sampler run.

The sampler's particles double as the training set: at every update step
the largest dual-weighted-residual indicator over the current particles
drives snapshot selection, and the greedy tolerance shrinks with the
sampler's own convergence indicator, so the surrogate gets more accurate
exactly where (and when) the particles concentrate.
"""

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import hifi
from .backends import RBBackend
from .reduced import ReducedModel
from .svgd import draw_prior, svgd_run

# a reselected snapshot parameter must cut its indicator by this fraction
STAGNATION_DROP = 0.1

# the parts of a greedy sweep that SweepResult.timers clocks: the indicator
# passes, the snapshots' high-fidelity solves and the enrichments
SWEEP_PARTS = ("indicator", "snapshots", "enrich")


@dataclass
class AdaptiveConfig:
    eps0: float = 0.1
    update_every: int | None = 10   # sweep period in sampler iterations; None = never
    rule: str = "normalized"        # eps0 * t_l / t_0, or "absolute": eps0 * t_l
    eps_min: float = 1e-12
    max_basis: int = 500

    def __post_init__(self):
        period = self.update_every
        for ok, message in (
            (self.eps0 > 0, "eps0 must be positive"),
            (period is None or period >= 1 and float(period).is_integer(),
             "update_every must be None or an integer >= 1"),
            (self.rule in ("normalized", "absolute"), f"unknown tolerance rule {self.rule!r}"),
            (self.eps_min >= 0, "eps_min must be >= 0"),
            (self.max_basis >= 1, "max_basis must be >= 1"),
        ):
            if not ok:
                raise ValueError(message)


@dataclass
class SweepResult:
    n_enriched: int
    max_indicator: float
    history: list = field(default_factory=list)  # max indicator after each pass
    flags: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # indices of non-coercive particles
    timers: dict = field(default_factory=lambda: dict.fromkeys(SWEEP_PARTS, 0.0))  # seconds


@contextlib.contextmanager
def _clock(timers, part):
    """Add the seconds the block takes to ``timers[part]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timers[part] += time.perf_counter() - start


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


def greedy_sweep(rm, problem, particles, tol, max_basis=AdaptiveConfig.max_basis):
    """Enrich at worst-indicator particles until all are within ``tol``.

    Each pass scores every live particle in one online pass.  Stops early
    when the basis cap is reached or when the selected parameter is already
    a snapshot and its indicator refuses to drop (both loudly flagged).
    One coercivity verdict per particle (``problem.coercive_rows``, clocked
    with the indicator passes) skips the non-coercive particles for the
    whole sweep before any particle is scored; the model guards the rest
    once, and grows the factors of their operators through each
    enrichment, so only the first pass factors them.  ``SweepResult.timers``
    holds the seconds of the :data:`SWEEP_PARTS`.
    """
    particles = np.atleast_2d(particles)
    result = SweepResult(n_enriched=0, max_indicator=np.inf)
    with _clock(result.timers, "indicator"):
        live = problem.coercive_rows(particles)
    result.skipped = np.flatnonzero(~live).tolist()
    last_selected = {}  # theta bytes -> indicator when last selected

    while True:
        with _clock(result.timers, "indicator"):
            vals = np.abs(rm._solve_online(problem, particles[live]).delta)
        worst = float(vals.max(initial=-np.inf))  # -inf when no particle is live
        result.history.append(worst)
        result.max_indicator = worst
        if worst <= tol:
            break
        if rm.n_state >= max_basis or rm.n_adjoint >= max_basis:
            result.flags.append("basis_cap")
            break
        best = int(np.argmax(vals))  # ties resolve to the lowest index
        theta = particles[np.flatnonzero(live)[best]]
        key = theta.tobytes()
        if key in last_selected and vals[best] > (1 - STAGNATION_DROP) * last_selected[key]:
            result.flags.append("stagnation")
            break
        last_selected[key] = vals[best]
        with _clock(result.timers, "snapshots"):
            ev = hifi.evaluate(problem, theta)
        with _clock(result.timers, "enrich"):
            rm.enrich(problem, ev.u, ev.psi, theta)
        result.n_enriched += 1
    return result


def run_svrb(problem, svgd_config, adaptive_config, alpha_schedule=None):
    """Sampler run with interleaved greedy surrogate refreshes.

    Draws the particles, seeds the reduced model at the first one and runs
    the initial greedy sweep on the prior ensemble at ``eps0``; record 0
    carries that sweep.  Then, every ``update_every`` iterations (never when
    it is ``None``), the tolerance is refreshed from the latest stopping
    indicator and a sweep re-certifies the surrogate on the current
    particles; that iteration's record carries it (``sweep_passes``,
    ``sweep_skipped``, and ``sweep_timers``, its :data:`SWEEP_PARTS`).
    Returns ``(ensemble, model, runlog)``.  ``runlog.meta["timers"]`` holds
    the seconds before the sampler loop, ``initialize`` (the seed snapshot)
    and ``initial_sweep``, so they and the records' phases add up to the
    run's wall time; ``runlog.meta["rb_offline_seconds"]`` is those two plus
    every record's ``hook`` phase, which holds the later sweeps.
    """
    acfg = adaptive_config
    particles0 = draw_prior(problem.prior, svgd_config.n_particles, svgd_config.seed)
    start = time.perf_counter()
    rm = initialize(problem, particles0[0])
    seeded = time.perf_counter()
    sweep = greedy_sweep(rm, problem, particles0, acfg.eps0, acfg.max_basis)
    timers = {"initialize": seeded - start, "initial_sweep": time.perf_counter() - seeded}
    tol = acfg.eps0

    def hook(l, ensemble, latest_t, log):
        nonlocal sweep, tol
        if l == 0:
            n_enriched = 1 + sweep.n_enriched  # the seed snapshot and the initial sweep
        elif acfg.update_every is None or l % acfg.update_every != 0:
            return {"eps_r": tol, "n_state": rm.n_state, "n_adjoint": rm.n_adjoint}
        else:
            # the normalized rule divides by the indicator of the first iteration
            tol = tolerance_update(acfg, latest_t, log.records[0].t, previous=tol)
            sweep = greedy_sweep(rm, problem, ensemble.particles, tol, acfg.max_basis)
            n_enriched = sweep.n_enriched
        return {"eps_r": tol, "n_state": rm.n_state, "n_adjoint": rm.n_adjoint,
                "n_enriched": n_enriched, "certified_max_indicator": sweep.max_indicator,
                "sweep_passes": len(sweep.history), "sweep_skipped": len(sweep.skipped),
                "sweep_timers": sweep.timers, "flags": sweep.flags}

    ensemble, log = svgd_run(
        RBBackend(problem, rm, adaptive=True), problem.prior, svgd_config, hook=hook,
        initial_particles=particles0, alpha_schedule=alpha_schedule,
    )
    log.meta["timers"] = timers
    log.meta["rb_offline_seconds"] = sum(timers.values()) + sum(r.timers["hook"] for r in log.records)
    return ensemble, rm, log


def build_fixed_rb(problem, svgd_config, tol, max_basis=AdaptiveConfig.max_basis):
    """Greedy reduced model built once on prior samples, then frozen."""
    particles0 = draw_prior(problem.prior, svgd_config.n_particles, svgd_config.seed)
    rm = initialize(problem, particles0[0])
    sweep = greedy_sweep(rm, problem, particles0, tol, max_basis)
    return rm, sweep
