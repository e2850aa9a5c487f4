"""Stein variational gradient descent over a pluggable posterior backend.

Particles carry an RBF-kernel interacting system: each update moves every
particle along a sample-averaged direction combining score-weighted
attraction and kernel-gradient repulsion.  The kernel bandwidth follows
the median heuristic, the step size comes from a backtracking line search
on the sample-average potential that starts at twice the last accepted
step (or, after a search that found none, at its untried step), and the
iteration stops when the largest particle update drops below a tolerance.
Each iteration hands the backend the whole particle stack once for
potentials and gradients, and once per line-search trial for potentials,
together with the sum of potentials beyond which the trial is rejected for
certain.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fem import CoercivityLost, SolveFailed
from .reduced import RBSolveFailed
from .runlog import IterationRecord, RunLog

_TRIAL_FAILURES = (CoercivityLost, SolveFailed, RBSolveFailed, FloatingPointError)
PHASES = ("hook", "evaluate", "direction", "line_search", "update")  # of one iteration, in order


class NumericalAbort(RuntimeError):
    """The sampler cannot go on: the backend failed where no fallback exists."""


@dataclass
class SVGDConfig:
    """Sampler settings.  ``alpha_init`` is the first line search's start step
    and the cap on every later start; ``max_backtracks`` bounds the trials of
    one search."""

    n_particles: int = 64
    max_steps: int = 100
    tol: float = 1e-3
    alpha_init: float = 1.0
    max_backtracks: int = 20
    seed: int = 0

    def __post_init__(self):
        for ok, message in (
            (self.n_particles >= 1, "n_particles must be >= 1"),
            (self.max_steps >= 0, "max_steps must be >= 0"),
            (self.tol >= 0, "tol must be >= 0"),
            (self.alpha_init > 0, "alpha_init must be positive"),
            (self.max_backtracks >= 1, "max_backtracks must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
        ):
            if not ok:
                raise ValueError(message)


@dataclass
class ParticleEnsemble:
    particles: np.ndarray = field(repr=False)  # (M, d)
    iteration: int = 0

    @property
    def n_particles(self):
        return self.particles.shape[0]


def prior_score(prior, thetas):
    """Gradient of the log prior density, zero for flat/uniform priors."""
    thetas = np.atleast_2d(thetas)
    if prior is None:
        return np.zeros_like(thetas)
    return prior.score(thetas)


def prior_neglog(prior, thetas):
    """Negative log prior density up to a constant (zero for flat priors)."""
    thetas = np.atleast_2d(thetas)
    if prior is None:
        return np.zeros(thetas.shape[0])
    return prior.neglog(thetas)


def median_bandwidth(particles):
    """Median heuristic ``h = med^2 / ln(M)`` with a fallback of 1.

    ``med`` is the median of all pairwise Euclidean distances; degenerate
    ensembles (single particle, coincident particles) fall back to 1.
    """
    m = particles.shape[0]
    if m < 2:
        return 1.0
    diff = particles[:, None, :] - particles[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    iu = np.triu_indices(m, k=1)
    med = float(np.median(dist[iu]))
    logm = np.log(m)
    if med == 0.0 or logm == 0.0:
        return 1.0
    return med**2 / logm


def svgd_direction(particles, scores, h):
    """Sample-average Stein direction at every particle.

    ``scores`` holds the log-posterior gradients at the particles; the
    returned array has one update direction per particle (row).
    """
    m = particles.shape[0]
    diff = particles[:, None, :] - particles[None, :, :]  # theta_m - theta_n
    sq = np.sum(diff**2, axis=-1)
    K = np.exp(-sq / h)  # K[m, n] = k(theta_m, theta_n)
    attract = K.T @ scores
    # gradient of k(theta_m, theta_n) w.r.t. theta_m, summed over m
    repulse = (2.0 / h) * (particles * K.sum(axis=0)[:, None] - K.T @ particles)
    return (attract + repulse) / m


def stopping_indicator(direction):
    """Largest particle-update norm."""
    if direction.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(direction, axis=1)))


def line_search(particles, direction, potential_fn, prior, alpha_init=1.0,
                max_backtracks=20):
    """Backtracking step-size search on the sample-average potential.

    The merit is the mean of (potential - log prior) over the shifted
    particles; a trial step is accepted once it strictly decreases the
    merit below the merit ``base`` at the current particles.
    ``potential_fn(thetas, budget)`` maps the particle stack ``(M, d)`` to
    its potentials ``(M,)``.  A backend failure at any trial particle makes
    that trial's merit infinite; a failure at the current particles raises
    :class:`NumericalAbort`.  Returns ``(alpha, exhausted, n_evaluations)``,
    the last counting the particle rows handed to ``potential_fn`` in calls
    that returned.  Trial ``k`` (from 0) steps ``alpha_init * 2**-k``, so an
    accepted step is ``alpha_init`` halved ``log2(alpha_init / alpha)`` times;
    an exhausted search returns its untried next step ``alpha_init *
    2**-max_backtracks``, which :func:`svgd_run` does not take but starts
    the next search at.

    A trial is accepted iff ``mean(eta + neglog) < base``, that is iff
    ``sum(eta) < M * base - sum(neglog)``; the prior terms are computed
    first and that bound, plus a relative slack, is passed as ``budget``.
    A backend whose potentials are never negative may stop as soon as the
    rows evaluated so far sum to at least ``budget`` and return infinite
    potentials (see :mod:`svrb.backends`).  The accepted ``alpha`` is
    bitwise the same as with every row evaluated: an accepted trial never
    reaches the budget, so all its rows are evaluated and its merit is the
    same float; a stopped trial exceeds the acceptance bound by at least
    the slack, ``1e-9 * (M * |base| + sum|neglog|)``, which is far larger
    than the rounding of any of the sums involved, so its full merit would
    not have been below ``base`` either.  Near-ties are evaluated in full.
    """
    if not np.any(direction):
        return alpha_init, False, 0

    m = len(particles)
    try:
        base = float(np.mean(potential_fn(particles, np.inf) + prior_neglog(prior, particles)))
    except _TRIAL_FAILURES as exc:
        raise NumericalAbort(
            f"line-search reference merit failed at the current particles: {exc}"
        ) from exc
    n_evals = m
    alpha = alpha_init
    for _ in range(max_backtracks):
        thetas = particles + alpha * direction
        neglog = prior_neglog(prior, thetas)
        budget = m * base - neglog.sum() + 1e-9 * (m * abs(base) + np.abs(neglog).sum())
        try:
            trial = float(np.mean(potential_fn(thetas, budget) + neglog))
            n_evals += m
        except _TRIAL_FAILURES:
            trial = np.inf
        if np.isfinite(trial) and trial < base:
            return alpha, False, n_evals
        alpha *= 0.5
    return alpha, True, n_evals


def draw_prior(prior, m, seed):
    rng = np.random.default_rng(seed)
    return prior.sample(rng, m)


def svgd_run(backend, prior, config, hook=None, initial_particles=None,
             alpha_schedule=None):
    """Run the sampler; returns ``(ensemble, runlog)``.

    ``hook(l, ensemble, latest_t, runlog)`` runs at the start of every
    iteration (``latest_t`` is the last stopping indicator, ``None`` at
    ``l = 0``); the :class:`~svrb.runlog.IterationRecord` fields it returns go
    into that iteration's record, and any other name raises ``TypeError``.
    When ``alpha_schedule`` is given, the line search is skipped, the recorded
    step sizes are replayed, and exactly ``len(alpha_schedule)`` iterations
    run -- this pins matched trajectories for discrepancy studies.
    Otherwise each line search starts at ``min(alpha_init, 2 * alpha)``, with
    ``alpha`` the step the previous search accepted, so it seldom relearns
    the scale of the last step.  The first search starts at ``alpha_init``;
    a search after an exhausted one starts at that search's untried step,
    its start halved ``max_backtracks`` times, so it tries no step the
    exhausted one rejected at the same particles, and the doubling grows the
    step back once one is accepted.  Every step is thus ``alpha_init *
    2**-k``, or 0 when no trial lowered the merit.  Each
    record's ``backtracks`` is the number of halvings from its search's
    start (``max_backtracks`` when exhausted, ``None`` when replayed).
    Each record and the log's meta (``backend``, ``seed``; callers add their
    keys after the run) carry ``evaluations``, the growth of
    ``backend.n_evaluations`` over the iteration and over the run.  Each
    record's ``timers`` holds the seconds of its :data:`PHASES`: ``hook``,
    ``evaluate`` (with the snapshot), ``direction`` (score, bandwidth, kernel,
    stopping indicator), ``line_search`` and ``update`` (step and clamp),
    each between two clock stamps; an iteration starts at the stamp where
    the last one ended, so a run's phases add up to the wall time of its loop.
    """
    if initial_particles is not None:
        particles = np.array(initial_particles, dtype=float)
    else:
        if prior is None:
            raise ValueError("a flat prior cannot be sampled; pass initial_particles")
        particles = draw_prior(prior, config.n_particles, config.seed)
    ensemble = ParticleEnsemble(particles=particles)
    log = RunLog(meta={"backend": backend.descriptor, "seed": config.seed})

    replay = alpha_schedule is not None
    max_steps = len(alpha_schedule) if replay else config.max_steps
    evaluations0 = backend.n_evaluations
    start = config.alpha_init  # first trial step of the next line search
    t = 2.0 * config.tol
    l = 0
    stamps = [time.perf_counter()]
    while l < max_steps and (replay or t > config.tol):
        stamps = stamps[-1:]
        extra = {}
        if hook is not None:
            extra = hook(l, ensemble, None if l == 0 else t, log) or {}
        stamps.append(time.perf_counter())

        n_evaluations = backend.n_evaluations
        try:
            etas, grads = backend.evaluate_batch(ensemble.particles)
        except _TRIAL_FAILURES as exc:
            raise NumericalAbort(
                f"backend {backend.descriptor} failed in iteration {l}: {exc}"
            ) from exc
        if not (np.isfinite(etas).all() and np.isfinite(grads).all()):
            bad = int(np.argmax(~(np.isfinite(etas) & np.isfinite(grads).all(axis=1))))
            raise NumericalAbort(
                f"backend {backend.descriptor} returned non-finite values at "
                f"particle {bad} of iteration {l}"
            )
        log.snapshot(l, ensemble.particles, etas)
        stamps.append(time.perf_counter())

        scores = prior_score(prior, ensemble.particles) - grads
        h = median_bandwidth(ensemble.particles)
        direction = svgd_direction(ensemble.particles, scores, h)
        t = stopping_indicator(direction)
        stamps.append(time.perf_counter())

        flags = []
        backtracks = None
        if replay:
            alpha = float(alpha_schedule[l])
        else:
            alpha, exhausted, _ = line_search(
                ensemble.particles, direction, backend.potential_batch, prior,
                start, config.max_backtracks,
            )
            if exhausted:  # no trial lowered the merit, so the particles stay put
                backtracks, start, alpha = config.max_backtracks, alpha, 0.0
                flags.append("line_search_exhausted")
            else:
                backtracks = round(math.log2(start / alpha))
                start = min(config.alpha_init, 2.0 * alpha)
        stamps.append(time.perf_counter())

        updated = ensemble.particles + alpha * direction
        n_clamped = 0
        if prior is not None:
            updated, n_clamped = prior.clamp(updated)
        ensemble.particles = updated
        ensemble.iteration = l + 1
        stamps.append(time.perf_counter())

        timers = {phase: b - a for phase, a, b in zip(PHASES, stamps, stamps[1:])}
        log.add(IterationRecord(
            l=l, t=t, alpha=alpha, backtracks=backtracks, backend=backend.descriptor,
            evaluations=backend.n_evaluations - n_evaluations,
            clamped=n_clamped, flags=flags + extra.pop("flags", []), timers=timers, **extra,
        ))
        l += 1

    log.snapshot(l, ensemble.particles)  # final (or prior-only) state
    log.meta["evaluations"] = backend.n_evaluations - evaluations0
    return ensemble, log
