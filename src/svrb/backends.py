"""Posterior backends: the contract "given a stack of parameters, return
their potentials and gradients".

The sampler hands every backend the whole particle stack ``thetas`` of
shape ``(M, d)``: ``evaluate_batch(thetas)`` returns ``(etas[M],
grads[M, d])`` and ``potential_batch(thetas, budget=inf)`` returns
``etas[M]``.  A failure at any row raises.  ``budget`` bounds the sum of
the potentials the caller still cares about: a backend whose potentials
are never negative may return ``np.full(M, np.inf)`` as soon as the rows
it has evaluated already sum to ``budget`` or more, since the whole sum
can only be larger.  Any backend may ignore it and evaluate every row.
``n_evaluations`` counts the rows a backend has evaluated, and
``timers`` maps a phase name to the seconds the backend has spent in it.

Three production implementations (high-fidelity, fixed reduced basis,
adaptive reduced basis -- the last two share :class:`RBBackend`, the
adaptive driver mutates the model between sweeps) plus an analytic
Gaussian backend for sampler tests.  The reduced and Gaussian backends
evaluate a stack in one pass; the high-fidelity backend needs one sparse
factorization per parameter and loops.
"""

import time

import numpy as np

from . import hifi


class HiFiBackend:
    """Full finite-element evaluations; one factorization per parameter.

    :meth:`evaluate` and :meth:`potential` take one parameter; the batch
    methods call them row by row and stop at the first failure.  A
    high-fidelity potential is a noise-weighted sum of squares, so
    :meth:`potential_batch` honours its ``budget``: it stops, and returns
    all-infinite potentials, once the rows so far sum to at least
    ``budget``, and evaluates no row if ``budget <= 0``.
    """

    descriptor = "hifi"

    def __init__(self, problem):
        self.problem = problem
        self.timers = {"hifi_solve": 0.0}
        self.n_evaluations = 0

    def evaluate(self, theta):
        t0 = time.perf_counter()
        ev = hifi.evaluate(self.problem, theta)
        self.timers["hifi_solve"] += time.perf_counter() - t0
        self.n_evaluations += 1
        return ev.eta, ev.grad_eta

    def potential(self, theta):
        t0 = time.perf_counter()
        eta, _ = hifi.potential(self.problem, theta)
        self.timers["hifi_solve"] += time.perf_counter() - t0
        self.n_evaluations += 1
        return eta

    def evaluate_batch(self, thetas):
        etas, grads = zip(*(self.evaluate(theta) for theta in thetas))
        return np.array(etas), np.array(grads)

    def potential_batch(self, thetas, budget=np.inf):
        etas = np.empty(len(thetas))
        total = 0.0
        for i, theta in enumerate(thetas):
            if not total < budget:  # a NaN total or budget stops too
                return np.full(len(thetas), np.inf)
            etas[i] = self.potential(theta)
            total += etas[i]
        return etas


class RBBackend:
    """Reduced-basis evaluations of the corrected potential and gradient.

    The same instance serves both the fixed and the adaptive pipeline; the
    adaptive driver enriches ``self.model`` between sweeps.  ``evaluate``
    and ``potential`` take one parameter or a stack and only time and count
    the model's online pass, which guards the stack itself.  The batch
    methods call them on the whole stack, so a wrapper installed on the
    class sees every batch.  The stack is evaluated in one pass, so
    :meth:`potential_batch` ignores its ``budget``; a corrected reduced
    potential can be negative, which would void it anyway.
    """

    def __init__(self, problem, model, adaptive=False):
        self.problem = problem
        self.model = model
        self.descriptor = "rb-adaptive" if adaptive else "rb-fixed"
        self.timers = {"rb_online": 0.0}
        self.n_evaluations = 0

    def _online(self, method, theta):
        """Run the model's ``method`` on the stack, timed and counted."""
        t0 = time.perf_counter()
        out = method(self.problem, theta)
        self.timers["rb_online"] += time.perf_counter() - t0
        self.n_evaluations += len(np.atleast_2d(theta))
        return out

    def evaluate(self, theta):
        ev = self._online(self.model.evaluate, theta)
        return ev.eta_delta, ev.grad_eta_delta

    def potential(self, theta):
        return self._online(self.model.potential, theta)[1]  # the corrected potential

    def evaluate_batch(self, thetas):
        return self.evaluate(np.atleast_2d(thetas))

    def potential_batch(self, thetas, budget=np.inf):
        return self.potential(np.atleast_2d(thetas))


class GaussianBackend:
    """Analytic Gaussian potential ``0.5 * ||theta - mean||^2`` for tests."""

    descriptor = "gaussian-toy"

    def __init__(self, mean):
        self.mean = np.asarray(mean, dtype=float)
        self.timers = {}
        self.n_evaluations = 0

    def evaluate_batch(self, thetas):
        diff = np.atleast_2d(thetas) - self.mean
        self.n_evaluations += len(diff)
        return 0.5 * np.einsum("mi,mi->m", diff, diff), diff

    def potential_batch(self, thetas, budget=np.inf):
        return self.evaluate_batch(thetas)[0]
